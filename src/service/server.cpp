#include "service/server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/assert.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "protocol/cds_broadcast.h"
#include "protocol/registry.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "topology/factory.h"

namespace wsn {

namespace {

/// Latency bucket edges in milliseconds: sub-100us plan-cache hits up to
/// multi-second scenario batches.
std::vector<double> latency_bounds() {
  return {0.05, 0.1,  0.25, 0.5,  1.0,   2.5,   5.0,    10.0,
          25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0};
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t wall_micros() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(now);
  return us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

/// Counts one event in a lifetime total and its metrics mirror.
void bump(std::atomic<std::uint64_t>& total, Counter* mirror) noexcept {
  total.fetch_add(1, std::memory_order_relaxed);
  if (mirror != nullptr) mirror->increment();
}

JournalMethod journal_method_for(RpcType type) noexcept {
  switch (type) {
    case RpcType::kSimulate: return JournalMethod::kSimulate;
    case RpcType::kScenario: return JournalMethod::kScenario;
    default: return JournalMethod::kPlan;
  }
}

}  // namespace

MeshbcastService::MeshbcastService(ServiceConfig config)
    : config_(std::move(config)) {}

MeshbcastService::~MeshbcastService() { shutdown(); }

bool MeshbcastService::start(std::string& error) {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  WSN_EXPECTS(!started_ && !stopped_);
  worker_count_ = config_.workers == 0 ? 2 : config_.workers;
  queue_capacity_ = config_.queue_capacity == 0
                        ? std::max<std::size_t>(2 * worker_count_, 8)
                        : config_.queue_capacity;
  if (!config_.unix_path.empty()) {
    if (!Listener::listen_unix(config_.unix_path, listener_, error)) {
      return false;
    }
    address_ = "unix:" + config_.unix_path;
  } else {
    if (!Listener::listen_tcp(config_.tcp_port, listener_, error)) {
      return false;
    }
    address_ = "tcp:127.0.0.1:" + std::to_string(listener_.port());
  }
  if (config_.metrics != nullptr) {
    MetricsRegistry& reg = *config_.metrics;
    m_.requests = &reg.counter("service.requests");
    m_.served = &reg.counter("service.requests_ok");
    m_.errors = &reg.counter("service.requests_error");
    m_.sheds = &reg.counter("service.sheds");
    m_.bad_frames = &reg.counter("service.bad_frames");
    m_.connections = &reg.counter("service.connections");
    m_.queue_depth = &reg.gauge("service.queue_depth");
    m_.workers_busy = &reg.gauge("service.workers_busy");
    m_.connections_open = &reg.gauge("service.connections_open");
    m_.request_ms = &reg.histogram("service.request_ms", latency_bounds());
    m_.plan_ms = &reg.histogram("service.plan_ms", latency_bounds());
    m_.simulate_ms = &reg.histogram("service.simulate_ms", latency_bounds());
    m_.scenario_ms = &reg.histogram("service.scenario_ms", latency_bounds());
    SloTracker::Config slo_config;
    slo_config.window = std::max<std::size_t>(config_.slo_window, 1);
    slo_ = std::make_unique<SloTracker>(config_.metrics, slo_config);
    if (config_.journal != nullptr) {
      m_.lifetime_requests = &reg.gauge("service.lifetime_requests");
      m_.lifetime_served = &reg.gauge("service.lifetime_served");
      m_.lifetime_errors = &reg.gauge("service.lifetime_errors");
      m_.lifetime_sheds = &reg.gauge("service.lifetime_sheds");
    }
  }
  if (config_.journal != nullptr) {
    request_seq_.store(config_.journal->replay().max_seq,
                       std::memory_order_relaxed);
    update_lifetime_gauges();
  }
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (config_.heartbeat_ms > 0) {
    HeartbeatEmitter::Config hb;
    hb.period_ms = config_.heartbeat_ms;
    hb.sample = [this] { return sample_heartbeat(); };
    hb.sink = config_.heartbeat_sink;
    heartbeat_ = std::make_unique<HeartbeatEmitter>(std::move(hb));
    heartbeat_->start();
  }
  started_ = true;
  return true;
}

int MeshbcastService::port() const noexcept { return listener_.port(); }

std::string MeshbcastService::address() const { return address_; }

void MeshbcastService::wait(const std::atomic<bool>* external_stop) {
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    if (external_stop != nullptr &&
        external_stop->load(std::memory_order_acquire)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  shutdown();
}

void MeshbcastService::shutdown() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!started_ || stopped_) return;
  // Order matters.  (1) Stop admitting: the drain bit refuses every
  // later admission, and the accept loop exits on the drain flag.
  // (2) Wait until every admitted request -- waiters included, they
  // still get their permits -- has written its response and released
  // its permit; only THEN (3) half-close the connections, so a handler
  // is never racing a teardown on the socket it is responding on.
  admitted_.fetch_or(kDrainBit, std::memory_order_acq_rel);
  draining_.store(true, std::memory_order_release);
  accept_thread_.join();
  listener_.close();
  {
    std::unique_lock<std::mutex> permit_lock(permit_mutex_);
    permit_cv_.wait(permit_lock, [this] {
      return admitted_.load(std::memory_order_acquire) == kDrainBit;
    });
  }
  {
    const std::lock_guard<std::mutex> conn_lock(connections_mutex_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->sock.shutdown_both();
    }
  }
  // No lock while joining: the handlers never touch the list, and the
  // accept thread (the only other mutator) is already gone.
  for (const std::shared_ptr<Connection>& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  if (heartbeat_) heartbeat_->stop();
  // Every admitted request has executed; make its journal record
  // durable before reporting the drain complete.
  if (config_.journal != nullptr) config_.journal->flush();
  stopped_ = true;
}

MeshbcastService::Counters MeshbcastService::counters() const noexcept {
  Counters c;
  c.connections = connections_total_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.served = served_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.sheds = sheds_.load(std::memory_order_relaxed);
  c.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return c;
}

HeartbeatRecord MeshbcastService::sample_heartbeat() {
  HeartbeatRecord beat;
  beat.emitted = served_.load(std::memory_order_relaxed);
  beat.jobs_total = requests_.load(std::memory_order_relaxed);
  beat.errors = errors_.load(std::memory_order_relaxed);
  const std::uint64_t admitted =
      admitted_.load(std::memory_order_relaxed) & ~kDrainBit;
  beat.workers_busy = std::min<std::uint64_t>(admitted, worker_count_);
  beat.queue_depth = admitted - beat.workers_busy;
  return beat;
}

MeshbcastService::Admission MeshbcastService::admit(std::uint64_t& ticket) {
  // Fast path: a free permit means nobody waits (a release hands its
  // permit straight to the oldest waiter), so taking it keeps admission
  // order.  The drain bit makes `state` too large to pass the test.
  std::uint64_t state = admitted_.load(std::memory_order_relaxed);
  while (state < worker_count_) {
    if (admitted_.compare_exchange_weak(state, state + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return Admission::kRunning;
    }
  }
  // Slow path under the permit mutex, so a waiter's ticket order is its
  // admission order.
  const std::lock_guard<std::mutex> lock(permit_mutex_);
  state = admitted_.load(std::memory_order_relaxed);
  do {
    if ((state & kDrainBit) != 0) return Admission::kDraining;
    if (state >= worker_count_ + queue_capacity_) {
      return Admission::kOverloaded;
    }
  } while (!admitted_.compare_exchange_weak(state, state + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
  if (state < worker_count_) return Admission::kRunning;
  ticket = tickets_++;
  return Admission::kWaiting;
}

void MeshbcastService::release_permit() {
  const std::uint64_t before =
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
  const std::uint64_t count = before & ~kDrainBit;
  // More admitted than permits: someone waits (or is about to take its
  // ticket); the freed permit is theirs.  The last release under drain
  // wakes shutdown().
  if (count > worker_count_ || before == (kDrainBit | 1)) {
    {
      const std::lock_guard<std::mutex> lock(permit_mutex_);
      if (count > worker_count_) ++grants_;
    }
    permit_cv_.notify_all();
  }
}

void MeshbcastService::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    Socket sock;
    if (listener_.accept(sock, 100)) {
      bump(connections_total_, m_.connections);
      auto conn = std::make_shared<Connection>();
      conn->sock = std::move(sock);
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
      conn->thread =
          std::thread([this, conn] { handle_connection(conn); });
    }
    reap_finished();
  }
}

void MeshbcastService::reap_finished() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void MeshbcastService::handle_connection(
    const std::shared_ptr<Connection>& conn) {
  const auto publish_open = [this](std::size_t open) {
    if (m_.connections_open != nullptr) {
      m_.connections_open->set(static_cast<double>(open));
    }
  };
  publish_open(connections_open_.fetch_add(1, std::memory_order_relaxed) + 1);
  std::string payload;
  bool alive = true;
  while (alive) {
    const FrameStatus status =
        read_frame(conn->sock, payload, config_.max_request_bytes);
    if (status == FrameStatus::kClosed) break;
    if (status == FrameStatus::kOversized) {
      // The length prefix was read but the payload was not: the stream
      // cannot be resynchronized.  Answer, then drop the connection.
      bump(bad_frames_, m_.bad_frames);
      (void)write_frame(
          conn->sock,
          rpc_error_json(false, 0, rpc_code::kOversized,
                         "frame exceeds max_request_bytes (" +
                             std::to_string(config_.max_request_bytes) +
                             ")"));
      break;
    }
    if (status != FrameStatus::kOk) {  // truncated or transport error
      bump(bad_frames_, m_.bad_frames);
      break;
    }
    // Admission timing starts when the frame is fully read: everything
    // from here to the admission decision (or inline reply) is the
    // daemon's doing, not the client's.
    const auto frame_received = std::chrono::steady_clock::now();
    RpcRequest req;
    RpcError error;
    if (!parse_rpc_request(payload, req, error)) {
      // No request id: the frame never became a request.
      bump(errors_, m_.errors);
      alive = write_frame(conn->sock, rpc_error_json(req.has_id, req.id,
                                                     error.code,
                                                     error.message));
      continue;
    }
    req.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Spans the handler finishes from here on (admission, inline
    // replies) carry the request id.
    RequestTagScope tag_scope(req.seq);
    // Inline lane: liveness probes and the drain trigger never wait for
    // a permit -- a saturated service must still answer health checks
    // and accept its own shutdown.
    if (req.type == RpcType::kHealth) {
      alive = write_frame(conn->sock, health_json(req));
      continue;
    }
    if (req.type == RpcType::kMetrics) {
      alive = write_frame(conn->sock, metrics_json(req));
      continue;
    }
    if (req.type == RpcType::kShutdown) {
      JsonWriter w = rpc_response_begin(req);
      w.member("status", "draining").end_object();
      alive = write_frame(conn->sock, std::move(w).str());
      // A handler cannot join itself: flag the request and let wait()
      // perform the actual drain from the main thread.
      shutdown_requested_.store(true, std::memory_order_release);
      continue;
    }
    // Admission lane: the request runs right here once it holds a
    // permit.
    std::uint64_t ticket = 0;
    const Admission admission = admit(ticket);
    const auto decided = std::chrono::steady_clock::now();
    const Admitted admitted{
        decided, config_.journal != nullptr ? wall_micros() : 0,
        std::chrono::duration<double, std::milli>(decided - frame_received)
            .count()};
    bump(requests_, m_.requests);
    Timeline& timeline = Timeline::instance();
    if (timeline.enabled()) {
      timeline.record_wait(
          "service.admission",
          static_cast<std::uint64_t>(admitted.admission_ms * 1e6), req.seq);
    }
    if (admission == Admission::kOverloaded ||
        admission == Admission::kDraining) {
      const bool draining = admission == Admission::kDraining;
      if (!draining) bump(sheds_, m_.sheds);
      bump(errors_, m_.errors);
      // A refused request still gets a journal record: sheds are part
      // of "what did I serve", and the drain flag marks refusals that
      // were the drain's fault rather than load's.
      record_request(req, admitted, 0.0, StageTrace{},
                     draining ? JournalOutcome::kError : JournalOutcome::kShed,
                     draining ? kJournalDrainRefused : 0);
      alive = write_frame(
          conn->sock,
          rpc_error_json(req.has_id, req.id,
                         draining ? rpc_code::kShuttingDown
                                  : rpc_code::kOverloaded,
                         draining ? "service is draining"
                                  : "admission is full; retry",
                         req.seq));
      continue;
    }
    if (admission == Admission::kWaiting) {
      std::unique_lock<std::mutex> lock(permit_mutex_);
      permit_cv_.wait(lock, [&] { return grants_ > ticket; });
    }
    alive = execute(conn->sock, req, admitted);
    release_permit();
  }
  publish_open(connections_open_.fetch_sub(1, std::memory_order_relaxed) - 1);
  conn->finished.store(true, std::memory_order_release);
}

bool MeshbcastService::execute(Socket& sock, const RpcRequest& req,
                               const Admitted& admitted) {
  // Everything recorded here runs under the handler's request tag.
  const double queue_ms = ms_since(admitted.at);
  Timeline& timeline = Timeline::instance();
  if (timeline.enabled()) {
    timeline.record_wait("service.queue_wait",
                         static_cast<std::uint64_t>(queue_ms * 1e6), req.seq);
  }
  if (config_.before_execute) config_.before_execute();
  WSN_SPAN("service.request");
  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  bool wrote = true;
  StageTrace trace;
  Histogram* hist = nullptr;
  switch (req.type) {
    case RpcType::kPlan:
    case RpcType::kSimulate: {
      const bool plan = req.type == RpcType::kPlan;
      std::string response;
      {
        WSN_SPAN(plan ? "service.plan" : "service.simulate");
        const auto t = std::chrono::steady_clock::now();
        response = plan ? respond_plan(req, ok, trace)
                        : respond_simulate(req, ok, trace);
        trace.exec_ms = ms_since(t);
      }
      {
        WSN_SPAN("service.emit");
        const auto t = std::chrono::steady_clock::now();
        wrote = write_frame(sock, response);
        trace.emit_ms = ms_since(t);
      }
      hist = plan ? m_.plan_ms : m_.simulate_ms;
      break;
    }
    case RpcType::kScenario: {
      WSN_SPAN("service.scenario");
      const auto t = std::chrono::steady_clock::now();
      wrote = respond_scenario(sock, req, ok, trace);
      // The stream interleaves compute and emission; the handler
      // accumulated the emission share, the rest is execution.
      trace.exec_ms = std::max(0.0, ms_since(t) - trace.emit_ms);
      hist = m_.scenario_ms;
      break;
    }
    default:
      // Inline types are never admitted.
      WSN_ASSERT(false);
  }
  const double elapsed = ms_since(start);
  if (m_.request_ms != nullptr) m_.request_ms->observe(elapsed);
  if (hist != nullptr) hist->observe(elapsed);
  ok ? bump(served_, m_.served) : bump(errors_, m_.errors);
  record_request(req, admitted, queue_ms, trace,
                 ok ? JournalOutcome::kOk : JournalOutcome::kError, 0);
  return wrote;
}

void MeshbcastService::record_request(const RpcRequest& req,
                                      const Admitted& admitted,
                                      double queue_ms, const StageTrace& trace,
                                      JournalOutcome outcome,
                                      std::uint8_t flags) {
  const double total_ms =
      admitted.admission_ms + queue_ms + trace.exec_ms + trace.emit_ms;
  if (config_.journal != nullptr) {
    // Lifetime gauges refresh lazily: the metrics scrape and health paths
    // pull them, so the per-request cost stays one buffered append.
    JournalRecord record;
    record.seq = req.seq;
    record.client_id = req.id;
    record.ts_micros = admitted.ts_micros;
    record.fp_hi = trace.fp_hi;
    record.fp_lo = trace.fp_lo;
    record.admission_ms = admitted.admission_ms;
    record.queue_ms = queue_ms;
    record.exec_ms = trace.exec_ms;
    record.emit_ms = trace.emit_ms;
    record.total_ms = total_ms;
    record.method = journal_method_for(req.type);
    record.outcome = outcome;
    record.flags = static_cast<std::uint8_t>(
        flags | (req.has_id ? kJournalHasClientId : 0));
    config_.journal->append(record);
  }
  if (slo_) slo_->record(total_ms, outcome);
}

void MeshbcastService::update_lifetime_gauges() {
  if (config_.journal == nullptr || m_.lifetime_requests == nullptr) return;
  const JournalLifetime life = config_.journal->lifetime();
  m_.lifetime_requests->set(static_cast<double>(life.records));
  m_.lifetime_served->set(static_cast<double>(life.served));
  m_.lifetime_errors->set(static_cast<double>(life.errors));
  m_.lifetime_sheds->set(static_cast<double>(life.sheds));
}

const MeshbcastService::TopoEntry* MeshbcastService::topology_for(
    const PlanRpc& plan, std::string& error) {
  int m = plan.m, n = plan.n, l = plan.l;
  if (m == 0) {  // paper default size for the family
    if (plan.family == "3D-6") {
      m = 8;
      n = 8;
      l = 8;
    } else {
      m = 32;
      n = 16;
      l = 1;
    }
  }
  const std::size_t nodes = static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(l);
  if (nodes == 0 || nodes > config_.max_nodes) {
    error = "topology size " + std::to_string(nodes) +
            " exceeds max_nodes (" + std::to_string(config_.max_nodes) + ")";
    return nullptr;
  }
  std::ostringstream key;
  key << plan.family << ':' << m << 'x' << n << 'x' << l << '@'
      << json_number(plan.spacing);
  const std::lock_guard<std::mutex> lock(topologies_mutex_);
  std::unique_ptr<TopoEntry>& slot = topologies_[key.str()];
  if (!slot) {
    auto entry = std::make_unique<TopoEntry>();
    entry->topo = make_mesh(plan.family, m, n, l, plan.spacing);
    entry->digest = digest_topology(*entry->topo);
    slot = std::move(entry);
  }
  return slot.get();
}

std::string MeshbcastService::respond_plan(const RpcRequest& req, bool& ok,
                                           StageTrace& trace) {
  const PlanRpc& plan = req.plan;
  if (!is_regular_family(plan.family)) {
    ok = false;
    return rpc_error_json(req, rpc_code::kBadRequest,
                          "unknown family: " + plan.family);
  }
  std::string topo_error;
  const TopoEntry* entry = topology_for(plan, topo_error);
  if (entry == nullptr) {
    ok = false;
    return rpc_error_json(req, rpc_code::kBadRequest, topo_error);
  }
  const Topology& topo = *entry->topo;
  if (plan.source >= topo.num_nodes()) {
    ok = false;
    return rpc_error_json(
        req, rpc_code::kBadRequest,
        "source " + std::to_string(plan.source) + " out of range (" +
            std::to_string(topo.num_nodes()) + " nodes)");
  }
  const NodeId source = static_cast<NodeId>(plan.source);
  SimOptions options;
  options.packet_bits = plan.packet_bits;
  const PlanFingerprint fingerprint =
      fingerprint_plan_request(entry->digest, source, plan.protocol, options);
  trace.fp_hi = fingerprint.key.hi;
  trace.fp_lo = fingerprint.key.lo;
  const auto compile = [&](ResolveReport& report) {
    return plan.protocol == "paper"
               ? paper_plan(topo, source, options, &report)
               : CdsBroadcast{}.plan(topo, source);
  };
  std::string origin_text;
  std::size_t planned_tx = 0, repairs = 0, unrepaired = 0;
  if (config_.store != nullptr) {
    // Single-flight per fingerprint: the store itself lets concurrent
    // compiles race (harmless in a batch run, wasteful in a service).
    // Holding the keyed lock across fetch_or_compile means one compile
    // per key; the blocked requesters then hit the memory tier.
    const KeyedMutex::Guard flight = flights_.lock(fingerprint.hex());
    PlanStore::Origin origin = PlanStore::Origin::kCompiled;
    const std::shared_ptr<const StoredPlan> stored =
        config_.store->fetch_or_compile(topo, source, plan.protocol, options,
                                        compile, &origin);
    origin_text = std::string(to_string(origin));
    planned_tx = stored->plan.total_offsets();
    repairs = stored->report.repairs;
    unrepaired = stored->report.unrepaired;
  } else {
    ResolveReport report;
    const RelayPlan compiled = compile(report);
    origin_text = "uncached";
    planned_tx = compiled.planned_tx();
    repairs = report.repairs;
    unrepaired = report.unrepaired;
  }
  JsonWriter w = rpc_response_begin(req);
  w.member("family", plan.family)
      .member("protocol", plan.protocol)
      .member("nodes", static_cast<std::uint64_t>(topo.num_nodes()))
      .member("source", static_cast<std::uint64_t>(source))
      .member("origin", origin_text)
      .member("fingerprint", fingerprint.hex())
      .member("planned_tx", static_cast<std::uint64_t>(planned_tx))
      .member("repairs", static_cast<std::uint64_t>(repairs))
      .member("unrepaired", static_cast<std::uint64_t>(unrepaired))
      .end_object();
  return std::move(w).str();
}

std::string MeshbcastService::expand_spec(const RpcRequest& req,
                                          const JsonValue& doc,
                                          JobMatrix& matrix,
                                          StageTrace& trace) {
  ScenarioSpec spec;
  std::string error;
  if (!parse_scenario_spec(doc, spec, error) ||
      !expand_jobs(std::move(spec), matrix, error)) {
    return rpc_error_json(req, rpc_code::kInvalidSpec, error);
  }
  trace.fp_lo = matrix.fingerprint;
  for (const std::unique_ptr<Topology>& topo : matrix.topologies) {
    if (topo->num_nodes() > config_.max_nodes) {
      return rpc_error_json(req, rpc_code::kBadRequest,
                            "topology exceeds max_nodes");
    }
  }
  return {};
}

std::string MeshbcastService::respond_simulate(const RpcRequest& req,
                                               bool& ok, StageTrace& trace) {
  JobMatrix matrix;
  std::string refusal = expand_spec(req, req.simulate.spec_doc, matrix, trace);
  if (refusal.empty() && matrix.jobs.size() != 1) {
    refusal = rpc_error_json(
        req, rpc_code::kBadRequest,
        "simulate expands to " + std::to_string(matrix.jobs.size()) +
            " jobs; use a scenario request for matrices");
  }
  if (!refusal.empty()) {
    ok = false;
    return refusal;
  }
  // Borrow a simulator: at most `workers` run at once, so the idle list
  // never grows past that.
  std::unique_ptr<Simulator> sim;
  {
    const std::lock_guard<std::mutex> lock(simulators_mutex_);
    if (!idle_simulators_.empty()) {
      sim = std::move(idle_simulators_.back());
      idle_simulators_.pop_back();
    }
  }
  if (!sim) sim = std::make_unique<Simulator>();
  const std::string record = run_scenario_job(
      matrix, matrix.jobs[0], *sim, config_.store, req.simulate.audit);
  {
    const std::lock_guard<std::mutex> lock(simulators_mutex_);
    idle_simulators_.push_back(std::move(sim));
  }
  JsonWriter w = rpc_response_begin(req);
  w.key("record").raw(record).end_object();
  return std::move(w).str();
}

bool MeshbcastService::respond_scenario(Socket& sock, const RpcRequest& req,
                                        bool& ok, StageTrace& trace) {
  JobMatrix matrix;
  const std::string refusal =
      expand_spec(req, req.scenario.spec_doc, matrix, trace);
  if (!refusal.empty()) {
    ok = false;
    return write_frame(sock, refusal);
  }
  EngineConfig engine_config;
  const std::size_t requested =
      req.scenario.workers == 0 ? 1 : req.scenario.workers;
  engine_config.workers =
      std::min<std::size_t>(requested, config_.scenario_workers_cap);
  engine_config.store = config_.store;
  engine_config.metrics = config_.metrics;
  engine_config.audit = req.scenario.audit;
  // The service drain doubles as the engine's cancel signal: an
  // in-flight stream ends in a `cancelled` done frame instead of
  // holding the drain hostage.
  engine_config.cancel = &draining_;
  std::atomic<bool> write_failed{false};
  // Emission time accumulates across the stream's frames (records are
  // emitted by the engine's collector, not this thread), in integer
  // nanoseconds so the adds stay atomic.
  std::atomic<std::uint64_t> emit_ns{0};
  const auto timed_write = [&](const std::string& payload) {
    const auto t = std::chrono::steady_clock::now();
    const bool wrote = write_frame(sock, payload);
    emit_ns.fetch_add(static_cast<std::uint64_t>(ms_since(t) * 1e6),
                      std::memory_order_relaxed);
    return wrote;
  };
  ScenarioEngine* engine_ptr = nullptr;
  engine_config.on_record = [&](std::size_t, const std::string& line) {
    if (write_failed.load(std::memory_order_relaxed)) return;
    if (!timed_write(line)) {
      // Client gone mid-stream: stop simulating for nobody.
      write_failed.store(true, std::memory_order_relaxed);
      if (engine_ptr != nullptr) engine_ptr->request_cancel();
    }
  };
  ScenarioEngine engine(matrix, engine_config);
  engine_ptr = &engine;
  JsonWriter begin = rpc_response_begin(req, "scenario.begin");
  begin.member("name", matrix.spec.name)
      .member("jobs", static_cast<std::uint64_t>(matrix.jobs.size()))
      .key("header")
      .raw(engine.header_line())
      .end_object();
  if (!timed_write(std::move(begin).str())) {
    ok = false;
    return false;
  }
  const RunSummary summary = engine.run("");  // stream-only: no file
  ok = summary.ok && !write_failed.load(std::memory_order_relaxed);
  JsonWriter done;
  done.begin_object().member("type", "scenario.done");
  if (req.has_id) done.member("id", req.id);
  if (req.seq != 0) done.member("req", req.seq);
  done.member("ok", summary.ok)
      .member("cancelled", summary.cancelled)
      .member("jobs_total", static_cast<std::uint64_t>(summary.jobs_total))
      .member("emitted", static_cast<std::uint64_t>(summary.emitted))
      .member("errors", static_cast<std::uint64_t>(summary.errors));
  if (!summary.ok) done.member("error", summary.error);
  done.end_object();
  const bool wrote = timed_write(std::move(done).str());
  trace.emit_ms =
      static_cast<double>(emit_ns.load(std::memory_order_relaxed)) / 1e6;
  return wrote && !write_failed.load(std::memory_order_relaxed);
}

std::string MeshbcastService::health_json(const RpcRequest& req) {
  JsonWriter w = rpc_response_begin(req);
  const Counters c = counters();
  const HeartbeatRecord load = sample_heartbeat();
  w.member("status", draining_.load(std::memory_order_acquire)
                         ? "draining"
                         : (shutdown_requested() ? "drain_pending"
                                                 : "serving"))
      .member("uptime_ms", ms_since(started_at_))
      .member("workers", static_cast<std::uint64_t>(worker_count_))
      .member("workers_busy", std::uint64_t{load.workers_busy})
      .member("queue_depth", std::uint64_t{load.queue_depth})
      .member("queue_capacity", std::uint64_t{queue_capacity_})
      .member("connections", static_cast<std::uint64_t>(connections_open_.load(
                                 std::memory_order_relaxed)))
      .member("requests", c.requests)
      .member("served", c.served)
      .member("errors", c.errors)
      .member("sheds", c.sheds)
      .member("bad_frames", c.bad_frames);
  if (config_.journal != nullptr) {
    // Journal-backed lifetime view: the replayed prefix plus this
    // process -- what the daemon has served across restarts.
    const JournalLifetime life = config_.journal->lifetime();
    w.member("lifetime_requests", life.records)
        .member("lifetime_served", life.served)
        .member("lifetime_errors", life.errors)
        .member("lifetime_sheds", life.sheds);
  }
  w.end_object();
  return std::move(w).str();
}

std::string MeshbcastService::metrics_json(const RpcRequest& req) {
  // A scrape must never be staler than the last request: force the SLO
  // fold past its throttle and refresh the lifetime gauges.
  if (slo_) slo_->refresh(true);
  update_lifetime_gauges();
  if (m_.workers_busy != nullptr) {
    const HeartbeatRecord load = sample_heartbeat();
    m_.workers_busy->set(static_cast<double>(load.workers_busy));
    m_.queue_depth->set(static_cast<double>(load.queue_depth));
  }
  JsonWriter w = rpc_response_begin(req);
  if (config_.metrics != nullptr) {
    std::ostringstream doc;
    write_metrics_json(doc, config_.metrics->scrape());
    w.key("metrics").raw(doc.str());
  } else {
    w.key("metrics").null();
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace wsn
