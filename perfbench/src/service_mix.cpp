// service-mix: MeshbcastService in-process on loopback TCP with 2
// executor workers, driven by 2 closed-loop RpcClient connections (one
// request in flight per connection, as meshbcastd's callers do).  Each
// client walks its own seeded sequence of `plan` requests over a hot set
// of paper-size 2D-4 and 2D-8 sources whose plans are compiled into the
// store during set-up, so no request compiles.  (`simulate` requests are
// left out: each runs a scenario job that zeroes a 24 MB event ring, which
// made every metric of the mix follow the host's free memory bandwidth;
// see README.md.)

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common/json.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "protocol/registry.h"
#include "service/client.h"
#include "service/rpc.h"
#include "service/server.h"
#include "stats.h"
#include "store/fingerprint.h"
#include "store/plan_store.h"
#include "topology/factory.h"
#include "trace.h"
#include "workload.h"

namespace meshbench {

namespace {

constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kHotPerFamily = 32;
constexpr std::size_t kWarmupRequests = 20000;  // per client, about a second
constexpr std::size_t kTracedRequests = 2000;  // per client
/// The measured window runs as back-to-back passes of this length over
/// the same hot set; the rate is read from the best pass (see measure).
constexpr double kPassSeconds = 2.0;

/// One hot (family, source) pair and what the service must answer for it.
struct Target {
  std::string family;
  std::uint64_t source = 0;
  std::string plan_body;    // request members after "id"
  std::string plan_suffix;  // expected reply after the envelope
};

/// A response envelope's rendering, `{"type":"response","id":..,"req":..
/// ,"ok":true`, exactly as the service opens it.
std::string envelope(std::uint64_t id, std::uint64_t req) {
  wsn::RpcRequest echo;
  echo.has_id = true;
  echo.id = id;
  echo.seq = req;
  return rpc_response_begin(echo).str();
}

/// The part of a finished reply after its envelope.
std::string suffix_of(wsn::JsonWriter&& w) {
  const std::string full = std::move(w).str();
  return full.substr(envelope(0, 1).size());
}

/// `source`'s paper plan through `store`, compiled on a miss.
std::shared_ptr<const wsn::StoredPlan> paper_plan_via(wsn::PlanStore& store,
                                                      const wsn::Topology& topo,
                                                      wsn::NodeId source) {
  const wsn::SimOptions options;
  return store.fetch_or_compile(topo, source, "paper", options,
                                [&](wsn::ResolveReport& report) {
                                  return wsn::paper_plan(topo, source, options,
                                                         &report);
                                });
}

/// One request's outcome as the client saw it.
struct Sample {
  double ms = 0.0;
  std::uint64_t req = 0;
};

struct ClientTally {
  Ledger ledger;
  std::vector<Sample> samples;  // successful requests only
};

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Options& options) : options_(options) {}

  ~ServiceMix() override {
    for (wsn::RpcClient& client : clients_) client.close();
    if (service_) service_->shutdown();
  }

  void setup() override {
    wsn::Xoshiro256 rng(derive_seed(options_.seed, 0));
    for (const char* family : {"2D-4", "2D-8"}) {
      std::vector<std::uint64_t> sources(512);
      for (std::uint64_t i = 0; i < sources.size(); ++i) sources[i] = i;
      // Seeded partial shuffle: the first kHotPerFamily are the hot set.
      for (std::size_t i = 0; i < kHotPerFamily; ++i) {
        std::swap(sources[i], sources[i + rng.below(sources.size() - i)]);
      }
      for (std::size_t i = 0; i < kHotPerFamily; ++i) {
        Target t;
        t.family = family;
        t.source = sources[i];
        const std::string src = std::to_string(t.source);
        t.plan_body = ",\"family\":\"" + t.family + "\",\"source\":" + src +
                      ",\"protocol\":\"paper\"}";
        targets_.push_back(std::move(t));
      }
    }

    store_.bind_metrics(registry_);
    wsn::ServiceConfig config;
    config.workers = kServerWorkers;
    config.store = &store_;
    config.metrics = &registry_;
    service_ = std::make_unique<wsn::MeshbcastService>(config);
    std::string error;
    if (!service_->start(error)) throw std::runtime_error("service: " + error);
    clients_.resize(kClients);
    for (wsn::RpcClient& client : clients_) {
      if (!client.connect(service_->address(), error)) {
        throw std::runtime_error("connect: " + error);
      }
    }
    // Warm the hot set: compile every target into the service's store, and
    // send one plan request per family so the service builds its topology.
    std::unordered_map<std::string, std::unique_ptr<wsn::Topology>> topologies;
    for (const Target& t : targets_) {
      std::unique_ptr<wsn::Topology>& topo = topologies[t.family];
      if (!topo) topo = wsn::make_paper_topology(t.family);
      (void)paper_plan_via(store_, *topo, static_cast<wsn::NodeId>(t.source));
    }
    std::string response;
    for (const Target* t : {&targets_.front(), &targets_.back()}) {
      if (!clients_[0].call(request(*t, 0), response, error)) {
        throw std::runtime_error("warming plan: " + error);
      }
    }
  }

  void prepare_checks() override {
    wsn::PlanStore store;
    std::unordered_map<std::string, std::unique_ptr<wsn::Topology>> topologies;
    for (Target& t : targets_) {
      std::unique_ptr<wsn::Topology>& topo = topologies[t.family];
      if (!topo) topo = wsn::make_paper_topology(t.family);
      const auto source = static_cast<wsn::NodeId>(t.source);
      const std::shared_ptr<const wsn::StoredPlan> stored =
          paper_plan_via(store, *topo, source);
      const wsn::PlanFingerprint fingerprint = wsn::fingerprint_plan_request(
          wsn::digest_topology(*topo), source, "paper", wsn::SimOptions{});
      wsn::RpcRequest echo;
      echo.has_id = true;
      echo.seq = 1;
      wsn::JsonWriter plan = rpc_response_begin(echo);
      plan.member("family", t.family)
          .member("protocol", "paper")
          .member("nodes", static_cast<std::uint64_t>(topo->num_nodes()))
          .member("source", t.source)
          .member("origin", wsn::to_string(wsn::PlanStore::Origin::kMemory))
          .member("fingerprint", fingerprint.hex())
          .member("planned_tx",
                  static_cast<std::uint64_t>(stored->plan.total_offsets()))
          .member("repairs",
                  static_cast<std::uint64_t>(stored->report.repairs))
          .member("unrepaired",
                  static_cast<std::uint64_t>(stored->report.unrepaired))
          .end_object();
      t.plan_suffix = suffix_of(std::move(plan));
    }
  }

  void warmup(Ledger& ledger) override {
    (void)drive(0.0, kWarmupRequests, 0, ledger);
  }

  /// The pass with the highest rate of successful requests.  Every pass
  /// walks the same hot set, and load from outside the process only ever
  /// slows a pass down, so the best pass is the closest reading of the
  /// program's own cost.
  void measure(double seconds, Ledger& ledger, Result& result) override {
    double rate = 0.0;
    std::size_t passes = 0;
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < seconds || passes < 2) {
      rate = std::max(rate, drive(kPassSeconds, 0, 1 + passes, ledger).req_per_s);
      passes += 1;
    }
    result.set("ops_per_s", rate);
  }

  void trace(double seconds, Ledger& ledger, Result& result) override {
    const Drive untraced = drive(seconds / 2.0, 0, 1, ledger);
    // Client round trips of the untraced stretch, under the guard.
    for (const auto& [name, q] : {std::pair{"service.plan_p50_ms", 0.5},
                                  std::pair{"service.plan_p90_ms", 0.9}}) {
      const std::optional<Percentile> p = guarded_percentile(untraced.ms, q);
      if (!p) {
        throw std::runtime_error("too few plan samples (" +
                                 std::to_string(untraced.ms.size()) + ")");
      }
      result.set(name, *p);
    }

    const wsn::MeshbcastService::Counters before = service_->counters();
    const wsn::PlanStore::Stats store_before = store_.stats();
    const wsn::ShardedPlanCache::Stats mem_before = store_.memory().stats();
    start_tracing();
    const Drive traced = drive(0.0, kTracedRequests, 2, ledger);
    const std::vector<wsn::TimelineThreadDump> timeline = stop_tracing();
    const SpanTable pass = summarize_spans(timeline);
    result.set("bench.trace_overhead",
               untraced.req_per_s / traced.req_per_s - 1.0);
    const wsn::MeshbcastService::Counters after = service_->counters();
    const wsn::PlanStore::Stats store_after = store_.stats();
    const wsn::ShardedPlanCache::Stats mem_after = store_.memory().stats();

    result.set("service.admission_ms", span(pass, "service.admission").mean_ms());
    result.set("service.queue_wait_ms", span(pass, "service.queue_wait").mean_ms());
    result.set("service.exec_ms", span(pass, "service.plan").mean_ms());
    result.set("service.emit_ms", span(pass, "service.emit").mean_ms());
    // Client round trip minus the server's own time for the request.
    const std::unordered_map<std::uint64_t, double> server = tagged_ms(
        timeline, {"service.admission", "service.queue_wait", "service.request"});
    double overhead = 0.0;
    std::size_t matched = 0;
    for (const Sample& s : traced.samples) {
      const auto it = server.find(s.req);
      if (it == server.end()) continue;
      overhead += s.ms - it->second;
      matched += 1;
    }
    result.set("service.rpc_overhead_ms",
               matched == 0 ? 0.0 : overhead / static_cast<double>(matched));
    result.set("service.sheds", static_cast<double>(after.sheds - before.sheds));
    result.set("service.errors",
               static_cast<double>(after.errors - before.errors));
    result.set("service.workers_busy_share",
               span(pass, "service.request").total_ms /
                   (static_cast<double>(kServerWorkers) * traced.wall_s * 1e3));
    const std::uint64_t hits = mem_after.hits - mem_before.hits;
    const std::uint64_t misses = mem_after.misses - mem_before.misses;
    result.set("store.mem_hits", static_cast<double>(hits));
    result.set("store.compiles",
               static_cast<double>(store_after.compiles - store_before.compiles));
    result.set("store.hit_ratio",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses));
    result.set("store.lock_wait_ms",
               static_cast<double>(mem_after.lock_wait_ns -
                                   mem_before.lock_wait_ns) /
                   1e6);
    result.set("protocol.compiles",
               static_cast<double>(span(pass, "plan.build").count));

    replay(result);
  }

 private:
  struct Drive {
    std::vector<double> ms;  // round trips of successful requests
    double req_per_s = 0.0;
    double wall_s = 0.0;
    std::vector<Sample> samples;  // successful requests, every client
  };

  static std::string request(const Target& t, std::uint64_t id) {
    return "{\"type\":\"plan\",\"id\":" + std::to_string(id) + t.plan_body;
  }

  /// Runs every client's closed loop until `seconds` pass (or, when
  /// `seconds` is 0, for `requests` per client).  `stream` picks the
  /// seeded request sequence, so warm-up, measured and traced passes
  /// walk different orders of the same hot set.
  Drive drive(double seconds, std::size_t requests, std::uint64_t stream,
              Ledger& ledger) {
    std::vector<ClientTally> tallies(kClients);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& tally = tallies[c];
        wsn::Xoshiro256 rng(derive_seed(options_.seed, 16 * (stream + 1) + c));
        std::string response, error;
        for (std::uint64_t i = 0;; ++i) {
          if (seconds > 0.0 ? std::chrono::steady_clock::now() >= deadline
                            : i >= requests) {
            break;
          }
          const Target& t = targets_[rng.below(targets_.size())];
          const std::uint64_t id = i;
          const std::string body = request(t, id);
          tally.ledger.attempt();
          const auto sent = std::chrono::steady_clock::now();
          bool ok = false;
          {
            BenchSpan s("RpcClient::call");
            ok = clients_[c].call(body, response, error);
          }
          const auto done = std::chrono::steady_clock::now();
          const double ms =
              std::chrono::duration<double, std::milli>(done - sent).count();
          if (!ok) {
            tally.ledger.fail("transport: " + error);
            break;  // the connection is gone
          }
          const std::uint64_t req = response_req(response);
          if (response != envelope(id, req) + t.plan_suffix) {
            tally.ledger.fail("plan reply differs: " + response.substr(0, 200));
            continue;
          }
          tally.samples.push_back(Sample{ms, req});
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    Drive run;
    run.wall_s = seconds_since(start);
    std::uint64_t ok = 0;
    for (ClientTally& tally : tallies) {
      ledger.merge(std::move(tally.ledger));
      for (const Sample& s : tally.samples) run.ms.push_back(s.ms);
      ok += tally.samples.size();
      run.samples.insert(run.samples.end(), tally.samples.begin(),
                         tally.samples.end());
    }
    run.req_per_s = static_cast<double>(ok) / run.wall_s;
    return run;
  }

  /// Single-threaded replay of the layers behind the service's answers.
  void replay(Result& result) {
    start_tracing();
    std::unordered_map<std::string, std::unique_ptr<wsn::Topology>> topologies;
    for (const char* family : {"2D-4", "2D-8"}) {
      BenchSpan s("make_paper_topology");
      topologies[family] = wsn::make_paper_topology(family);
    }
    wsn::PlanStore store;
    const wsn::SimOptions options;
    std::uint64_t repairs = 0;
    for (int round = 0; round < 2; ++round) {  // cold, then warm
      for (const Target& t : targets_) {
        const wsn::Topology& topo = *topologies[t.family];
        const auto source = static_cast<wsn::NodeId>(t.source);
        BenchSpan s(round == 0 ? "cold fetch" : "PlanStore::fetch_or_compile");
        const std::shared_ptr<const wsn::StoredPlan> stored =
            store.fetch_or_compile(
                topo, source, "paper", options, [&](wsn::ResolveReport& report) {
                  BenchSpan c("paper_plan");
                  return wsn::paper_plan(topo, source, options, &report);
                });
        if (round == 0) repairs += stored->report.repairs;
      }
    }
    const SpanTable spans = summarize_spans(stop_tracing());
    result.set("topology.build_ms", span(spans, "make_paper_topology").mean_ms());
    result.set("protocol.compile_ms", span(spans, "paper_plan").mean_ms());
    result.set("protocol.repairs", static_cast<double>(repairs));
    result.set("store.fetch_ms",
               span(spans, "PlanStore::fetch_or_compile").mean_self_ms());
  }

  Options options_;
  std::vector<Target> targets_;
  wsn::MetricsRegistry registry_;
  wsn::PlanStore store_;
  std::unique_ptr<wsn::MeshbcastService> service_;
  std::vector<wsn::RpcClient> clients_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const Options& options) {
  return std::make_unique<ServiceMix>(options);
}

}  // namespace meshbench
