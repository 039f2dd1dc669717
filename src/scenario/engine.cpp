#include "scenario/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/bounded_queue.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/random.h"
#include "fault/adaptive.h"
#include "fault/link_estimator.h"
#include "fault/models.h"
#include "fault/recovery.h"
#include "obs/audit/auditor.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/timeline.h"
#include "protocol/cds_broadcast.h"
#include "protocol/etr.h"
#include "protocol/etx_planner.h"
#include "protocol/flooding.h"
#include "protocol/gossip.h"
#include "protocol/ideal_model.h"
#include "protocol/registry.h"
#include "sim/simulator.h"

namespace wsn {

namespace {

constexpr std::string_view kResultsSchema = "meshbcast.scenario.results";
constexpr std::string_view kManifestSchema = "meshbcast.scenario.checkpoint";
constexpr int kSchemaVersion = 1;

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

/// All doubles in records use shortest-round-trip %.17g: exact (the value
/// survives a parse bit-for-bit) and -- critically -- byte-stable, which
/// the cross-worker-count identity guarantee rides on.
std::string format_record_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Stateless splitmix64 mix of (seed, salt): each job's trial seed and
/// each fault model's sub-seed are pure functions of the spec, never of
/// scheduling.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (salt + 1));
  return splitmix64(state);
}

/// Salt of an etx job's probe stream, kept apart from the run channel's
/// salts so the estimator samples the channel's statistics, never the
/// exact counter-mode draws the simulation replays (no clairvoyant plans).
constexpr std::uint64_t kProbeSalt = 0xe57ull;
/// The estimator and planner settings of every etx job; both are part of
/// the plan's store key.
constexpr LinkEstimatorConfig kEtxEstimator{};
constexpr EtxRelayPlanner::Config kEtxPlanner{};

/// The plan store's protocol id for a compiled (paper/cds/etx) job.
/// "paper" and "cds" depend on nothing beyond the topology and source.
/// An etx plan also depends on the channel it learned, so its id names
/// every input of the estimate -- fault kind, loss and burst as exact
/// hex-float bits, the probe seed and the estimator config -- plus the
/// planner config.  Crash fields stay out: the estimator never sees them,
/// so a crash variant shares the entry of its loss-only sibling.  A
/// perfect channel learns nothing and keys as `etx;fault=none`.
std::string plan_store_id(const ScenarioJob& job, std::uint64_t trial_seed) {
  if (job.protocol != "etx") return job.protocol;
  char planner[128];
  std::snprintf(planner, sizeof planner, ";plan=%a/%a/%a/%u",
                kEtxPlanner.target_delivery, kEtxPlanner.min_gain,
                kEtxPlanner.min_delivery, kEtxPlanner.stagger_window);
  if (job.fault.kind == ScenarioFault::Kind::kNone) {
    return std::string("etx;fault=none") + planner;
  }
  char channel[256];
  std::snprintf(
      channel, sizeof channel, "etx;fault=%s:%a:%a;probe=%016llx;est=%zu/%u/%a",
      job.fault.kind == ScenarioFault::Kind::kIid ? "iid" : "gilbert",
      job.fault.loss, job.fault.burst,
      static_cast<unsigned long long>(mix_seed(trial_seed, kProbeSalt)),
      kEtxEstimator.probe_rounds, kEtxEstimator.slot_stride,
      kEtxEstimator.min_delivery);
  return std::string(channel) + planner;
}

/// Compiles a paper, cds or etx plan.  The result is a pure function of
/// the topology, the source and `plan_store_id`, which is what lets the
/// plan store share it.  An etx job on a lossy channel first learns the
/// link quality into `quality` from its own probe stream.
RelayPlan compile_plan(const Topology& topo, const ScenarioJob& job,
                       std::uint64_t trial_seed, const SimOptions& options,
                       ResolveReport& report, std::vector<double>& quality) {
  if (job.protocol == "paper") {
    return paper_plan(topo, job.source, options, &report);
  }
  if (job.protocol == "cds") return CdsBroadcast{}.plan(topo, job.source);
  WSN_ASSERT(job.protocol == "etx");
  const std::uint64_t probe_seed = mix_seed(trial_seed, kProbeSalt);
  if (job.fault.kind == ScenarioFault::Kind::kIid) {
    IidLossModel probe(job.fault.loss, probe_seed);
    quality = estimate_link_quality(topo, probe, kEtxEstimator);
  } else if (job.fault.kind == ScenarioFault::Kind::kGilbert) {
    GilbertElliottModel probe = GilbertElliottModel::from_mean_loss(
        job.fault.loss, job.fault.burst, probe_seed);
    quality = estimate_link_quality(topo, probe, kEtxEstimator);
  }
  return etx_plan(topo, job.source, quality, options, &report, kEtxPlanner);
}

/// The per-job fold the envelopes accumulate -- small enough to rebuild
/// from a parsed record line on resume, which is what keeps a resumed
/// run's summary identical to an uninterrupted one's.
struct RecordFold {
  std::string scenario;
  bool ok = false;
  NodeId source = kInvalidNode;
  Joules energy = 0.0;
  std::size_t tx = 0;
  std::size_t rx = 0;
  Slot delay = 0;
  bool reached_all = false;
  bool has_etr = false;
  double etr_share = 0.0;
};

void fold_into(ScenarioEnvelope& env, const RecordFold& fold) {
  env.jobs += 1;
  if (!fold.ok) {
    env.errors += 1;
    return;
  }
  env.energy_sum += fold.energy;
  // Strict comparisons keep the first (lowest job index) holder on energy
  // ties; folding happens in emission order, so the winner is stable.
  if (env.best_source == kInvalidNode || fold.energy < env.best_energy) {
    env.best_energy = fold.energy;
    env.best_source = fold.source;
    env.best_tx = fold.tx;
    env.best_rx = fold.rx;
  }
  if (env.worst_source == kInvalidNode || fold.energy > env.worst_energy) {
    env.worst_energy = fold.energy;
    env.worst_source = fold.source;
    env.worst_tx = fold.tx;
    env.worst_rx = fold.rx;
  }
  env.max_delay = std::max(env.max_delay, fold.delay);
  env.all_reached = env.all_reached && fold.reached_all;
  if (fold.has_etr) {
    env.etr_share_sum += fold.etr_share;
    env.etr_jobs += 1;
  }
}

/// Rebuilds a RecordFold from an already-emitted record line (resume
/// path).  Returns false on anything that does not look like one of our
/// records for job `expect_index` -- the caller treats that as the end of
/// the valid prefix.
bool parse_record_line(const std::string& line, std::size_t expect_index,
                       RecordFold& fold) {
  JsonValue doc;
  if (!parse_json(line, doc) || !doc.is_object()) return false;
  const JsonValue* job = doc.find("job");
  std::uint64_t index = 0;
  if (job == nullptr || !job->to_u64(index) || index != expect_index) {
    return false;
  }
  const JsonValue* scenario = doc.find("scenario");
  const JsonValue* status = doc.find("status");
  if (scenario == nullptr || !scenario->is_string() || status == nullptr ||
      !status->is_string()) {
    return false;
  }
  fold = RecordFold{};
  fold.scenario = scenario->as_string();
  if (status->as_string() == "error") return true;
  if (status->as_string() != "ok") return false;
  fold.ok = true;
  fold.source = static_cast<NodeId>(doc.number_or("source", 0));
  fold.energy = doc.number_or("energy", 0.0);
  fold.tx = static_cast<std::size_t>(doc.number_or("tx", 0));
  fold.rx = static_cast<std::size_t>(doc.number_or("rx", 0));
  fold.delay = static_cast<Slot>(doc.number_or("delay", 0));
  fold.reached_all =
      doc.number_or("reached", 0) == doc.number_or("nodes", -1);
  if (const JsonValue* share = doc.find("etr_share")) {
    fold.has_etr = true;
    fold.etr_share = share->as_number();
  }
  return true;
}

struct ExecResult {
  std::string line;  // the record, no trailing newline
  RecordFold fold;
};

/// Runs one job to its record.  Pure in the job (given the shared,
/// deterministic plan store): no clocks, no worker identity, no queue
/// state ever reaches the record text.  With `audit` set, the simulated
/// run is observed into a per-job event sink and audited in-stream; the
/// verdict is deterministic too, so the byte-identity guarantee holds at
/// any worker count as long as both runs use the same flag.
ExecResult execute_job(const JobMatrix& matrix, const ScenarioJob& job,
                       Simulator& sim, PlanStore* store, bool audit,
                       std::atomic<const char*>* stage = nullptr) {
  const ScenarioEntry& entry = *job.entry;
  ExecResult result;
  result.fold.scenario = entry.name;
  // Stage breadcrumbs for the watchdog: which phase a timed-out job was in.
  const auto enter = [stage](const char* phase) {
    if (stage != nullptr) stage->store(phase, std::memory_order_release);
  };

  std::ostringstream line;
  line << "{\"job\":" << job.index << ",\"scenario\":\""
       << json_escape(entry.name) << "\"";

  if (!job.error.empty()) {
    line << ",\"status\":\"error\",\"error\":\"" << json_escape(job.error)
         << "\"}";
    result.line = line.str();
    return result;
  }

  const Topology& topo = matrix.topology_of(job);
  const std::uint64_t trial_seed = mix_seed(job.seed, job.rep);

  // Plan-construction options: fault-free and observer-free on purpose --
  // plans are compiled for the ideal medium (the resilience harness's
  // convention) and the fault model only bites at simulation time.  This
  // also keeps the request plan-store-eligible.
  SimOptions plan_options;
  plan_options.packet_bits = entry.packet_bits;

  ResolveReport plan_report;  // the compiled plan's resolver account
  std::size_t planned_tx = 0;  // base plan's scheduled Tx, post-recovery
  bool arq_ran = false;
  AdaptiveArqReport arq_report;

  BroadcastOutcome outcome;
  EtrSummary etr;
  bool have_etr = false;
  bool have_audit = false;
  std::size_t audit_checks = 0;
  std::size_t audit_violations = 0;
  std::string audit_failed;

  if (job.protocol == "ideal") {
    // Analytic comparator (Table 2): no simulation, no faults, no delay.
    const IdealCase ideal =
        ideal_case(entry.family, entry.m, entry.n, entry.l, entry.spacing,
                   entry.packet_bits);
    outcome.stats.num_nodes = topo.num_nodes();
    outcome.stats.reached = topo.num_nodes();
    outcome.stats.tx = ideal.tx;
    outcome.stats.rx = ideal.rx;
    outcome.stats.tx_energy = ideal.power;
    outcome.stats.rx_energy = 0.0;
    if (entry.outputs.etr) {
      // By construction every ideal transmission is at the optimum.
      etr.transmissions = ideal.tx;
      etr.mean = optimal_etr(entry.family).value();
      etr.max = etr.mean;
      etr.at_optimum = ideal.tx;
      have_etr = true;
    }
  } else {
    // --- plan ---------------------------------------------------------
    enter("plan");
    // A plan built or rewritten here lives in `plan`; a stored plan that
    // no policy rewrites runs as served, straight off the store.
    RelayPlan plan;
    std::shared_ptr<const StoredPlan> stored;
    std::vector<double> learned;       // store-less etx: the estimate
    std::span<const double> quality;   // etx: the learned CSR span
    if (job.protocol == "flooding") {
      plan = Flooding(entry.jitter, trial_seed).plan(topo, job.source);
    } else if (job.protocol == "gossip") {
      plan = Gossip(entry.gossip_p, entry.jitter, trial_seed)
                 .plan(topo, job.source);
    } else {
      const auto compile = [&](ResolveReport& fresh_report,
                               std::vector<double>& fresh_quality) {
        return compile_plan(topo, job, trial_seed, plan_options,
                            fresh_report, fresh_quality);
      };
      if (store != nullptr) {
        stored = store->fetch_or_compile(topo, job.source,
                                         plan_store_id(job, trial_seed),
                                         plan_options, compile);
        plan_report = stored->report;
        quality = stored->quality;
      } else {
        plan = compile(plan_report, learned);
        quality = learned;
      }
    }
    // Adaptive recovery does not rewrite the plan -- it reacts at run
    // time (fault/adaptive.h), so only the static policies rewrite here.
    const bool rewrites = job.recovery != RecoveryPolicy::kNone &&
                          job.recovery != RecoveryPolicy::kAdaptive;
    if (rewrites) {
      plan = apply_recovery(
          topo, stored != nullptr ? stored->plan : std::move(plan),
          job.recovery, entry.repeat_k);
    }
    const RelayPlan& run_plan =
        stored != nullptr && !rewrites ? stored->plan : plan;
    planned_tx = run_plan.planned_tx();

    // --- faults -------------------------------------------------------
    // One model instance per job (they are stateful); sub-seeds are
    // derived with distinct salts so loss and crash draws never alias.
    std::vector<std::unique_ptr<FaultModel>> owned;
    if (job.fault.kind == ScenarioFault::Kind::kIid) {
      owned.push_back(std::make_unique<IidLossModel>(
          job.fault.loss, mix_seed(trial_seed, 0x10551ull)));
    } else if (job.fault.kind == ScenarioFault::Kind::kGilbert) {
      owned.push_back(
          std::make_unique<GilbertElliottModel>(GilbertElliottModel::from_mean_loss(
              job.fault.loss, job.fault.burst,
              mix_seed(trial_seed, 0x91b3ull))));
    }
    if (job.fault.crash_prob > 0.0) {
      owned.push_back(std::make_unique<CrashScheduleModel>(
          CrashScheduleModel::sample(topo.num_nodes(), job.fault.crash_prob,
                                     job.fault.crash_horizon,
                                     job.fault.crash_outage,
                                     mix_seed(trial_seed, 0xc4a5ull))));
    }
    std::vector<FaultModel*> parts;
    parts.reserve(owned.size());
    for (auto& model : owned) parts.push_back(model.get());
    std::unique_ptr<CompositeFaultModel> composite;
    FaultModel* faults = nullptr;
    if (parts.size() == 1) {
      faults = parts.front();
    } else if (parts.size() > 1) {
      composite = std::make_unique<CompositeFaultModel>(parts);
      faults = composite.get();
    }

    // --- simulate -----------------------------------------------------
    enter("simulate");
    SimOptions run_options = plan_options;
    run_options.faults = faults;
    if (entry.deadline_slots > 0) run_options.max_slots = entry.deadline_slots;
    EventSink sink;
    Observer observer(&sink);
    const bool tracing = !entry.outputs.trace_dir.empty();
    if (tracing || audit) run_options.observer = &observer;

    if (job.recovery == RecoveryPolicy::kAdaptive) {
      // NACK/backoff ARQ: probe rounds grow the plan, the final replay
      // runs under the caller's observer so traces and audits see the
      // augmented timeline.  Quality (when the etx protocol learned it)
      // steers helper choice.
      AdaptiveArqConfig arq_config;
      arq_config.retry_budget = entry.arq_budget;
      arq_config.max_rounds = entry.arq_rounds;
      outcome = run_adaptive_arq(topo, run_plan, run_options, arq_config,
                                 &arq_report, quality);
      arq_ran = true;
    } else {
      outcome = sim.run(topo, run_plan, run_options);
    }

    if (audit) {
      enter("audit");
      AuditConfig audit_config;
      audit_config.packet_bits = entry.packet_bits;
      audit_config.source = job.source;
      audit_config.stats = &outcome.stats;
      // Coverage loss under injected faults is the measurement, not a
      // defect; under the perfect medium it is a violation.
      audit_config.expect_full_coverage = faults == nullptr;
      // Lossy-mode checks (9-11).  The delivery-ratio check only makes
      // sense for a pure link model: composed crashes skew the attempt
      // accounting, so it stays off for those jobs.
      if (job.fault.kind != ScenarioFault::Kind::kNone &&
          job.fault.crash_prob == 0.0) {
        audit_config.mean_link_delivery = 1.0 - job.fault.loss;
        audit_config.delivery_burst =
            job.fault.kind == ScenarioFault::Kind::kGilbert ? job.fault.burst
                                                            : 1.0;
      }
      audit_config.planned_tx = planned_tx;
      if (arq_ran) {
        audit_config.arq = true;
        audit_config.retries = arq_report.retries;
        audit_config.retry_budget = entry.arq_budget;
        audit_config.budget_exhausted = arq_report.budget_exhausted;
        audit_config.arq_rounds = arq_report.rounds;
        audit_config.arq_max_rounds = entry.arq_rounds;
      }
      const AuditReport report = audit_sink(topo, sink, audit_config);
      have_audit = true;
      audit_checks = report.checks_run;
      audit_violations = report.violations.size();
      // Failed check names, deduped in enum order -- a stable, compact
      // rendition for the record.
      for (std::size_t c = 0; c < kAuditCheckCount; ++c) {
        const auto check = static_cast<AuditCheck>(c);
        if (!report.violated(check)) continue;
        if (!audit_failed.empty()) audit_failed += ",";
        audit_failed += to_string(check);
      }
    }
    if (tracing) {
      std::error_code ec;  // best-effort: a failed trace never fails a job
      std::filesystem::create_directories(entry.outputs.trace_dir, ec);
      const std::filesystem::path path =
          std::filesystem::path(entry.outputs.trace_dir) /
          ("job_" + std::to_string(job.index) + ".jsonl");
      std::ofstream trace(path, std::ios::trunc);
      if (trace) write_events_jsonl(trace, sink);
    }
    if (entry.outputs.etr) {
      etr = summarize_etr(topo, outcome,
                          static_cast<std::size_t>(
                              optimal_etr(entry.family).fresh),
                          job.source);
      have_etr = true;
    }
  }

  // --- record ---------------------------------------------------------
  const BroadcastStats& stats = outcome.stats;
  line << ",\"family\":\"" << json_escape(entry.family) << "\",\"dims\":["
       << entry.m << "," << entry.n << "," << entry.l << "]"
       << ",\"source\":" << job.source << ",\"protocol\":\"" << job.protocol
       << "\",\"recovery\":\"" << to_string(job.recovery) << "\",\"fault\":\""
       << json_escape(job.fault.label()) << "\",\"seed\":" << job.seed
       << ",\"rep\":" << job.rep << ",\"status\":\"ok\""
       << ",\"nodes\":" << stats.num_nodes << ",\"reached\":" << stats.reached
       << ",\"tx\":" << stats.tx << ",\"rx\":" << stats.rx
       << ",\"dup\":" << stats.duplicates << ",\"coll\":" << stats.collisions
       << ",\"fade\":" << stats.lost_to_fading
       << ",\"crash\":" << stats.lost_to_crash << ",\"delay\":" << stats.delay
       << ",\"energy\":" << format_record_double(stats.total_energy())
       << ",\"repairs\":" << plan_report.repairs;
  if (plan_report.unrepaired > 0) {
    line << ",\"unrepaired\":" << plan_report.unrepaired;
  }
  if (arq_ran) {
    line << ",\"retries\":" << arq_report.retries
         << ",\"arq_rounds\":" << arq_report.rounds;
    if (arq_report.budget_exhausted) line << ",\"arq_exhausted\":true";
  }
  if (have_etr) {
    line << ",\"etr_mean\":" << format_record_double(etr.mean)
         << ",\"etr_share\":" << format_record_double(etr.optimal_share());
  }
  if (have_audit) {
    line << ",\"audit_checks\":" << audit_checks
         << ",\"audit_violations\":" << audit_violations;
    if (!audit_failed.empty()) {
      line << ",\"audit_failed\":\"" << json_escape(audit_failed) << "\"";
    }
  }
  line << "}";

  result.line = line.str();
  result.fold.ok = true;
  result.fold.source = job.source;
  result.fold.energy = stats.total_energy();
  result.fold.tx = stats.tx;
  result.fold.rx = stats.rx;
  result.fold.delay = stats.delay;
  result.fold.reached_all = stats.fully_reached();
  result.fold.has_etr = have_etr;
  result.fold.etr_share = have_etr ? etr.optimal_share() : 0.0;
  return result;
}

}  // namespace

/// Run-scoped shared state: queue, collector, envelope folds.
struct ScenarioEngine::Impl {
  BoundedQueue<std::pair<std::size_t,
                         std::chrono::steady_clock::time_point>>
      queue;
  std::mutex collector_mutex;
  std::map<std::size_t, ExecResult> pending;  // out-of-order completions
  std::size_t next_to_emit = 0;
  std::ofstream out;
  std::string manifest_path;
  std::string manifest_prefix;  // everything before the emitted count
  /// Guards the manifest sidecar and the count it last recorded; taken
  /// outside collector_mutex so the rewrite never stalls emission.
  std::mutex manifest_mutex;
  std::size_t manifest_emitted = 0;
  std::size_t jobs_total = 0;
  std::size_t emitted = 0;
  std::size_t errors = 0;
  std::vector<ScenarioEnvelope>* envelopes = nullptr;
  double queue_wait_ms_sum = 0.0;
  std::size_t queue_wait_samples = 0;
  Counter* completed_metric = nullptr;
  Counter* failed_metric = nullptr;
  Counter* timeout_metric = nullptr;
  Histogram* wait_metric = nullptr;
  Histogram* push_wait_metric = nullptr;
  Histogram* pop_wait_metric = nullptr;
  Histogram* emit_stall_metric = nullptr;
  Gauge* queue_depth_metric = nullptr;
  Gauge* busy_metric = nullptr;
  std::atomic<std::size_t> busy{0};
  /// Jobs already resolved into a record (normally or by the watchdog).
  /// First resolution wins: a stalled worker's late result -- or a second
  /// watchdog expiry of the same slot -- is discarded here.
  std::vector<char> resolved;

  explicit Impl(std::size_t capacity) : queue(capacity) {}
};

/// One per worker: which job the worker is executing, since when, and in
/// which stage -- everything the watchdog needs, all lock-free.  `index`
/// is stored last (release) so a watchdog that sees it also sees the
/// matching start time and stage.
struct WorkerSlot {
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> index{kIdle};
  std::atomic<std::int64_t> start_ms{0};
  std::atomic<const char*> stage{nullptr};
};

namespace {
std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ScenarioEngine::ScenarioEngine(const JobMatrix& matrix, EngineConfig config)
    : matrix_(matrix), config_(std::move(config)) {}

std::string ScenarioEngine::header_line() const {
  std::ostringstream line;
  line << "{\"schema\":\"" << kResultsSchema
       << "\",\"version\":" << kSchemaVersion << ",\"name\":\""
       << json_escape(matrix_.spec.name) << "\",\"fingerprint\":\""
       << fingerprint_hex(matrix_.fingerprint)
       << "\",\"jobs\":" << matrix_.jobs.size() << "}";
  return line.str();
}

void ScenarioEngine::request_cancel() {
  stop_.store(true, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(run_mutex_);
  if (active_ != nullptr) active_->queue.cancel();
}

RunSummary ScenarioEngine::run(const std::string& results_path) {
  RunSummary summary;
  summary.jobs_total = matrix_.jobs.size();
  stop_.store(false, std::memory_order_release);

  // Envelope per spec entry, in entry order; scenario-name keyed fold.
  std::vector<ScenarioEnvelope> envelopes;
  envelopes.reserve(matrix_.spec.entries.size());
  for (const ScenarioEntry& entry : matrix_.spec.entries) {
    const bool seen =
        std::any_of(envelopes.begin(), envelopes.end(),
                    [&](const ScenarioEnvelope& e) {
                      return e.scenario == entry.name;
                    });
    if (!seen) {
      ScenarioEnvelope env;
      env.scenario = entry.name;
      envelopes.push_back(std::move(env));
    }
  }
  const auto envelope_for = [&](const std::string& name) -> ScenarioEnvelope* {
    for (ScenarioEnvelope& env : envelopes) {
      if (env.scenario == name) return &env;
    }
    return nullptr;
  };

  const std::string header = header_line();

  // ---- resume scan ----------------------------------------------------
  // The results file is its own checkpoint: the longest valid prefix of
  // records counts as done, everything from the first malformed byte on
  // is redone.  The manifest is never consulted -- it can lie (torn
  // write), the results file cannot (we truncate it to the valid prefix).
  std::size_t completed = 0;
  bool append = false;
  if (config_.resume && std::filesystem::exists(results_path)) {
    std::ifstream in(results_path, std::ios::binary);
    std::string text;
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    const std::size_t header_end = text.find('\n');
    bool header_ok = false;
    if (header_end != std::string::npos) {
      JsonValue doc;
      if (parse_json(text.substr(0, header_end), doc) && doc.is_object() &&
          doc.string_or("schema", "") == kResultsSchema) {
        const std::string found = doc.string_or("fingerprint", "");
        if (found != fingerprint_hex(matrix_.fingerprint)) {
          summary.error =
              results_path +
              ": existing results were produced by a different scenario "
              "spec (fingerprint " +
              found + ", expected " + fingerprint_hex(matrix_.fingerprint) +
              "); refusing to mix runs";
          return summary;
        }
        header_ok = true;
      }
    }
    if (header_ok) {
      // Walk complete lines; stop at the first one that is truncated,
      // unparseable, or out of sequence.
      std::size_t offset = header_end + 1;
      while (completed < summary.jobs_total) {
        const std::size_t eol = text.find('\n', offset);
        if (eol == std::string::npos) break;  // torn final line: redo it
        RecordFold fold;
        if (!parse_record_line(text.substr(offset, eol - offset), completed,
                               fold)) {
          break;
        }
        if (ScenarioEnvelope* env = envelope_for(fold.scenario)) {
          fold_into(*env, fold);
        }
        if (!fold.ok) summary.errors += 1;
        offset = eol + 1;
        completed += 1;
      }
      std::error_code ec;
      std::filesystem::resize_file(results_path, offset, ec);
      if (ec) {
        summary.error = results_path + ": cannot truncate for resume: " +
                        ec.message();
        return summary;
      }
      append = true;
      summary.resumed = completed > 0;
      summary.jobs_skipped = completed;
    }
    // A missing/corrupt header falls through to a fresh start: the file
    // had nothing trustworthy in it.
  }

  // ---- open the stream ------------------------------------------------
  const std::size_t workers_cfg = config_.workers != 0
                                      ? config_.workers
                                      : default_worker_count();
  const std::size_t remaining = summary.jobs_total - completed;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(workers_cfg, std::max<std::size_t>(
                                                         remaining, 1)));
  const std::size_t capacity =
      config_.queue_capacity != 0
          ? config_.queue_capacity
          : std::max<std::size_t>(2 * workers, 16);

  Impl impl(capacity);
  impl.resolved.assign(summary.jobs_total, 0);
  std::fill(impl.resolved.begin(),
            impl.resolved.begin() +
                static_cast<std::ptrdiff_t>(completed),
            static_cast<char>(1));
  impl.jobs_total = summary.jobs_total;
  impl.emitted = completed;
  impl.next_to_emit = completed;
  impl.errors = summary.errors;
  impl.envelopes = &envelopes;
  // Stream-only mode (empty path): no results file, no manifest sidecar.
  impl.manifest_path =
      results_path.empty() ? std::string() : results_path + ".manifest";
  {
    std::ostringstream prefix;
    prefix << "{\"schema\":\"" << kManifestSchema
           << "\",\"version\":" << kSchemaVersion << ",\"name\":\""
           << json_escape(matrix_.spec.name) << "\",\"fingerprint\":\""
           << fingerprint_hex(matrix_.fingerprint)
           << "\",\"jobs\":" << summary.jobs_total << ",\"emitted\":";
    impl.manifest_prefix = prefix.str();
  }
  if (config_.metrics != nullptr) {
    impl.completed_metric = &config_.metrics->counter("scenario.jobs_completed");
    impl.failed_metric = &config_.metrics->counter("scenario.jobs_failed");
    impl.timeout_metric = &config_.metrics->counter("scenario.jobs_timed_out");
    config_.metrics->counter("scenario.jobs_skipped").add(completed);
    impl.wait_metric = &config_.metrics->histogram(
        "scenario.queue_wait_ms",
        {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
    impl.push_wait_metric = &config_.metrics->histogram(
        "scenario.queue_push_wait_ms",
        {0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0});
    impl.pop_wait_metric = &config_.metrics->histogram(
        "scenario.queue_pop_wait_ms",
        {0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0});
    impl.emit_stall_metric = &config_.metrics->histogram(
        "scenario.emit_stall_ms",
        {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0});
    impl.queue_depth_metric = &config_.metrics->gauge("scenario.queue_depth");
    impl.busy_metric = &config_.metrics->gauge("scenario.workers_busy");
  }

  // Contention hooks: the queue times its own blocking waits (clock reads
  // only when a wait actually happens) and reports the nanoseconds here,
  // outside its mutex.  Histograms fill only when metrics are bound; the
  // timeline records a wait span only when enabled (record_wait is one
  // relaxed load otherwise).  push waits run on the producer thread, pop
  // waits on workers -- the timeline attributes them to the right ring
  // automatically because rings are thread-local.
  {
    QueueWaitHooks hooks;
    hooks.on_push_wait = [&impl](std::uint64_t wait_ns) {
      if (impl.push_wait_metric != nullptr) {
        impl.push_wait_metric->observe(static_cast<double>(wait_ns) / 1e6);
      }
      Timeline::instance().record_wait("queue.push_wait", wait_ns);
    };
    hooks.on_pop_wait = [&impl](std::uint64_t wait_ns) {
      if (impl.pop_wait_metric != nullptr) {
        impl.pop_wait_metric->observe(static_cast<double>(wait_ns) / 1e6);
      }
      Timeline::instance().record_wait("queue.pop_wait", wait_ns);
    };
    impl.queue.set_wait_hooks(std::move(hooks));
  }

  if (!results_path.empty()) {
    const std::filesystem::path parent =
        std::filesystem::path(results_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    impl.out.open(results_path,
                  append ? (std::ios::out | std::ios::app)
                         : (std::ios::out | std::ios::trunc));
    if (!impl.out) {
      summary.error = "cannot open " + results_path + " for writing";
      return summary;
    }
    if (!append) {
      impl.out << header << '\n';
      impl.out.flush();
    }
  }

  // The manifest only ever moves forward: workers finish their batches in
  // any order, so a rewrite whose count is not past the last recorded one
  // is skipped.  It trails the results file (each count is written after
  // its records were flushed), never leads it.  Every emission passes
  // through submit(), so the last batch leaves the final count.
  const auto write_manifest = [&](std::size_t emitted, bool force) {
    if (impl.manifest_path.empty()) return;
    const std::lock_guard<std::mutex> lock(impl.manifest_mutex);
    if (!force && emitted <= impl.manifest_emitted) return;
    impl.manifest_emitted = emitted;
    std::ofstream manifest(impl.manifest_path, std::ios::trunc);
    if (!manifest) return;
    manifest << impl.manifest_prefix << emitted << ",\"complete\":"
             << (emitted == impl.jobs_total ? "true" : "false") << "}\n";
  };
  write_manifest(completed, true);

  {
    const std::lock_guard<std::mutex> lock(run_mutex_);
    active_ = &impl;
  }

  // ---- collector ------------------------------------------------------
  // Records are emitted strictly in job-index order: out-of-order
  // completions park in `pending` until their turn.  This (plus the
  // record text being a pure function of the job) is the whole
  // byte-identity story.
  const auto submit = [&](std::size_t index, ExecResult result) -> bool {
    std::size_t notify_batch_start = 0;
    std::size_t notify_emitted = 0;
    std::size_t notify_errors = 0;
    bool resolved_here = true;
    // Time the whole serialized section -- collector-lock acquisition
    // and the in-order drain with its one flush -- as "emission stall":
    // the serial tail every worker pays per completed job.  The clock is
    // read only when the histogram is bound; the WSN_SPAN costs one
    // relaxed load when profiling is fully off.
    std::chrono::steady_clock::time_point stall_start{};
    if (impl.emit_stall_metric != nullptr) {
      stall_start = std::chrono::steady_clock::now();
    }
    {
      WSN_SPAN("scenario.emit_stall");
      const std::lock_guard<std::mutex> lock(impl.collector_mutex);
      // First resolution wins: the watchdog may have already resolved
      // this job into a timeout record (or vice versa -- the worker beat
      // a near-deadline expiry).  The loser's result is dropped whole.
      if (impl.resolved[index] != 0) {
        resolved_here = false;
      } else {
        impl.resolved[index] = 1;
        impl.pending.emplace(index, std::move(result));
        notify_batch_start = impl.emitted;
        while (true) {
          const auto it = impl.pending.find(impl.next_to_emit);
          if (it == impl.pending.end()) break;
          if (impl.out.is_open()) impl.out << it->second.line << '\n';
          if (config_.on_record) {
            config_.on_record(impl.next_to_emit, it->second.line);
          }
          if (ScenarioEnvelope* env =
                  envelope_for(it->second.fold.scenario)) {
            fold_into(*env, it->second.fold);
          }
          if (!it->second.fold.ok) {
            impl.errors += 1;
            if (impl.failed_metric != nullptr) impl.failed_metric->increment();
          } else if (impl.completed_metric != nullptr) {
            impl.completed_metric->increment();
          }
          impl.pending.erase(it);
          impl.next_to_emit += 1;
          impl.emitted += 1;
        }
        // One flush per drained batch, still under the lock: the results
        // file is the checkpoint, so a batch reaches it before the
        // manifest or on_emit report it.
        if (impl.emitted != notify_batch_start && impl.out.is_open()) {
          impl.out.flush();
        }
        notify_emitted = impl.emitted;
        notify_errors = impl.errors;
      }
    }
    if (impl.emit_stall_metric != nullptr) {
      impl.emit_stall_metric->observe(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - stall_start)
              .count());
    }
    if (!resolved_here) return false;
    write_manifest(notify_emitted, false);
    // The hook runs outside the collector lock so it may call
    // request_cancel() (the kill/resume tests do exactly that).
    if (config_.on_emit) config_.on_emit(notify_emitted);
    // Heartbeat on the emission count crossing a multiple of the cadence.
    // A batch can jump past a multiple without landing on it, so compare
    // the multiples below its start and its end.  Live pool telemetry is
    // snapshotted here, outside the lock -- it is advisory and never
    // reaches the results stream.
    if (config_.heartbeat_every > 0 && config_.on_heartbeat &&
        notify_emitted / config_.heartbeat_every >
            notify_batch_start / config_.heartbeat_every) {
      HeartbeatRecord beat;
      beat.emitted = notify_emitted;
      beat.jobs_total = impl.jobs_total;
      beat.errors = notify_errors;
      beat.queue_depth = impl.queue.size();
      beat.workers_busy = impl.busy.load(std::memory_order_relaxed);
      config_.on_heartbeat(beat);
    }
    return true;
  };

  // ---- workers --------------------------------------------------------
  // Per-worker state board for the telemetry sampler: WorkerState values,
  // written with relaxed stores at the idle/busy/blocked transitions.
  // Only maintained when a sampler is attached -- unobserved runs skip
  // even the relaxed stores.
  const bool track_states = config_.sampler != nullptr;
  std::unique_ptr<std::atomic<std::uint8_t>[]> states;
  if (track_states) {
    states.reset(new std::atomic<std::uint8_t>[workers]);
    for (std::size_t i = 0; i < workers; ++i) {
      states[i].store(static_cast<std::uint8_t>(WorkerState::kIdle),
                      std::memory_order_relaxed);
    }
    config_.sampler->set_worker_states(
        [board = states.get(), workers]() {
          std::vector<WorkerState> snapshot(workers);
          for (std::size_t i = 0; i < workers; ++i) {
            snapshot[i] = static_cast<WorkerState>(
                board[i].load(std::memory_order_relaxed));
          }
          return snapshot;
        });
  }

  std::vector<WorkerSlot> inflight(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      if (Timeline::instance().enabled()) {
        Timeline::instance().set_thread_label("worker/" + std::to_string(w));
      }
      Simulator sim;
      Timeline& timeline = Timeline::instance();
      double wait_ms_sum = 0.0;
      std::size_t wait_samples = 0;
      while (true) {
        if (config_.cancel != nullptr &&
            config_.cancel->load(std::memory_order_acquire) &&
            !stop_.load(std::memory_order_acquire)) {
          request_cancel();
        }
        // One wall-to-wall timeline span per loop pass (pop + execute +
        // submit), recorded at the bottom.  The contention spans nest
        // inside it, so attribution covers the worker's whole life with
        // no gaps for the scheduler to hide preemption in.  Disabled
        // cost: the one relaxed load behind enabled().
        const bool timeline_on = timeline.enabled();
        const std::uint64_t iteration_begin =
            timeline_on ? timeline.now_ns() : 0;
        auto ticket = impl.queue.pop();
        if (!ticket.has_value()) break;
        if (track_states) {
          states[w].store(static_cast<std::uint8_t>(WorkerState::kBusy),
                          std::memory_order_relaxed);
        }
        const auto popped = std::chrono::steady_clock::now();
        const double wait_ms =
            std::chrono::duration<double, std::milli>(popped -
                                                      ticket->second)
                .count();
        wait_ms_sum += wait_ms;
        wait_samples += 1;
        if (impl.wait_metric != nullptr) impl.wait_metric->observe(wait_ms);
        if (impl.queue_depth_metric != nullptr) {
          impl.queue_depth_metric->set(
              static_cast<double>(impl.queue.size()));
        }
        const std::size_t busy_now =
            impl.busy.fetch_add(1, std::memory_order_relaxed) + 1;
        if (impl.busy_metric != nullptr) {
          impl.busy_metric->set(static_cast<double>(busy_now));
        }
        // Arm the watchdog slot before the test hook runs: an injected
        // stall counts against the deadline exactly like a real one.
        WorkerSlot& slot = inflight[w];
        slot.stage.store("plan", std::memory_order_relaxed);
        slot.start_ms.store(steady_now_ms(), std::memory_order_relaxed);
        slot.index.store(ticket->first, std::memory_order_release);
        if (config_.before_job) config_.before_job(matrix_.jobs[ticket->first]);
        ExecResult result;
        {
          WSN_SPAN("scenario.job");
          result = execute_job(matrix_, matrix_.jobs[ticket->first], sim,
                               config_.store, config_.audit, &slot.stage);
        }
        slot.index.store(WorkerSlot::kIdle, std::memory_order_release);
        const std::size_t busy_after =
            impl.busy.fetch_sub(1, std::memory_order_relaxed) - 1;
        if (impl.busy_metric != nullptr) {
          impl.busy_metric->set(static_cast<double>(busy_after));
        }
        if (track_states) {
          states[w].store(static_cast<std::uint8_t>(WorkerState::kBlocked),
                          std::memory_order_relaxed);
        }
        submit(ticket->first, std::move(result));
        if (track_states) {
          states[w].store(static_cast<std::uint8_t>(WorkerState::kIdle),
                          std::memory_order_relaxed);
        }
        if (timeline_on) {
          timeline.record("scenario.iteration", iteration_begin,
                          timeline.now_ns());
        }
      }
      const std::lock_guard<std::mutex> lock(impl.collector_mutex);
      impl.queue_wait_ms_sum += wait_ms_sum;
      impl.queue_wait_samples += wait_samples;
    });
  }

  // ---- watchdog -------------------------------------------------------
  // Polls the worker slots and resolves any job past its deadline into an
  // error record so in-order emission keeps moving.  The stalled worker
  // is left alone; its eventual result loses the first-resolution race in
  // submit().  Poll cadence is a quarter of the deadline, clamped to
  // [1, 50] ms -- expiry detection lags the deadline by at most one poll.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (config_.job_timeout_ms > 0) {
    watchdog = std::thread([&] {
      const auto poll = std::chrono::milliseconds(std::max<std::size_t>(
          1, std::min<std::size_t>(config_.job_timeout_ms / 4, 50)));
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        const std::int64_t now_ms = steady_now_ms();
        for (WorkerSlot& slot : inflight) {
          const std::size_t index =
              slot.index.load(std::memory_order_acquire);
          if (index == WorkerSlot::kIdle) continue;
          const std::int64_t elapsed =
              now_ms - slot.start_ms.load(std::memory_order_relaxed);
          if (elapsed < static_cast<std::int64_t>(config_.job_timeout_ms)) {
            continue;
          }
          const char* stage = slot.stage.load(std::memory_order_relaxed);
          if (stage == nullptr) stage = "plan";
          const ScenarioJob& job = matrix_.jobs[index];
          ExecResult timed_out;
          timed_out.fold.scenario = job.entry->name;
          std::ostringstream line;
          line << "{\"job\":" << index << ",\"scenario\":\""
               << json_escape(job.entry->name)
               << "\",\"status\":\"error\",\"error\":\""
               << "watchdog: job exceeded " << config_.job_timeout_ms
               << " ms deadline\",\"elapsed_ms\":" << elapsed
               << ",\"stage\":\"" << stage << "\"}";
          timed_out.line = line.str();
          if (submit(index, std::move(timed_out)) &&
              impl.timeout_metric != nullptr) {
            impl.timeout_metric->increment();
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  // ---- producer (this thread) -----------------------------------------
  // Backpressure is the queue's: push blocks once `capacity` tickets are
  // in flight and returns false only after a cancel.
  if (Timeline::instance().enabled()) {
    Timeline::instance().set_thread_label("producer");
  }
  for (std::size_t index = completed; index < summary.jobs_total; ++index) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (!impl.queue.push({index, std::chrono::steady_clock::now()})) break;
  }
  impl.queue.close();
  for (std::thread& t : pool) t.join();
  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }

  {
    const std::lock_guard<std::mutex> lock(run_mutex_);
    active_ = nullptr;
  }

  // Detach the state provider before the board leaves scope: the sampler
  // outlives this run and must not poll a dangling array.
  if (track_states) config_.sampler->set_worker_states({});

  summary.ok = true;
  summary.cancelled = stop_.load(std::memory_order_acquire);
  summary.jobs_run = impl.emitted - completed;
  summary.errors = impl.errors;
  summary.emitted = impl.emitted;
  summary.queue_wait_ms_mean =
      impl.queue_wait_samples == 0
          ? 0.0
          : impl.queue_wait_ms_sum /
                static_cast<double>(impl.queue_wait_samples);
  summary.envelopes = std::move(envelopes);
  return summary;
}

std::string run_scenario_job(const JobMatrix& matrix, const ScenarioJob& job,
                             Simulator& sim, PlanStore* store, bool audit) {
  return execute_job(matrix, job, sim, store, audit).line;
}

}  // namespace wsn
