// lossy-arq: drives the scenario engine the way
// `scenario_runner --scenario <spec> --audit` does -- a 2-worker pool, a
// cold memory-only PlanStore per pass, records streamed to a results file
// plus its manifest -- over a lossy job matrix with the audit on.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.h"
#include "common/json.h"
#include "fault/adaptive.h"
#include "fault/link_estimator.h"
#include "fault/models.h"
#include "obs/audit/auditor.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "protocol/etx_planner.h"
#include "protocol/registry.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "stats.h"
#include "store/plan_store.h"
#include "topology/factory.h"
#include "trace.h"
#include "workload.h"

namespace meshbench {

namespace {

constexpr std::size_t kWorkers = 2;

constexpr std::size_t kLossySeeds = 16;

/// Paper-size 2D-4 and 2D-8 from the centre: {paper, etx} x {iid 10 %,
/// Gilbert 10 %/burst 4} x {none, adaptive} x kLossySeeds scenario seeds
/// drawn from the benchmark seed.
std::string lossy_arq_spec(std::uint64_t seed) {
  std::ostringstream seeds;
  for (std::size_t i = 0; i < kLossySeeds; ++i) {
    // Scenario seeds are JSON numbers; keep them exact in a double.
    seeds << (i == 0 ? "" : ",") << (derive_seed(seed, i) >> 12);
  }
  std::ostringstream spec;
  spec << "{\"name\":\"lossy-arq\",\"scenarios\":[";
  const char* families[] = {"2D-4", "2D-8"};
  for (std::size_t i = 0; i < 2; ++i) {
    spec << (i == 0 ? "" : ",") << "{\"name\":\"lossy-" << families[i]
         << "\",\"family\":\"" << families[i]
         << "\",\"sources\":\"center\",\"protocols\":[\"paper\",\"etx\"],"
            "\"faults\":[{\"kind\":\"iid\",\"loss\":0.1},"
            "{\"kind\":\"gilbert\",\"loss\":0.1,\"burst\":4}],"
            "\"recovery\":[\"none\",\"adaptive\"],\"seeds\":["
         << seeds.str() << "]}";
  }
  spec << "]}";
  return spec.str();
}

bool expand(const std::string& text, wsn::JobMatrix& matrix,
            std::string& error) {
  wsn::JsonValue doc;
  wsn::ScenarioSpec spec;
  return wsn::parse_json(text, doc, &error) &&
         wsn::parse_scenario_spec(doc, spec, error) &&
         wsn::expand_jobs(std::move(spec), matrix, error);
}

std::unique_ptr<wsn::FaultModel> link_model(const wsn::ScenarioFault& fault,
                                            std::uint64_t seed) {
  if (fault.kind == wsn::ScenarioFault::Kind::kIid) {
    return std::make_unique<wsn::IidLossModel>(fault.loss, seed);
  }
  if (fault.kind == wsn::ScenarioFault::Kind::kGilbert) {
    return std::make_unique<wsn::GilbertElliottModel>(
        wsn::GilbertElliottModel::from_mean_loss(fault.loss, fault.burst,
                                                 seed));
  }
  return nullptr;
}

class LossyArq final : public Workload {
 public:
  explicit LossyArq(const Options& options)
      : options_(options), spec_(lossy_arq_spec(options.seed)) {}

  void setup() override {
    std::string error;
    if (!expand(spec_, matrix_, error)) {
      throw std::runtime_error("scenario spec: " + error);
    }
    results_path_ = (std::filesystem::path(options_.scratch) /
                     (options_.workload + ".jsonl"))
                        .string();
  }

  void prepare_checks() override {
    // The offline single-job path with no store, on as many threads as the
    // engine has workers (so it does not set the peak RSS): the engine
    // promises the same bytes at any worker count, cold or warm.
    const wsn::ScenarioEngine engine(matrix_, {});
    reference_.assign(matrix_.jobs.size() + 1, std::string());
    reference_[0] = engine.header_line();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t) {
      threads.emplace_back([this, t] {
        wsn::Simulator sim;
        for (std::size_t i = t; i < matrix_.jobs.size(); i += kWorkers) {
          reference_[i + 1] = wsn::run_scenario_job(
              matrix_, matrix_.jobs[i], sim, nullptr, true);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  void warmup(Ledger& ledger) override { (void)run_pass(ledger); }

  /// Every pass runs the same jobs, and load from outside the process only
  /// ever slows a pass down, so the fastest pass is the closest reading of
  /// the program's own cost.
  void measure(double seconds, Ledger& ledger, Result& result) override {
    const std::vector<double> rates = run_for(seconds, ledger);
    result.set("ops_per_s", *std::max_element(rates.begin(), rates.end()));
  }

  void trace(double seconds, Ledger& ledger, Result& result) override {
    const double untraced = median(run_for(seconds / 2.0, ledger));

    wsn::MetricsRegistry registry;
    wsn::PlanStore store;
    start_tracing();
    const double pass_s = run_pass(ledger, &store, &registry);
    const SpanTable pass = summarize_spans(stop_tracing());
    const double jobs = static_cast<double>(matrix_.jobs.size());
    result.set("bench.trace_overhead", untraced / (jobs / pass_s) - 1.0);

    const SpanTotals job = span(pass, "scenario.job");
    result.set("scenario.job_ms", job.mean_ms());
    // Self time: the job span minus the program spans nested in it
    // (plan.build, plan.resolve, sim.simulate).
    result.set("scenario.job_self_ms", job.mean_self_ms());
    const double iteration_ms = span(pass, "scenario.iteration").total_ms;
    result.set("scenario.emit_stall_share",
               iteration_ms > 0.0
                   ? span(pass, "scenario.emit_stall").total_ms / iteration_ms
                   : 0.0);
    result.set("scenario.worker_busy_share",
               job.total_ms /
                   (static_cast<double>(kWorkers) * pass_s * 1e3));
    const wsn::MetricsSnapshot metrics = registry.scrape();
    const wsn::HistogramSnapshot* wait =
        metrics.histogram("scenario.queue_wait_ms");
    result.set("scenario.queue_wait_ms",
               wait != nullptr && wait->count > 0
                   ? wait->sum / static_cast<double>(wait->count)
                   : 0.0);
    result.set("protocol.compiles",
               static_cast<double>(span(pass, "plan.build").count));
    result.set("sim.runs", static_cast<double>(span(pass, "sim.simulate").count));
    const wsn::PlanStore::Stats stats = store.stats();
    const wsn::ShardedPlanCache::Stats mem = store.memory().stats();
    result.set("store.mem_hits", static_cast<double>(mem.hits));
    result.set("store.compiles", static_cast<double>(stats.compiles));
    const std::uint64_t lookups = mem.hits + mem.misses;
    result.set("store.hit_ratio",
               lookups == 0 ? 0.0
                            : static_cast<double>(mem.hits) /
                                  static_cast<double>(lookups));
    result.set("store.lock_wait_ms", static_cast<double>(mem.lock_wait_ns) / 1e6);

    replay(result);
  }

 private:
  /// One engine pass over the whole matrix; returns its wall time (the
  /// engine run only -- output checks run after the clock stops).
  double run_pass(Ledger& ledger, wsn::PlanStore* store = nullptr,
                  wsn::MetricsRegistry* registry = nullptr) {
    wsn::PlanStore cold;
    wsn::EngineConfig config;
    config.workers = kWorkers;
    config.store = store != nullptr ? store : &cold;
    config.metrics = registry;
    config.audit = true;
    wsn::ScenarioEngine engine(matrix_, config);
    const auto start = std::chrono::steady_clock::now();
    const wsn::RunSummary summary = engine.run(results_path_);
    const double elapsed = seconds_since(start);
    if (!summary.ok) {
      ledger.attempt(matrix_.jobs.size());
      ledger.fail("engine run failed: " + summary.error, matrix_.jobs.size());
      return elapsed;
    }
    verify_stream(read_lines(results_path_), reference_, ledger);
    return elapsed;
  }

  /// Passes until `seconds` of engine time have run; jobs/s per pass.
  std::vector<double> run_for(double seconds, Ledger& ledger) {
    std::vector<double> rates;
    double spent = 0.0;
    while (spent < seconds || rates.size() < 2) {
      const double pass_s = run_pass(ledger);
      spent += pass_s;
      rates.push_back(static_cast<double>(matrix_.jobs.size()) / pass_s);
    }
    return rates;
  }

  /// Single-threaded replay of every job through the public calls the
  /// engine makes internally, each under a benchmark span.
  void replay(Result& result) {
    start_tracing();
    wsn::PlanStore store;
    wsn::Simulator sim;
    std::uint64_t repairs = 0, rx = 0, fade = 0, lossy_runs = 0;
    std::uint64_t arq_rounds = 0, arq_retries = 0;
    std::uint64_t audit_checks = 0, audit_violations = 0;
    double sim_tx = 0.0;
    {
      BenchSpan expand_span("expand_jobs");
      wsn::JobMatrix again;
      std::string error;
      (void)expand(spec_, again, error);
    }
    for (const wsn::ScenarioEntry& entry : matrix_.spec.entries) {
      BenchSpan build("make_paper_topology");
      (void)wsn::make_paper_topology(entry.family);
    }
    for (const wsn::ScenarioJob& job : matrix_.jobs) {
      const wsn::Topology& topo = matrix_.topology_of(job);
      const std::uint64_t job_seed = derive_seed(job.seed, job.rep);
      wsn::SimOptions plan_options;
      plan_options.packet_bits = job.entry->packet_bits;
      wsn::RelayPlan plan;
      std::vector<double> quality;
      std::size_t planned_tx = 0;
      if (job.protocol == "etx") {
        const std::unique_ptr<wsn::FaultModel> probe =
            link_model(job.fault, derive_seed(job_seed, 1));
        if (probe != nullptr) {
          BenchSpan s("estimate_link_quality");
          quality = wsn::estimate_link_quality(topo, *probe);
        }
        wsn::ResolveReport report;
        {
          BenchSpan s("etx_plan");
          plan = wsn::etx_plan(topo, job.source, quality, plan_options, &report);
        }
        repairs += report.repairs;
      } else {
        std::shared_ptr<const wsn::StoredPlan> stored;
        {
          BenchSpan s("PlanStore::fetch_or_compile");
          stored = store.fetch_or_compile(
              topo, job.source, job.protocol, plan_options,
              [&](wsn::ResolveReport& report) {
                BenchSpan c("paper_plan");
                return wsn::paper_plan(topo, job.source, plan_options, &report);
              });
        }
        repairs += stored->report.repairs;
        plan = stored->plan.to_relay_plan();
      }
      planned_tx = plan.planned_tx();

      const std::unique_ptr<wsn::FaultModel> faults =
          link_model(job.fault, derive_seed(job_seed, 2));
      wsn::SimOptions run_options = plan_options;
      run_options.faults = faults.get();
      wsn::EventSink sink;
      wsn::Observer observer(&sink);
      run_options.observer = &observer;
      wsn::BroadcastOutcome outcome;
      wsn::AdaptiveArqReport arq;
      const bool adaptive = job.recovery == wsn::RecoveryPolicy::kAdaptive;
      if (adaptive) {
        wsn::AdaptiveArqConfig config;
        config.retry_budget = job.entry->arq_budget;
        config.max_rounds = job.entry->arq_rounds;
        BenchSpan s("run_adaptive_arq");
        outcome = wsn::run_adaptive_arq(topo, plan, run_options, config, &arq,
                                        quality);
        arq_rounds += arq.rounds;
        arq_retries += arq.retries;
      } else {
        BenchSpan s("Simulator::run");
        outcome = sim.run(topo, plan, run_options);
        sim_tx += static_cast<double>(outcome.stats.tx);
      }
      if (faults != nullptr) {
        lossy_runs += 1;
        rx += outcome.stats.rx;
        fade += outcome.stats.lost_to_fading;
      }
      {
        wsn::AuditConfig config;
        config.packet_bits = job.entry->packet_bits;
        config.source = job.source;
        config.stats = &outcome.stats;
        config.expect_full_coverage = faults == nullptr;
        if (faults != nullptr) {
          config.mean_link_delivery = 1.0 - job.fault.loss;
          config.delivery_burst =
              job.fault.kind == wsn::ScenarioFault::Kind::kGilbert
                  ? job.fault.burst
                  : 1.0;
        }
        config.planned_tx = planned_tx;
        if (adaptive) {
          config.arq = true;
          config.retries = arq.retries;
          config.retry_budget = job.entry->arq_budget;
          config.budget_exhausted = arq.budget_exhausted;
          config.arq_rounds = arq.rounds;
          config.arq_max_rounds = job.entry->arq_rounds;
        }
        BenchSpan s("audit_sink");
        const wsn::AuditReport report = wsn::audit_sink(topo, sink, config);
        audit_checks += report.checks_run;
        audit_violations += report.violations.size();
      }
    }
    const SpanTable spans = summarize_spans(stop_tracing());
    result.set("scenario.expand_ms", span(spans, "expand_jobs").mean_ms());
    result.set("topology.build_ms", span(spans, "make_paper_topology").mean_ms());
    result.set("protocol.compile_ms", span(spans, "paper_plan").mean_ms());
    result.set("protocol.repairs", static_cast<double>(repairs));
    result.set("protocol.etx_plan_ms", span(spans, "etx_plan").mean_ms());
    result.set("store.fetch_ms",
               span(spans, "PlanStore::fetch_or_compile").mean_self_ms());
    const SpanTotals runs = span(spans, "Simulator::run");
    result.set("sim.run_ms", runs.mean_ms());
    result.set("sim.ns_per_tx", sim_tx > 0.0 ? runs.total_ms * 1e6 / sim_tx : 0.0);
    result.set("fault.link_estimate_ms",
               span(spans, "estimate_link_quality").mean_ms());
    result.set("fault.arq_ms", span(spans, "run_adaptive_arq").mean_ms());
    result.set("fault.arq_rounds", static_cast<double>(arq_rounds));
    result.set("fault.arq_retries", static_cast<double>(arq_retries));
    result.set("fault.delivery_ratio",
               lossy_runs == 0 ? 0.0
                               : static_cast<double>(rx) /
                                     static_cast<double>(rx + fade));
    result.set("audit.ms", span(spans, "audit_sink").mean_ms());
    result.set("audit.checks", static_cast<double>(audit_checks));
    result.set("audit.violations", static_cast<double>(audit_violations));
  }

  Options options_;
  std::string spec_;
  wsn::JobMatrix matrix_;
  std::string results_path_;
  std::vector<std::string> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_lossy_arq(const Options& options) {
  return std::make_unique<LossyArq>(options);
}

}  // namespace meshbench
