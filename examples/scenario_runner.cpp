// Declarative batch runner: executes a scenario file (scenario/spec.h) on
// the bounded-queue engine (scenario/engine.h), streaming one JSONL record
// per job and printing the per-scenario envelope tables.
//
//   scenario_runner --scenario scenarios/paper.json --out results.jsonl
//   scenario_runner --scenario ... --out ... --resume      # after a kill
//   scenario_runner --scenario ... --workers 8 --plan-cache .plan-cache
//
// Ctrl-C cancels cooperatively (obs/heartbeat.h's SignalDrain): in-flight
// jobs finish, the results file keeps a valid resumable prefix, and a
// later --resume run completes it into a byte-identical file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/timeline.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "store/plan_store.h"

namespace {

std::string format_energy(double joules) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", joules);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;

  CliParser cli("scenario_runner",
                "Run a declarative scenario file on the batch engine", 2);
  cli.add_option("scenario", "scenario spec file (JSON)", "");
  cli.add_option("out", "results stream (JSONL)", "results.jsonl");
  cli.add_flag("resume", "continue an interrupted run");
  cli.add_option("workers", "worker threads (0 = MESHBCAST_THREADS or "
                            "hardware)", "0");
  cli.add_option("queue-cap", "job queue capacity (0 = 2x workers)", "0");
  cli.add_option("plan-cache", "plan store artifact directory (empty = "
                               "memory-only)", "");
  cli.add_option("metrics-out", "write a metrics snapshot (JSON) here", "");
  cli.add_option("trace-out", "write each job's event trace (obs JSONL) "
                              "under this directory", "");
  cli.add_flag("audit", "run the invariant auditor (obs/audit) on every "
                        "simulated job");
  cli.add_option("heartbeat", "print a heartbeat record to stderr every N "
                              "emitted jobs (0 = off)", "0");
  cli.add_option("job-timeout-ms", "per-job watchdog deadline in ms: a job "
                                   "over it becomes an error record instead "
                                   "of stalling emission (0 = off)", "0");
  cli.add_option("timeline-out", "record per-thread span timelines and "
                                 "write the meshbcast.timeline JSONL here "
                                 "('' = off)", "");
  cli.add_option("timeseries-out", "sample metrics + worker utilization "
                                   "periodically into this meshbcast."
                                   "timeseries JSONL ('' = off)", "");
  cli.add_option("timeseries-period-ms", "sampling period for "
                                         "--timeseries-out", "100");
  if (!cli.parse(argc, argv)) return 2;

  const std::string spec_path = cli.get("scenario");
  if (spec_path.empty()) {
    std::cerr << "error: --scenario is required\n" << cli.usage();
    return 2;
  }

  std::size_t workers = 0;
  if (!parse_worker_flag(cli.get("workers"), workers)) {
    std::cerr << "error: --workers must be a non-negative integer\n";
    return 2;
  }

  ScenarioSpec spec;
  std::string error;
  if (!load_scenario_file(spec_path, spec, error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (const std::string trace_dir = cli.get("trace-out");
      !trace_dir.empty()) {
    for (ScenarioEntry& entry : spec.entries) {
      entry.outputs.trace_dir = trace_dir;
    }
  }
  JobMatrix matrix;
  if (!expand_jobs(std::move(spec), matrix, error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  PlanStore::Config store_config;
  store_config.disk_dir = cli.get("plan-cache");
  PlanStore store(store_config);
  MetricsRegistry metrics;
  store.bind_metrics(metrics);

  // The shared drain latch (obs/heartbeat.h): SIGINT/SIGTERM set a flag
  // the engine polls between jobs, so an interrupted run flushes a clean,
  // resumable checkpoint instead of tearing the stream mid-record.
  SignalDrain drain;

  EngineConfig config;
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(cli.get_u64("queue-cap"));
  config.resume = cli.get_flag("resume");
  config.store = &store;
  config.metrics = &metrics;
  config.cancel = drain.flag();
  config.audit = cli.get_flag("audit");
  config.heartbeat_every = static_cast<std::size_t>(cli.get_u64("heartbeat"));
  config.job_timeout_ms =
      static_cast<std::size_t>(cli.get_u64("job-timeout-ms"));
  if (config.heartbeat_every > 0) config.on_heartbeat = heartbeat_to_stderr;

  const std::string timeline_path = cli.get("timeline-out");
  if (!timeline_path.empty()) Timeline::instance().set_enabled(true);

  TelemetrySampler::Config sampler_config;
  sampler_config.period_ms =
      static_cast<std::size_t>(cli.get_u64("timeseries-period-ms"));
  sampler_config.metrics = &metrics;
  TelemetrySampler sampler(sampler_config);
  const std::string timeseries_path = cli.get("timeseries-out");
  if (!timeseries_path.empty()) {
    if (!sampler.start(timeseries_path)) {
      std::cerr << "error: cannot write " << timeseries_path << "\n";
      return 1;
    }
    config.sampler = &sampler;
  }

  const std::string out_path = cli.get("out");
  std::cout << "scenario '" << matrix.spec.name << "': "
            << matrix.jobs.size() << " jobs -> " << out_path << "\n";

  ScenarioEngine engine(matrix, config);
  const RunSummary summary = engine.run(out_path);
  sampler.stop();
  if (!summary.ok) {
    std::cerr << "error: " << summary.error << "\n";
    return 1;
  }

  if (!timeline_path.empty()) {
    // Workers are joined: the rings are quiesced, the snapshot complete.
    std::ofstream out(timeline_path, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write " << timeline_path << "\n";
      return 1;
    }
    write_timeline_jsonl(out, Timeline::instance().snapshot());
    std::cout << "timeline: " << timeline_path << "\n";
  }

  std::cout << "jobs: " << summary.emitted << "/" << summary.jobs_total
            << " emitted (" << summary.jobs_skipped << " resumed, "
            << summary.jobs_run << " run, " << summary.errors
            << " errors)\n";

  AsciiTable table({"Scenario", "Jobs", "Best src", "Best energy (J)",
                    "Worst src", "Worst energy (J)", "Mean (J)",
                    "Max delay", "Reach"});
  table.set_title("Per-scenario envelopes (best/worst over sources: the "
                  "paper's Tables 3-5 view)");
  for (const ScenarioEnvelope& env : summary.envelopes) {
    if (env.jobs == 0) continue;
    const bool any_ok = env.jobs > env.errors;
    table.add_row({env.scenario, std::to_string(env.jobs),
                   any_ok ? std::to_string(env.best_source) : "-",
                   any_ok ? format_energy(env.best_energy) : "-",
                   any_ok ? std::to_string(env.worst_source) : "-",
                   any_ok ? format_energy(env.worst_energy) : "-",
                   any_ok ? format_energy(env.mean_energy()) : "-",
                   any_ok ? std::to_string(env.max_delay) : "-",
                   env.errors > 0 ? ("errors:" + std::to_string(env.errors))
                                  : (env.all_reached ? "100%" : "partial")});
  }
  std::cout << table.render();

  const auto store_stats = store.stats();
  const auto mem = store.memory().stats();
  std::cout << "plan store: " << mem.hits << " memory hits, "
            << store_stats.disk_hits << " disk hits, "
            << store_stats.compiles << " compiles, " << store_stats.bypasses
            << " bypasses\n";

  const std::string metrics_path = cli.get("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write " << metrics_path << "\n";
      return 1;
    }
    write_metrics_json(out, metrics.scrape());
  }

  if (summary.cancelled) {
    std::cout << "cancelled: resume with --resume to finish the remaining "
              << (summary.jobs_total - summary.emitted) << " jobs\n";
    return 130;
  }
  return summary.errors == 0 ? 0 : 3;
}
