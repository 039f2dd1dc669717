// Scenario-engine throughput: jobs/sec of the bounded-queue worker pool.
//
// Runs a fixed in-memory job matrix (a full 12x8 source sweep plus a
// seeded/faulty mix -- the shapes scenarios/*.json are made of) at several
// worker counts, cold and warm plan cache, and reports jobs/sec, the mean
// queue wait, and the plan-cache hit rate.  One pass over the matrix takes
// only tens of milliseconds, which would mostly time thread start-up, so
// each row repeats cold+warm pass pairs until both sides have run for at
// least kMinRowSeconds and reports jobs over total time.  The interesting
// trends: jobs/sec should scale with workers until the in-order collector
// serializes, queue wait should stay near zero (backpressure, not
// buffering), and the warm hit rate should approach 1 for cacheable
// protocols.
//
//   $ scenario_throughput [--workers-list 1,2,0] [--json-out BENCH_scenario.json]
//
// --json-out writes a meshbcast.bench JSON document (schema in
// EXPERIMENTS.md), one row per worker count named `workers=N`, for the CI
// artifact trail.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/bench_doc.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table.h"
#include "scenario/engine.h"
#include "store/plan_store.h"

namespace {

constexpr const char* kBenchSpec =
    "{\"name\": \"bench\", \"scenarios\": ["
    "{\"name\": \"sweep\", \"family\": \"2D-4\", \"dims\": [12, 8],"
    " \"sources\": \"all\", \"protocols\": [\"paper\"]},"
    "{\"name\": \"mixed\", \"family\": \"2D-8\", \"dims\": [8, 6],"
    " \"sources\": [0, 27], \"protocols\": [\"paper\", \"cds\","
    " \"flooding\", \"gossip\"], \"seeds\": [1, 2], \"repeats\": 2},"
    "{\"name\": \"faulty\", \"family\": \"2D-4\", \"dims\": [8, 6],"
    " \"sources\": [0], \"protocols\": [\"paper\"],"
    " \"faults\": [{\"kind\": \"iid\", \"loss\": 0.1}],"
    " \"recovery\": [\"none\", \"repeat-k\"], \"seeds\": [1, 2, 3],"
    " \"repeats\": 4}]}";

struct ConfigResult {
  std::size_t workers = 0;
  double cold_jobs_per_sec = 0.0;
  double warm_jobs_per_sec = 0.0;
  double queue_wait_ms_mean = 0.0;  // of the warm run
  double cache_hit_rate = 0.0;      // memory tier, after the warm run
};

/// One output row per distinct resolved worker count.  A workers-list
/// like "1,2,0" resolves 0 to the core count, which on a small machine
/// collides with an explicit entry; row names must be unique, so repeats
/// still *run* (same measurement load) but aggregate into min/mean/max
/// spread fields.  The flat cold/warm means are the gated metrics.
struct AggregatedResult {
  std::size_t workers = 0;
  std::size_t runs = 0;
  double cold_min = 0.0, cold_mean = 0.0, cold_max = 0.0;
  double warm_min = 0.0, warm_mean = 0.0, warm_max = 0.0;
  double queue_wait_ms_mean = 0.0;  // mean over runs
  double cache_hit_rate = 0.0;      // mean over runs
};

std::vector<AggregatedResult> aggregate(
    const std::vector<ConfigResult>& results) {
  std::vector<AggregatedResult> out;
  for (const ConfigResult& r : results) {
    AggregatedResult* agg = nullptr;
    for (AggregatedResult& candidate : out) {
      if (candidate.workers == r.workers) {
        agg = &candidate;
        break;
      }
    }
    if (agg == nullptr) {
      out.emplace_back();
      agg = &out.back();
      agg->workers = r.workers;
      agg->cold_min = agg->cold_max = r.cold_jobs_per_sec;
      agg->warm_min = agg->warm_max = r.warm_jobs_per_sec;
    }
    agg->runs += 1;
    agg->cold_min = std::min(agg->cold_min, r.cold_jobs_per_sec);
    agg->cold_max = std::max(agg->cold_max, r.cold_jobs_per_sec);
    agg->cold_mean += r.cold_jobs_per_sec;
    agg->warm_min = std::min(agg->warm_min, r.warm_jobs_per_sec);
    agg->warm_max = std::max(agg->warm_max, r.warm_jobs_per_sec);
    agg->warm_mean += r.warm_jobs_per_sec;
    agg->queue_wait_ms_mean += r.queue_wait_ms_mean;
    agg->cache_hit_rate += r.cache_hit_rate;
  }
  for (AggregatedResult& agg : out) {
    const double runs = static_cast<double>(agg.runs);
    agg.cold_mean /= runs;
    agg.warm_mean /= runs;
    agg.queue_wait_ms_mean /= runs;
    agg.cache_hit_rate /= runs;
  }
  return out;
}

constexpr double kMinRowSeconds = 0.5;

struct Pass {
  double seconds = 0.0;
  std::size_t jobs = 0;
  double queue_wait_ms = 0.0;
};

/// One timed engine pass over the whole matrix; false if the run failed.
bool timed_run(const wsn::JobMatrix& matrix, std::size_t workers,
               wsn::PlanStore* store, const std::filesystem::path& out,
               Pass& pass) {
  wsn::EngineConfig config;
  config.workers = workers;
  config.store = store;
  wsn::ScenarioEngine engine(matrix, config);
  const auto start = std::chrono::steady_clock::now();
  const wsn::RunSummary summary = engine.run(out.string());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!summary.ok) {
    std::fprintf(stderr, "run failed: %s\n", summary.error.c_str());
    return false;
  }
  pass.seconds = elapsed.count();
  pass.jobs = summary.jobs_run;
  pass.queue_wait_ms = summary.queue_wait_ms_mean;
  return true;
}

/// One row: cold+warm pass pairs, each pair on a fresh plan store, until
/// both the cold and the warm side have run for kMinRowSeconds.  Every
/// pair starts from an empty store, so the mean hit rate over pairs keeps
/// the one-pair meaning.  A failed pass zeroes the row.
ConfigResult measure_row(const wsn::JobMatrix& matrix, std::size_t workers,
                         const std::filesystem::path& tmp) {
  ConfigResult r;
  r.workers = workers;
  Pass cold_total;
  Pass warm_total;
  std::size_t pairs = 0;
  while (cold_total.seconds < kMinRowSeconds ||
         warm_total.seconds < kMinRowSeconds) {
    wsn::PlanStore store;
    Pass cold;
    Pass warm;
    if (!timed_run(matrix, workers, &store, tmp / "cold.jsonl", cold) ||
        !timed_run(matrix, workers, &store, tmp / "warm.jsonl", warm)) {
      return r;
    }
    cold_total.seconds += cold.seconds;
    cold_total.jobs += cold.jobs;
    warm_total.seconds += warm.seconds;
    warm_total.jobs += warm.jobs;
    warm_total.queue_wait_ms += warm.queue_wait_ms;
    const auto stats = store.memory().stats();
    const std::size_t lookups = stats.hits + stats.misses;
    r.cache_hit_rate += lookups == 0 ? 0.0
                                     : static_cast<double>(stats.hits) /
                                           static_cast<double>(lookups);
    pairs += 1;
  }
  const auto rate = [](const Pass& total) {
    return total.seconds > 0.0
               ? static_cast<double>(total.jobs) / total.seconds
               : 0.0;
  };
  r.cold_jobs_per_sec = rate(cold_total);
  r.warm_jobs_per_sec = rate(warm_total);
  r.queue_wait_ms_mean =
      warm_total.queue_wait_ms / static_cast<double>(pairs);
  r.cache_hit_rate /= static_cast<double>(pairs);
  return r;
}

/// One meshbcast.bench row per worker count, named `workers=N`.
wsn::BenchRow bench_row(const AggregatedResult& r, std::size_t jobs) {
  return {"workers=" + std::to_string(r.workers),
          {{"workers", static_cast<double>(r.workers)},
           {"jobs", static_cast<double>(jobs)},
           {"runs", static_cast<double>(r.runs)},
           {"cold_jobs_per_sec", r.cold_mean},
           {"cold_jobs_per_sec_min", r.cold_min},
           {"cold_jobs_per_sec_max", r.cold_max},
           {"warm_jobs_per_sec", r.warm_mean},
           {"warm_jobs_per_sec_min", r.warm_min},
           {"warm_jobs_per_sec_max", r.warm_max},
           {"queue_wait_ms_mean", r.queue_wait_ms_mean},
           {"cache_hit_rate", r.cache_hit_rate}}};
}

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("scenario_throughput",
                     "scenario engine jobs/sec at several worker counts");
  cli.add_option("workers-list",
                 "comma-separated worker counts (0 = all cores)", "1,2,0");
  cli.add_option("json-out", "meshbcast.bench JSON path ('' = skip)", "");
  if (!cli.parse(argc, argv)) return 1;

  wsn::JsonValue doc;
  std::string error;
  wsn::ScenarioSpec spec;
  wsn::JobMatrix matrix;
  if (!wsn::parse_json(kBenchSpec, doc, &error) ||
      !wsn::parse_scenario_spec(doc, spec, error) ||
      !wsn::expand_jobs(std::move(spec), matrix, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  std::vector<std::size_t> worker_counts;
  for (const std::string& token :
       wsn::split(cli.get("workers-list"), ',')) {
    std::size_t value = 0;
    if (!wsn::parse_worker_flag(token, value)) {
      std::fprintf(stderr, "bad --workers-list entry '%s'\n", token.c_str());
      return 1;
    }
    worker_counts.push_back(value == 0 ? wsn::default_worker_count() : value);
  }

  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "wsn_scenario_throughput";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);

  wsn::AsciiTable table({"Workers", "runs", "cold jobs/s", "warm jobs/s",
                         "queue wait (ms)", "cache hit rate"});
  table.set_title("Scenario engine throughput (" +
                  std::to_string(matrix.jobs.size()) + " jobs)");

  std::vector<ConfigResult> results;
  for (const std::size_t workers : worker_counts) {
    results.push_back(measure_row(matrix, workers, tmp));
  }
  const std::vector<AggregatedResult> aggregated = aggregate(results);
  for (const AggregatedResult& r : aggregated) {
    table.add_row({std::to_string(r.workers), std::to_string(r.runs),
                   wsn::fixed(r.cold_mean, 1), wsn::fixed(r.warm_mean, 1),
                   wsn::fixed(r.queue_wait_ms_mean, 3),
                   wsn::fixed(r.cache_hit_rate, 3)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::filesystem::remove_all(tmp);

  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    wsn::BenchDoc bench{"scenario_throughput", {}};
    for (const AggregatedResult& r : aggregated) {
      bench.rows.push_back(bench_row(r, matrix.jobs.size()));
    }
    if (!wsn::write_bench_doc(json_path, bench)) return 1;
  }
  return 0;
}
