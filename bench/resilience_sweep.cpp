// Resilience sweep: how the paper's relay plans degrade on an imperfect
// medium, and how much online recovery buys back.
//
//   $ resilience_sweep [--family 2D-4] [--loss-rates 0,0.02,0.05,0.1,0.2,0.3]
//                      [--trials 64] [--bursty] [--crash-prob 0.02]
//                      [--csv resilience.csv] [--json-out BENCH_resilience.json]
//
// --json-out times fixed small sweep/comparison workloads (independent of
// the display flags, so names stay comparable across commits) and writes a
// meshbcast.bench JSON document for tools/bench_gate.
//
// For every (loss rate x recovery policy) cell the harness runs seeded
// Monte-Carlo broadcasts (analysis/resilience.h) and prints degradation
// curves: mean reachability, delay, transmissions and energy.  The CSV
// output holds the full per-cell grid for external plotting.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/resilience.h"
#include "bench_json.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table.h"
#include "fault/adaptive.h"
#include "fault/link_estimator.h"
#include "fault/models.h"
#include "obs/profile.h"
#include "protocol/registry.h"
#include "store/plan_store.h"
#include "topology/factory.h"

namespace {

std::vector<double> parse_rates(const std::string& text) {
  std::vector<double> rates;
  for (const std::string& field : wsn::split(text, ',')) {
    double value = 0.0;
    if (!wsn::parse_f64(wsn::trim(field), value)) {
      std::fprintf(stderr, "malformed loss rate: '%s'\n", field.c_str());
      std::exit(1);
    }
    rates.push_back(value);
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("resilience_sweep",
                     "Monte-Carlo degradation curves under fault injection");
  cli.add_option("family", "topology family (2D-3, 2D-4, 2D-8, 3D-6)",
                 "2D-4");
  cli.add_option("src", "source node id", "0");
  cli.add_option("loss-rates", "comma-separated mean link loss rates",
                 "0,0.02,0.05,0.1,0.2,0.3");
  cli.add_option("trials", "Monte-Carlo trials per cell", "64");
  cli.add_option("repeat-k", "repetition factor of the repeat-k policy",
                 "2");
  cli.add_flag("bursty", "Gilbert-Elliott bursty loss instead of i.i.d.");
  cli.add_option("burst-len", "mean bad-burst length (bursty only)", "4");
  cli.add_option("crash-prob", "per-node crash probability per trial", "0");
  cli.add_option("crash-horizon", "crash slots drawn from [1, horizon]",
                 "32");
  cli.add_option("crash-outage", "outage length in slots (0 = permanent)",
                 "0");
  cli.add_option("seed", "master seed", "24083");
  cli.add_option("csv", "CSV output path ('-' = stdout, '' = none)", "");
  cli.add_option("json-out", "meshbcast.bench JSON path ('' = skip)", "");
  cli.add_option("workers",
                 "worker threads (flag > MESHBCAST_THREADS > hardware)",
                 "0");
  cli.add_option("plan-cache",
                 "plan-store directory; the baseline plan compile goes "
                 "through the cache",
                 "");
  cli.add_flag("profile", "print the profiling-span report");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.get_flag("profile")) {
    wsn::Profiler::instance().set_enabled(true);
  }

  const auto topo = wsn::make_paper_topology(cli.get("family"));
  const auto src = static_cast<wsn::NodeId>(cli.get_u64("src"));
  wsn::RelayPlan plan;
  if (const std::string cache_dir = cli.get("plan-cache");
      !cache_dir.empty()) {
    // The Monte-Carlo trials themselves inject faults and are never
    // cacheable; only the fault-free baseline plan compile is.
    wsn::PlanStore::Config store_config;
    store_config.disk_dir = cache_dir;
    wsn::PlanStore store(store_config);
    if (store.disk() == nullptr || !store.disk()->ok()) {
      std::fprintf(stderr, "cannot open --plan-cache %s\n",
                   cache_dir.c_str());
      return 1;
    }
    wsn::PlanStore::Origin origin = wsn::PlanStore::Origin::kCompiled;
    plan = wsn::paper_plan_cached(*topo, src, {}, store, nullptr, &origin);
    std::printf("plan: %s\n", std::string(wsn::to_string(origin)).c_str());
  } else {
    plan = wsn::paper_plan(*topo, src);
  }

  wsn::ResilienceConfig config;
  config.loss_rates = parse_rates(cli.get("loss-rates"));
  config.trials = cli.get_u64("trials");
  config.repeat_k = static_cast<unsigned>(cli.get_u64("repeat-k"));
  config.bursty = cli.get_flag("bursty");
  config.burst_len = cli.get_f64("burst-len");
  config.crash_prob = cli.get_f64("crash-prob");
  config.crash_horizon = static_cast<wsn::Slot>(cli.get_u64("crash-horizon"));
  config.crash_outage = static_cast<wsn::Slot>(cli.get_u64("crash-outage"));
  config.seed = cli.get_u64("seed");
  if (!wsn::parse_worker_flag(cli.get("workers"), config.workers)) {
    std::fprintf(stderr, "--workers must be a non-negative integer\n");
    return 1;
  }

  const wsn::ResilienceSweep sweep =
      wsn::run_resilience_sweep(*topo, plan, config);

  wsn::AsciiTable table({"loss", "policy", "planned Tx", "reach mean",
                         "reach min", "100% share", "delay", "energy (J)"});
  table.set_title(sweep.topology + ", source " + std::to_string(src) +
                  ", " + std::to_string(config.trials) + " trials/cell" +
                  (config.bursty ? ", bursty" : ", i.i.d.") +
                  (config.crash_prob > 0.0
                       ? ", crash-prob " + wsn::fixed(config.crash_prob, 3)
                       : ""));
  double last_rate = -1.0;
  for (const wsn::ResilienceCell& cell : sweep.cells) {
    if (cell.loss_rate != last_rate && last_rate >= 0.0) table.add_rule();
    last_rate = cell.loss_rate;
    table.add_row({wsn::fixed(cell.loss_rate, 2),
                   std::string(wsn::to_string(cell.policy)),
                   std::to_string(cell.planned_tx),
                   wsn::fixed(100.0 * cell.mean_reachability, 1) + "%",
                   wsn::fixed(100.0 * cell.min_reachability, 1) + "%",
                   wsn::fixed(100.0 * cell.full_reach_share, 1) + "%",
                   wsn::fixed(cell.mean_delay, 1),
                   wsn::sci(cell.mean_energy)});
  }
  std::printf("%s", table.render().c_str());

  const std::string csv_path = cli.get("csv");
  if (csv_path == "-") {
    sweep.write_csv(std::cout);
  } else if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    sweep.write_csv(out);
    std::printf("\nwrote %zu cells to %s\n", sweep.cells.size(),
                csv_path.c_str());
  }
  // Timed bench entries use a fixed workload (not the display flags) so the
  // tracked metric means the same thing on every commit.
  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    wsn::ResilienceConfig bench_config;
    bench_config.loss_rates = {0.1, 0.3};
    bench_config.trials = 16;
    bench_config.seed = 24083;
    bench_config.workers = config.workers;

    std::vector<wsn::BenchRow> results;
    results.push_back(wsn::bench::measure("resilience_sweep/iid", [&] {
      (void)wsn::run_resilience_sweep(*topo, plan, bench_config);
    }));
    bench_config.bursty = true;
    results.push_back(wsn::bench::measure("resilience_sweep/gilbert", [&] {
      (void)wsn::run_resilience_sweep(*topo, plan, bench_config);
    }));

    // One estimate and one adaptive-ARQ broadcast on the paper 2D-8 mesh
    // under Gilbert loss, each on a fresh model.  step_words_count is the
    // exact work of one more, untimed call: the chain words its model
    // stepped (fault/models.h), the same on any host.
    const auto mesh = wsn::make_paper_topology("2D-8");
    const auto add_gilbert_row = [&](const char* name, auto run) {
      const auto channel = [] {
        return wsn::GilbertElliottModel::from_mean_loss(0.1, 4.0, 24083);
      };
      results.push_back(wsn::bench::measure(name, [&] {
        wsn::GilbertElliottModel model = channel();
        run(model);
      }));
      wsn::GilbertElliottModel model = channel();
      run(model);
      results.back().metrics.emplace_back(
          "step_words_count", static_cast<double>(model.words_stepped()));
    };
    add_gilbert_row("link_estimate/gilbert",
                    [&](wsn::GilbertElliottModel& model) {
                      (void)wsn::estimate_link_quality(*mesh, model);
                    });
    const wsn::RelayPlan mesh_plan = wsn::paper_plan(
        *mesh, static_cast<wsn::NodeId>(mesh->num_nodes() / 2));
    // The ARQ row also carries the waves and retries of that call, which
    // pin the repair wave's choices.
    wsn::AdaptiveArqReport arq;
    add_gilbert_row("adaptive_arq/gilbert",
                    [&](wsn::GilbertElliottModel& model) {
                      wsn::SimOptions options;
                      options.faults = &model;
                      (void)wsn::run_adaptive_arq(*mesh, mesh_plan, options,
                                                  {}, &arq);
                    });
    results.back().metrics.emplace_back("arq_rounds_count",
                                        static_cast<double>(arq.rounds));
    results.back().metrics.emplace_back("arq_retries_count",
                                        static_cast<double>(arq.retries));

    wsn::PlannerComparisonConfig cmp_config;
    cmp_config.loss_rates = {0.2};
    cmp_config.trials = 8;
    cmp_config.seed = 24083;
    cmp_config.workers = config.workers;
    results.push_back(wsn::bench::measure("planner_comparison/gilbert", [&] {
      (void)wsn::run_planner_comparison(*topo, plan, cmp_config);
    }));

    if (!wsn::write_bench_doc(json_path, {"resilience_sweep", results})) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (cli.get_flag("profile")) {
    std::printf("\n%s", wsn::Profiler::instance().report_text().c_str());
  }
  return 0;
}
