// Bulk-engine scaling bench: implicit lattice + SoA bitset slot kernel.
//
// The materialized Simulator tops out around 10^4-10^5 nodes (adjacency
// lists dominate memory and planning time); the bulk engine's shift-rule
// kernel is the path to the paper's protocols at 10^6+.  This bench tracks
// that scaling claim: schedule compilation (implicit_paper_plan, which
// runs the resolver's probe broadcasts on the bulk engine) and the
// instrumented slot kernel (bulk_simulate) on 2D-4 meshes from 4k to 2M
// nodes, plus 2D-8 (two resolver probes) and 3D-6 (the widest frontier)
// at 10^6 nodes, with per-size throughput in nodes/s.  The kernel runs
// twice per mesh: at the default width, whose wide slots run in bands
// on every core, and at one worker, for the speedup of the bands.
//
//   $ bulk_scale [--json-out BENCH_bulk.json]
//
// --json-out writes a meshbcast.bench JSON document (schema in
// EXPERIMENTS.md) with bulk_plan/, bulk_sim/ and bulk_sim/.../workers=1
// entries per mesh; nodes/s follows from runs_per_sec times the node
// count in the name.  Each bulk_plan/ row also carries the exact work of
// one compile, full_runs_count and reprobes_count, and its resolver's
// repairs_count and resolver_rounds_count, which bench_diff gates at
// tolerance 0.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "obs/profile.h"
#include "protocol/implicit_plan.h"
#include "sim/bulk/bulk_simulator.h"
#include "topology/implicit.h"

int main(int argc, char** argv) {
  wsn::CliParser cli("bulk_scale",
                     "bulk engine scaling: plan compile + slot kernel");
  cli.add_option("json-out", "meshbcast.bench JSON path ('' = skip)", "");
  if (!cli.parse(argc, argv)) return 1;

  // Iteration counts shrink with size so the 2M run stays CI-friendly;
  // the small mesh gets enough repeats to smooth scheduler noise.
  const struct {
    const char* family;
    int m, n, l;
    std::size_t min_iters;
  } meshes[] = {{"2D-4", 64, 64, 1, 16},      {"2D-4", 1000, 1000, 1, 3},
                {"2D-4", 2048, 1024, 1, 2},   {"2D-8", 1000, 1000, 1, 3},
                {"3D-6", 100, 100, 100, 3}};

  wsn::AsciiTable table({"Mesh", "nodes", "plan ms", "sim ms",
                         "sim nodes/s", "1-worker sim ms"});
  table.set_title("Bulk engine scaling (center source)");

  std::vector<wsn::BenchRow> results;
  std::size_t sink = 0;  // keeps the timed bodies observable
  wsn::Profiler& profiler = wsn::Profiler::instance();
  const auto span_count = [&](const char* name) {
    for (const wsn::Profiler::SpanStats& span : profiler.snapshot()) {
      if (span.name == name) return static_cast<double>(span.count);
    }
    return 0.0;
  };
  for (const auto& s : meshes) {
    const wsn::ImplicitLattice lat =
        wsn::ImplicitLattice::make(s.family, s.m, s.n, s.l);
    const wsn::NodeId src = lat.central_node();
    std::string key = std::string(s.family) + "/" + std::to_string(s.m) +
                      "x" + std::to_string(s.n);
    if (lat.is_3d()) key.append("x").append(std::to_string(s.l));

    results.push_back(wsn::bench::measure(
        "bulk_plan/" + key,
        [&] { sink += wsn::implicit_paper_plan(lat, src).tx_offsets.size(); },
        s.min_iters, /*min_seconds=*/0.0, /*max_iterations=*/64));
    // The work one compile does, exact on any host: its full broadcasts
    // (a re-probe that falls back counts as one) and its re-probes, read
    // off the engine's spans over one more, untimed compile, and the
    // repairs and rounds its resolver reports.
    wsn::ResolveReport resolve;
    profiler.reset();
    profiler.set_enabled(true);
    sink += wsn::implicit_paper_plan(lat, src, {}, &resolve).tx_offsets.size();
    profiler.set_enabled(false);
    results.back().metrics.emplace_back("full_runs_count",
                                        span_count("sim.bulk_simulate"));
    results.back().metrics.emplace_back("reprobes_count",
                                        span_count("sim.bulk_rerun"));
    results.back().metrics.emplace_back("repairs_count",
                                        static_cast<double>(resolve.repairs));
    results.back().metrics.emplace_back("resolver_rounds_count",
                                        static_cast<double>(resolve.rounds));

    const wsn::FlatRelayPlan plan = wsn::implicit_paper_plan(lat, src);
    results.push_back(wsn::bench::measure(
        "bulk_sim/" + key,
        [&] { sink += wsn::bulk_simulate(lat, plan).stats.reached; },
        s.min_iters, /*min_seconds=*/0.0, /*max_iterations=*/64));
    results.push_back(wsn::bench::measure(
        "bulk_sim/" + key + "/workers=1",
        [&] {
          wsn::BulkSimulator one(lat.num_nodes(), /*workers=*/1);
          sink += one.run(lat, plan).stats.reached;
        },
        s.min_iters, /*min_seconds=*/0.0, /*max_iterations=*/64));

    const wsn::BenchRow& plan_r = results[results.size() - 3];
    const wsn::BenchRow& sim_r = results[results.size() - 2];
    const double one_ms = *results.back().find("mean_ms");
    const double sim_mean_ms = *sim_r.find("mean_ms");
    const double nodes_per_sec =
        static_cast<double>(lat.num_nodes()) / (sim_mean_ms * 1e-3);
    char plan_ms[32], sim_ms[32], rate[32], one_sim_ms[32];
    std::snprintf(plan_ms, sizeof plan_ms, "%.3f", *plan_r.find("mean_ms"));
    std::snprintf(sim_ms, sizeof sim_ms, "%.3f", sim_mean_ms);
    std::snprintf(rate, sizeof rate, "%.2fM", nodes_per_sec / 1e6);
    std::snprintf(one_sim_ms, sizeof one_sim_ms, "%.3f", one_ms);
    table.add_row({key, std::to_string(lat.num_nodes()), plan_ms, sim_ms,
                   rate, one_sim_ms});
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\n'plan' compiles the schedule through the bulk resolver (probe "
      "broadcasts\nincluded); 'sim' is one fully instrumented broadcast "
      "over the compiled plan,\nits wide slots in bands on every core; "
      "'1-worker sim' runs it on one thread.\n(checksum %zu)\n",
      sink);

  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    if (!wsn::write_bench_doc(json_path, {"bulk_scale", results})) {
      return 1;
    }
    std::printf("wrote %s (%zu results)\n", json_path.c_str(),
                results.size());
  }
  return 0;
}
