// google-benchmark microbenchmarks of the simulation engine itself:
// per-broadcast latency across network sizes, plan construction cost, the
// resolver's overhead, and the parallel full-sweep throughput that powers
// Tables 3-5.
//
// Besides the interactive google-benchmark output, the binary self-times
// one broadcast per paper topology and writes BENCH_perf.json
// (meshbcast.bench schema, see EXPERIMENTS.md) so CI can archive the perf
// trajectory:
//
//   $ perf_simulator [--json-out BENCH_perf.json] [--no-gbench] [gbench args]

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "bench_json.h"
#include "protocol/mesh2d4_broadcast.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d4.h"
#include "topology/mesh3d6.h"

namespace {

void BM_Simulate2D4(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const wsn::Mesh2D4 topo(2 * side, side);
  const wsn::Mesh2d4Broadcast protocol;
  const wsn::NodeId src = topo.grid().to_id({side, side / 2 + 1});
  const wsn::RelayPlan plan = protocol.plan(topo, src);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wsn::simulate_broadcast(topo, plan));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topo.num_nodes()));
}
BENCHMARK(BM_Simulate2D4)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_PlanConstruction2D4(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const wsn::Mesh2D4 topo(2 * side, side);
  const wsn::Mesh2d4Broadcast protocol;
  const wsn::NodeId src = topo.grid().to_id({side, side / 2 + 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.plan(topo, src));
  }
}
BENCHMARK(BM_PlanConstruction2D4)->Arg(16)->Arg(64);

void BM_ResolvedPlan3D6(benchmark::State& state) {
  const wsn::Mesh3D6 topo(8, 8, 8);
  const wsn::NodeId src = topo.grid().to_id({6, 8, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wsn::paper_plan(topo, src));
  }
}
BENCHMARK(BM_ResolvedPlan3D6);

void BM_TopologyConstruction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const wsn::Mesh2D4 topo(2 * side, side);
    benchmark::DoNotOptimize(topo.num_nodes());
  }
}
BENCHMARK(BM_TopologyConstruction)->Arg(16)->Arg(64);

void BM_FullSweep2D4(benchmark::State& state) {
  const wsn::Mesh2D4 topo(32, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wsn::sweep_all_sources(topo));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topo.num_nodes()));
}
BENCHMARK(BM_FullSweep2D4)->Unit(benchmark::kMillisecond);

// One self-timed broadcast per paper topology (center source) plus the
// parallel full sweep -- the numbers the BENCH_perf.json trajectory tracks.
std::vector<wsn::BenchRow> run_json_benches() {
  std::vector<wsn::BenchRow> results;
  for (const std::string& family : wsn::regular_families()) {
    const auto topo = wsn::make_paper_topology(family);
    const wsn::NodeId src = wsn::graph_center(*topo);
    const wsn::RelayPlan plan = wsn::paper_plan(*topo, src);
    results.push_back(wsn::bench::measure("simulate/" + family, [&] {
      benchmark::DoNotOptimize(wsn::simulate_broadcast(*topo, plan));
    }));
  }
  {
    const wsn::Mesh2D4 topo(32, 16);
    results.push_back(wsn::bench::measure(
        "sweep_all_sources/2D-4",
        [&] { benchmark::DoNotOptimize(wsn::sweep_all_sources(topo)); },
        /*min_iterations=*/4, /*min_seconds=*/0.5));
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the json-emission flags before handing the rest to
  // google-benchmark (it rejects unknown arguments).
  std::string json_path = "BENCH_perf.json";
  bool run_gbench = true;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-gbench") {
      run_gbench = false;
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json-out="));
    } else {
      kept.push_back(argv[i]);
    }
  }

  const std::vector<wsn::BenchRow> results = run_json_benches();
  if (!json_path.empty()) {
    if (!wsn::write_bench_doc(json_path, {"perf_simulator", results})) {
      return 1;
    }
    std::printf("wrote %s (%zu results)\n\n", json_path.c_str(),
                results.size());
  }

  if (run_gbench) {
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
