// Plan-store microbenchmarks: BENCH_plan_cache.json.
//
//   $ plan_cache [--width 32] [--height 16] [--json-out BENCH_plan_cache.json]
//
// Times the plan-store tiers against the thing they replace -- resolver-
// backed plan compilation -- on the paper's 32x16 2D-4 mesh:
//
//   compile_cold        paper_plan for every source, no cache
//   sweep_warm_mem      same set through a pre-warmed memory tier
//   sweep_warm_disk     fresh store each iteration over a warmed artifact
//                       directory (memory tier cold, disk tier hot)
//   serialize / deserialize / fingerprint   per-operation costs
//
// The headline number is the cold/warm-disk speedup printed at the end:
// the acceptance bar is >= 5x (EXPERIMENTS.md).  Output follows the
// meshbcast.bench schema from analysis/bench_doc.h.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "protocol/registry.h"
#include "store/plan_store.h"
#include "store/serialize.h"
#include "topology/factory.h"

namespace {

/// A scratch artifact directory under the system temp dir, removed on
/// destruction so repeated bench runs start cold.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("meshbcast_bench_" + tag);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("plan_cache", "plan-store performance benchmarks");
  cli.add_option("family", "2D-3, 2D-4, 2D-8 or 3D-6", "2D-4");
  cli.add_option("width", "mesh columns", "32");
  cli.add_option("height", "mesh rows", "16");
  cli.add_option("json-out", "bench JSON output path",
                 "BENCH_plan_cache.json");
  if (!cli.parse(argc, argv)) return 1;

  const auto topo = wsn::make_mesh(cli.get("family"),
                                   static_cast<int>(cli.get_u64("width")),
                                   static_cast<int>(cli.get_u64("height")),
                                   /*depth=*/8);
  const std::size_t n = topo->num_nodes();
  const std::string label =
      cli.get("family") + "_" + cli.get("width") + "x" + cli.get("height");

  std::vector<wsn::BenchRow> results;

  // --- per-operation costs -------------------------------------------------
  wsn::ResolveReport report;
  const wsn::StoredPlan sample{wsn::paper_plan(*topo, 0, {}, &report), report};
  results.push_back(wsn::bench::measure("serialize/" + label, [&] {
    const std::string bytes = wsn::serialize_plan(sample);
    if (bytes.empty()) std::abort();
  }));

  const std::string bytes = wsn::serialize_plan(sample);
  results.push_back(wsn::bench::measure("deserialize/" + label, [&] {
    wsn::StoredPlan out;
    if (wsn::deserialize_plan(bytes, out) != wsn::PlanSerdeStatus::kOk) {
      std::abort();
    }
  }));

  results.push_back(wsn::bench::measure("fingerprint/" + label, [&] {
    (void)wsn::fingerprint_plan_request(*topo, 0, "paper", {});
  }));

  // --- full-sweep plan construction, cold vs warm --------------------------
  // Sweep-sized iterations are heavy, so run few of them; the spread
  // between cold and warm is orders of magnitude, not noise-sized.
  // Mirrors sweep_all_sources' plan acquisition exactly: the cached path
  // borrows the stored plan (shared_ptr), it does not copy it.
  const auto compile_all = [&](wsn::PlanStore* store) {
    for (std::size_t src = 0; src < n; ++src) {
      const auto source = static_cast<wsn::NodeId>(src);
      if (store != nullptr) {
        const auto stored = store->fetch_or_compile(
            *topo, source, "paper", {}, [&](wsn::ResolveReport& fresh) {
              return wsn::paper_plan(*topo, source, {}, &fresh);
            });
        if (stored->plan.num_nodes() != n) std::abort();
      } else {
        (void)wsn::paper_plan(*topo, source);
      }
    }
  };

  const wsn::BenchRow cold = wsn::bench::measure(
      "compile_cold/" + label, [&] { compile_all(nullptr); },
      /*min_iterations=*/3, /*min_seconds=*/0.1);
  results.push_back(cold);

  wsn::PlanStore mem_store;
  compile_all(&mem_store);  // warm the memory tier
  results.push_back(wsn::bench::measure(
      "sweep_warm_mem/" + label, [&] { compile_all(&mem_store); },
      /*min_iterations=*/3, /*min_seconds=*/0.1));

  const TempDir tmp("plan_cache");
  {
    wsn::PlanStore::Config config;
    config.disk_dir = tmp.path.string();
    wsn::PlanStore warmer(config);
    compile_all(&warmer);  // warm the artifact directory
  }
  const wsn::BenchRow warm_disk = wsn::bench::measure(
      "sweep_warm_disk/" + label,
      [&] {
        // A fresh store per iteration: every plan resolves from disk.
        wsn::PlanStore::Config config;
        config.disk_dir = tmp.path.string();
        wsn::PlanStore store(config);
        compile_all(&store);
      },
      /*min_iterations=*/3, /*min_seconds=*/0.1);
  results.push_back(warm_disk);

  for (const wsn::BenchRow& r : results) {
    std::printf("%-28s %8.0f iters  %12.3f runs/s  mean %10.4f ms\n",
                r.name.c_str(), *r.find("iterations"),
                *r.find("runs_per_sec"), *r.find("mean_ms"));
  }
  const double cold_ms = *cold.find("mean_ms");
  const double warm_disk_ms = *warm_disk.find("mean_ms");
  const double speedup = warm_disk_ms > 0.0 ? cold_ms / warm_disk_ms : 0.0;
  std::printf("\n%zu-source plan construction: cold %.2f ms, warm disk "
              "%.2f ms -> %.1fx speedup\n",
              n, cold_ms, warm_disk_ms, speedup);

  if (!wsn::write_bench_doc(cli.get("json-out"), {"plan_cache", results})) {
    return 1;
  }
  std::printf("wrote %s\n", cli.get("json-out").c_str());
  return 0;
}
