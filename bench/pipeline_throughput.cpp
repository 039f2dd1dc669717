// Extension bench: sustainable broadcast throughput of the paper's
// protocols.
//
// A deployed WSN broadcasts continuously; the figure of merit beyond the
// paper's single-shot delay is the *pipeline period* -- the smallest
// injection interval at which a stream of packets still reaches every
// node.  The relay structure sets it: wavefronts `interval` slots apart
// interfere wherever a relay serves two packets at once.  A center and a
// corner source are reported per topology, with the single-shot delay for
// scale (period << delay means the protocol pipelines well).
//
//   $ pipeline_throughput [--json-out BENCH_pipeline.json]
//
// --json-out additionally self-times the period search per topology and
// writes a meshbcast.bench JSON document (schema in EXPERIMENTS.md).

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "common/cli.h"
#include "common/string_util.h"
#include "common/table.h"
#include "protocol/registry.h"
#include "sim/pipeline.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"

namespace {

void add_row(wsn::AsciiTable& table, const wsn::Topology& topo,
             const std::string& family, const char* where, wsn::NodeId src) {
  const wsn::RelayPlan plan = wsn::paper_plan(topo, src);
  const auto single = wsn::simulate_broadcast(topo, plan);
  const wsn::Slot period =
      wsn::min_pipeline_interval(topo, plan, /*packets=*/3, /*limit=*/256);
  table.add_row({family, where, std::to_string(single.stats.delay),
                 period == 0 ? std::string("-") : std::to_string(period),
                 period == 0
                     ? std::string("-")
                     : wsn::fixed(static_cast<double>(single.stats.delay) /
                                      static_cast<double>(period),
                                  2)});
}

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("pipeline_throughput",
                     "smallest safe injection interval per topology");
  cli.add_option("json-out", "meshbcast.bench JSON path ('' = skip)", "");
  if (!cli.parse(argc, argv)) return 1;

  wsn::AsciiTable table({"Topology", "source", "single-shot delay",
                         "pipeline period", "packets in flight"});
  table.set_title(
      "Pipeline throughput: smallest safe injection interval (3-packet "
      "stream)");

  std::vector<wsn::BenchRow> results;
  const std::string json_path = cli.get("json-out");
  for (const std::string& family : wsn::regular_families()) {
    const auto topo = wsn::make_paper_topology(family);
    const wsn::NodeId center = wsn::graph_center(*topo);
    add_row(table, *topo, family, "center", center);
    add_row(table, *topo, family, "corner", 0);
    if (!json_path.empty()) {
      const wsn::RelayPlan plan = wsn::paper_plan(*topo, center);
      results.push_back(wsn::bench::measure(
          "pipeline_period/" + family,
          [&] {
            volatile wsn::Slot period = wsn::min_pipeline_interval(
                *topo, plan, /*packets=*/3, /*limit=*/256);
            (void)period;
          },
          /*min_iterations=*/4, /*min_seconds=*/0.2));
    }
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\n'packets in flight' = delay / period: how many broadcast "
      "wavefronts the mesh\nsustains concurrently before they interfere.\n");
  if (!json_path.empty()) {
    if (!wsn::write_bench_doc(json_path, {"pipeline_throughput", results})) {
      return 1;
    }
    std::printf("wrote %s (%zu results)\n", json_path.c_str(),
                results.size());
  }
  return 0;
}
