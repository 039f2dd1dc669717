// Export a broadcast as machine-readable artifacts: the relay plan (CSV)
// and the full structured event trace in the src/obs schema -- JSONL for
// pandas/jq, plus an optional Chrome trace-event file that opens directly
// in about://tracing or https://ui.perfetto.dev.
//
//   $ export_trace [--family 2D-8] [--width 14] [--height 14]
//                  [--src-x 5] [--src-y 9]
//                  [--plan-out plan.csv] [--trace-out trace.jsonl]
//                  [--chrome-out trace_chrome.json]

#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.h"
#include "obs/event_sink.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "sim/trace_io.h"
#include "topology/factory.h"
#include "topology/grid2d.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"

int main(int argc, char** argv) {
  wsn::CliParser cli("export_trace", "dump a broadcast's plan + event trace "
                                     "(obs JSONL schema)");
  cli.add_option("family", "topology family (2D-3, 2D-4, 2D-8, 3D-6)",
                 "2D-8");
  cli.add_option("width", "mesh columns", "14");
  cli.add_option("height", "mesh rows", "14");
  cli.add_option("depth", "mesh planes (3D-6 only)", "1");
  cli.add_option("src", "source node id (0-based)", "116");
  cli.add_option("plan-out", "plan CSV path", "plan.csv");
  cli.add_option("trace-out", "event trace path", "trace.jsonl");
  cli.add_option("chrome-out",
                 "Chrome/Perfetto trace-event JSON path (empty = skip)", "");
  if (!cli.parse(argc, argv)) return 1;

  const auto topo = wsn::make_mesh(cli.get("family"),
                                   static_cast<int>(cli.get_u64("width")),
                                   static_cast<int>(cli.get_u64("height")),
                                   static_cast<int>(cli.get_u64("depth")));
  const auto src = static_cast<wsn::NodeId>(cli.get_u64("src"));
  if (src >= topo->num_nodes()) {
    std::fprintf(stderr, "source id %u out of range (%zu nodes)\n", src,
                 topo->num_nodes());
    return 1;
  }

  const wsn::RelayPlan plan = wsn::paper_plan(*topo, src);
  wsn::EventSink sink;
  wsn::Observer observer(&sink);
  wsn::SimOptions options;
  options.record_collisions = true;
  options.observer = &observer;
  const wsn::BroadcastOutcome out =
      wsn::simulate_broadcast(*topo, plan, options);

  const auto write_file = [](const std::string& path, auto&& writer) {
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    writer(file);
    return true;
  };

  const std::string plan_path = cli.get("plan-out");
  const std::string trace_path = cli.get("trace-out");
  const std::string chrome_path = cli.get("chrome-out");
  if (!write_file(plan_path, [&](std::ostream& file) {
        wsn::write_plan_csv(file, *topo, plan);
      })) {
    return 1;
  }
  if (!write_file(trace_path, [&](std::ostream& file) {
        wsn::write_events_jsonl(file, sink);
      })) {
    return 1;
  }
  if (!chrome_path.empty() &&
      !write_file(chrome_path, [&](std::ostream& file) {
        wsn::write_chrome_trace(file, sink);
      })) {
    return 1;
  }

  std::printf("%s, source %u: %s\n", topo->name().c_str(), src,
              out.stats.summary().c_str());
  std::printf("wrote %s (%zu plan rows) and %s (%llu events, %llu "
              "collisions)\n",
              plan_path.c_str(), plan.num_nodes(), trace_path.c_str(),
              static_cast<unsigned long long>(sink.total()),
              static_cast<unsigned long long>(
                  sink.count(wsn::EventKind::kCollision)));
  if (!chrome_path.empty()) {
    std::printf("wrote %s -- open it in about://tracing or "
                "https://ui.perfetto.dev\n",
                chrome_path.c_str());
  }
  return 0;
}
