// Audit a broadcast trace against the paper's invariants: energy ledger
// vs the First Order Radio Model, ETR vs the per-family optimum (Tables
// 1-2), delay vs Table 5, full coverage, and wavefront causality.
//
// Two modes:
//   file mode -- re-read a JSONL trace exported earlier (meshbcast_cli
//   run --trace-out t.jsonl, scenario_runner --trace-out):
//     $ trace_audit --trace trace.jsonl --family 2D-8 --width 14
//                   --height 14 --src 116
//   live mode (no --trace) -- run the paper broadcast on the requested
//   mesh and audit the ring buffer directly:
//     $ trace_audit --family 2D-4 --width 32 --height 16 --src 0
//
// Exit status: 0 when every check passes, 1 when the report carries
// violations, 2 on usage/IO errors.  --json-out writes the structured
// meshbcast.audit document for CI artifacts.

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/cli.h"
#include "common/string_util.h"
#include "obs/audit/auditor.h"
#include "obs/audit/trace_reader.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "topology/factory.h"

int main(int argc, char** argv) {
  wsn::CliParser cli("trace_audit",
                     "audit a broadcast trace against the paper's invariants",
                     2);
  cli.add_option("trace", "JSONL trace to audit (empty = run live)", "");
  cli.add_option("family", "topology family (2D-3, 2D-4, 2D-8, 3D-6)",
                 "2D-8");
  cli.add_option("width", "mesh columns", "14");
  cli.add_option("height", "mesh rows", "14");
  cli.add_option("depth", "mesh planes (3D-6 only)", "1");
  cli.add_option("src", "source node id, or 'infer' (file mode only)",
                 "infer");
  cli.add_option("packet-bits", "packet size used by the run", "512");
  cli.add_option("json-out", "write the meshbcast.audit report here", "");
  cli.add_flag("charge-collisions",
               "the run charged RX energy on collision slots");
  cli.add_flag("no-expect-coverage",
               "fault-injected trace: list unreached nodes without failing "
               "the coverage check");
  if (!cli.parse(argc, argv)) return 2;

  const std::string family = cli.get("family");
  if (!wsn::is_regular_family(family)) {
    std::fprintf(stderr, "unknown --family %s (2D-3|2D-4|2D-8|3D-6)\n",
                 family.c_str());
    return 2;
  }
  const auto dimension = [&](const char* name, int& out) {
    const std::uint64_t value = cli.get_u64(name);
    if (value == 0 ||
        value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      std::fprintf(stderr, "--%s must be a positive mesh dimension\n", name);
      return false;
    }
    out = static_cast<int>(value);
    return true;
  };
  int width = 0;
  int height = 0;
  int depth = 1;  // 2D families ignore it
  if (!dimension("width", width) || !dimension("height", height) ||
      (family == "3D-6" && !dimension("depth", depth))) {
    return 2;
  }
  const auto topo = wsn::make_mesh(family, width, height, depth);

  wsn::NodeId src = wsn::kInvalidNode;
  if (const std::string src_arg = cli.get("src"); src_arg != "infer") {
    std::uint64_t value = 0;
    if (!wsn::parse_u64(src_arg, value) || value >= topo->num_nodes()) {
      std::fprintf(stderr,
                   "bad --src %s (a node id below %zu, or 'infer')\n",
                   src_arg.c_str(), topo->num_nodes());
      return 2;
    }
    src = static_cast<wsn::NodeId>(value);
  }

  wsn::AuditConfig config;
  config.packet_bits = cli.get_u64("packet-bits");
  config.charge_collisions = cli.get_flag("charge-collisions");
  config.source = src;
  config.expect_full_coverage = !cli.get_flag("no-expect-coverage");
  config.family = family;

  wsn::AuditReport report;
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
    wsn::TraceDocument doc;
    std::string error;
    if (!wsn::read_trace_file(trace_path, doc, &error)) {
      std::fprintf(stderr, "cannot read %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 2;
    }
    config.dropped_events = doc.dropped;
    config.declared_events = doc.declared_events;
    report = wsn::audit_trace(*topo, doc.events, config);
    std::printf("audited %s: %zu events\n", trace_path.c_str(),
                doc.events.size());
  } else {
    if (src == wsn::kInvalidNode) {
      std::fprintf(stderr, "live mode needs an explicit --src\n");
      return 2;
    }
    const wsn::RelayPlan plan = wsn::paper_plan(*topo, src);
    wsn::EventSink sink;
    wsn::Observer observer(&sink);
    wsn::SimOptions options;
    options.record_collisions = true;
    options.charge_collisions = config.charge_collisions;
    options.packet_bits = config.packet_bits;
    options.observer = &observer;
    const wsn::BroadcastOutcome out =
        wsn::simulate_broadcast(*topo, plan, options);
    config.stats = &out.stats;
    report = wsn::audit_sink(*topo, sink, config);
    std::printf("ran %s, source %u: %s\n", topo->name().c_str(), src,
                out.stats.summary().c_str());
  }

  std::printf("%s", wsn::audit_summary_text(report).c_str());

  if (const std::string json_path = cli.get("json-out"); !json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    wsn::write_audit_json(out, report);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.passed() ? 0 : 1;
}
