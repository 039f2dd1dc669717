// Wall-time attribution CLI (analysis/attribution.h).
//
//   $ perf_report --timeline run.timeline.jsonl
//       [--metrics metrics.json] [--json-out perf_report.json]
//       [--check] [--min-attribution 0.9]
//       [--request <id>] [--slowest N]
//
// Ingests a `meshbcast.timeline` v1 dump (scenario_runner
// --timeline-out), folds it into a per-thread wall-time decomposition --
// compute / queue-wait / idle / lock-wait / emission-stall /
// unattributed -- and names the dominant stall source across the worker
// threads.  With --metrics, the contention histograms from a
// `meshbcast.metrics` scrape are embedded in the JSON report so one
// artifact carries both the when (timeline) and the how-often
// (histograms).
//
// --check turns the report into a gate: exit 1 unless the timeline has
// at least one worker thread and every worker's attributed share reaches
// --min-attribution.  Exit status: 0 ok, 1 check failed, 2 usage/IO
// errors.
//
// Service timelines (meshbcastd --timeline-out) tag every span with the
// request id the daemon assigned; --request <id> prints that request's
// stage decomposition -- admission, queue wait, execution, emission --
// across the handler and worker threads, and --slowest N lists the N
// largest request wall extents so slow outliers can be picked out
// without knowing their ids up front.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/attribution.h"
#include "common/cli.h"
#include "common/json.h"

namespace {

/// Rebuilds the histogram part of a MetricsSnapshot from a
/// `meshbcast.metrics` scrape file -- enough for the percentile summary
/// the report embeds.  Returns false (with a note on stderr) on any
/// parse problem; the report then simply omits the histograms.
bool read_metrics_file(const std::string& path, wsn::MetricsSnapshot& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perf_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  wsn::JsonValue doc;
  std::string error;
  if (!wsn::parse_json(buffer.str(), doc, &error) ||
      doc.string_or("schema", "") != "meshbcast.metrics") {
    std::fprintf(stderr, "perf_report: %s is not a meshbcast.metrics scrape\n",
                 path.c_str());
    return false;
  }
  const wsn::JsonValue* histograms = doc.find("histograms");
  if (histograms == nullptr || !histograms->is_object()) return true;
  for (const auto& [name, h] : histograms->as_object()) {
    if (!h.is_object()) continue;
    wsn::HistogramSnapshot snap;
    snap.name = name;
    if (const wsn::JsonValue* bounds = h.find("upper_bounds");
        bounds != nullptr && bounds->is_array()) {
      for (const wsn::JsonValue& b : bounds->as_array()) {
        if (b.is_number()) snap.upper_bounds.push_back(b.as_number());
      }
    }
    if (const wsn::JsonValue* buckets = h.find("buckets");
        buckets != nullptr && buckets->is_array()) {
      for (const wsn::JsonValue& b : buckets->as_array()) {
        std::uint64_t v = 0;
        if (b.to_u64(v)) snap.buckets.push_back(v);
      }
    }
    snap.count = static_cast<std::uint64_t>(h.number_or("count", 0));
    snap.sum = h.number_or("sum", 0.0);
    snap.min = h.number_or("min", 0.0);
    snap.max = h.number_or("max", 0.0);
    out.histograms.push_back(std::move(snap));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("perf_report",
                     "attribute per-worker wall time from a span timeline",
                     2);
  cli.add_option("timeline", "meshbcast.timeline JSONL dump to ingest", "");
  cli.add_option("metrics", "meshbcast.metrics scrape to embed ('' = none)",
                 "");
  cli.add_option("json-out", "write the meshbcast.perf_report JSON here"
                 " ('' = skip)", "");
  cli.add_option("min-attribution",
                 "with --check: minimum attributed share per worker", "0.9");
  cli.add_flag("check",
               "gate mode: fail unless workers exist and reach the"
               " attribution floor");
  cli.add_option("request",
                 "decompose one request id from a tagged service timeline"
                 " (0 = off)", "0");
  cli.add_option("slowest",
                 "list the N slowest tagged requests (0 = off)", "0");
  if (!cli.parse(argc, argv)) return 2;

  const std::string timeline_path = cli.get("timeline");
  if (timeline_path.empty()) {
    std::fprintf(stderr, "perf_report: --timeline is required\n");
    return 2;
  }
  const double min_attribution = cli.get_f64("min-attribution");
  if (min_attribution < 0.0 || min_attribution > 1.0) {
    std::fprintf(stderr, "min-attribution must be in [0, 1]\n");
    return 2;
  }

  std::vector<wsn::ParsedTimelineThread> threads;
  std::string error;
  if (!wsn::read_timeline_file(timeline_path, threads, &error)) {
    std::fprintf(stderr, "perf_report: %s\n", error.c_str());
    return 2;
  }

  // Request-centric modes short-circuit the per-thread report: they
  // answer "what happened to request N", not "where did the workers go".
  const std::uint64_t request_id = cli.get_u64("request");
  const std::uint64_t slowest = cli.get_u64("slowest");
  if (request_id != 0 || slowest != 0) {
    if (slowest != 0) {
      const auto extents = wsn::slowest_requests(
          threads, static_cast<std::size_t>(slowest));
      if (extents.empty()) {
        std::fprintf(stderr, "perf_report: no tagged request spans in %s\n",
                     timeline_path.c_str());
        return 1;
      }
      std::printf("slowest requests (%zu of the tagged set):\n",
                  extents.size());
      std::printf("  request      wall_ms  spans\n");
      for (const wsn::RequestExtent& e : extents) {
        std::printf("  %-10llu %9.2f  %5llu\n",
                    static_cast<unsigned long long>(e.tag),
                    static_cast<double>(e.wall_ns()) / 1e6,
                    static_cast<unsigned long long>(e.spans));
      }
    }
    if (request_id != 0) {
      const auto rows = wsn::spans_for_request(threads, request_id);
      std::printf("%s", wsn::request_breakdown_text(rows, request_id).c_str());
      if (rows.empty()) return 1;
    }
    return 0;
  }

  const wsn::AttributionReport report = wsn::attribute_timeline(threads);
  std::printf("%s", wsn::attribution_text(report).c_str());

  wsn::MetricsSnapshot metrics;
  bool have_metrics = false;
  const std::string metrics_path = cli.get("metrics");
  if (!metrics_path.empty()) {
    have_metrics = read_metrics_file(metrics_path, metrics);
  }

  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    wsn::write_attribution_json(out, report,
                                have_metrics ? &metrics : nullptr);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (cli.get_flag("check")) {
    if (report.workers == 0) {
      std::fprintf(stderr,
                   "perf_report: check failed: no worker threads in %s\n",
                   timeline_path.c_str());
      return 1;
    }
    if (report.min_worker_attributed_share < min_attribution) {
      std::fprintf(stderr,
                   "perf_report: check failed: min worker attribution "
                   "%.3f < %.3f\n",
                   report.min_worker_attributed_share, min_attribution);
      return 1;
    }
    std::printf("check: PASS (%zu workers, min attribution %.3f)\n",
                report.workers, report.min_worker_attributed_share);
  }
  return 0;
}
