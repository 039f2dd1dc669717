// The library as a command-line multitool.
//
//   meshbcast_cli run      --family 2D-4 --width 32 --height 16 --src 264
//   meshbcast_cli sweep    --family 2D-8                       (all sources)
//   meshbcast_cli viz      --family 2D-3 --src 201             (relay map)
//   meshbcast_cli viz      --family 2D-8 --frames 12           (+ wavefront)
//   meshbcast_cli pipeline --family 2D-4 --packets 4           (throughput)
//
// One binary exposing the main entry points: single broadcast, full
// source sweep, role-map rendering (with --frames N, also the first N
// slots of the broadcast as it spreads), and pipeline-period search.  The
// --protocol flag switches between the paper's specialized rules, the
// generic CDS, and the flooding/gossip baselines.
//
// Observability (any command):
//   --trace-out t.json     Chrome/Perfetto trace (t.jsonl -> JSONL events)
//   --metrics-out m.json   metrics-registry scrape after the run
//   --profile              print the profiling-span report on exit
//
// Plan store (run | sweep | viz | pipeline):
//   --plan-cache DIR       compile through a disk-backed plan store
//                          (store/plan_store.h); repeated invocations hit
//   --plan-out FILE        write the compiled plan as a binary artifact
//   --plan-in FILE         load the plan from an artifact instead of
//                          compiling (node count validated)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "analysis/ascii_viz.h"
#include "analysis/sweep.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/event_sink.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "protocol/cds_broadcast.h"
#include "protocol/flooding.h"
#include "protocol/gossip.h"
#include "protocol/implicit_plan.h"
#include "protocol/registry.h"
#include "sim/bulk/bulk_audit.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/pipeline.h"
#include "store/plan_store.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"

namespace {

/// A plan plus where it came from: freshly compiled, a plan-store tier,
/// or a --plan-in artifact.  `has_report` is true for the resolver-backed
/// protocols (paper, cds) and for artifacts, which store their report.
/// The plan is held in the engines' flat form, so a stored or loaded plan
/// is simulated and written back without expanding it.
struct PlanOutcome {
  wsn::FlatRelayPlan plan;
  wsn::ResolveReport report;
  bool has_report = false;
  std::string origin = "compiled";
};

PlanOutcome make_plan(const std::string& protocol, const wsn::Topology& topo,
                      wsn::NodeId src, wsn::PlanStore* store) {
  PlanOutcome out;
  if (protocol == "paper" || protocol == "cds") {
    const auto compile = [&](wsn::ResolveReport& report) {
      return protocol == "paper"
                 ? wsn::paper_plan(topo, src, {}, &report)
                 : wsn::resolve_full_reachability(
                       topo, wsn::CdsBroadcast().plan(topo, src), {},
                       &report);
    };
    if (store != nullptr) {
      wsn::PlanStore::Origin origin = wsn::PlanStore::Origin::kCompiled;
      const auto stored =
          store->fetch_or_compile(topo, src, protocol, {}, compile, &origin);
      out.plan = stored->plan;
      out.report = stored->report;
      out.origin = wsn::to_string(origin);
    } else {
      out.plan = compile(out.report);
    }
    out.has_report = true;
    return out;
  }
  if (protocol == "flood") {
    out.plan = wsn::Flooding(7).plan(topo, src);
    return out;
  }
  if (protocol == "gossip") {
    out.plan = wsn::Gossip(0.65, 7).plan(topo, src);
    return out;
  }
  std::fprintf(stderr, "unknown --protocol %s (paper|cds|flood|gossip)\n",
               protocol.c_str());
  std::exit(1);
}

/// Renders the resolver's account of the plan for the summary output, so
/// a cached plan can be compared against a fresh compile at a glance.
std::string plan_line(const PlanOutcome& outcome) {
  std::string line = "plan: " + outcome.origin;
  if (outcome.has_report) {
    line += ", repairs=" + std::to_string(outcome.report.repairs) +
            ", rounds=" + std::to_string(outcome.report.rounds) +
            ", unrepaired=" + std::to_string(outcome.report.unrepaired);
  } else {
    line += " (no resolver report)";
  }
  return line;
}

const wsn::Grid2D* grid2d_of(const wsn::Topology& topo) {
  if (const auto* m = dynamic_cast<const wsn::Mesh2D3*>(&topo)) {
    return &m->grid();
  }
  if (const auto* m = dynamic_cast<const wsn::Mesh2D4*>(&topo)) {
    return &m->grid();
  }
  if (const auto* m = dynamic_cast<const wsn::Mesh2D8*>(&topo)) {
    return &m->grid();
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  wsn::CliParser cli("meshbcast_cli",
                     "run | sweep | viz | pipeline on any mesh");
  cli.add_option("family", "2D-3, 2D-4, 2D-8 or 3D-6", "2D-4");
  cli.add_option("width", "mesh columns", "32");
  cli.add_option("height", "mesh rows", "16");
  cli.add_option("depth", "mesh planes (3D-6)", "8");
  cli.add_option("src", "source node id; 'center' for the graph center",
                 "center");
  cli.add_option("protocol", "paper, cds, flood or gossip", "paper");
  cli.add_option("engine",
                 "reference (materialized adjacency) or bulk (implicit "
                 "lattice + bitset kernel; handles million-node meshes)",
                 "reference");
  cli.add_option("progress-slots",
                 "--engine bulk: heartbeat line on stderr every N completed "
                 "slots (0 = silent)",
                 "0");
  cli.add_option("packets", "pipeline depth (pipeline command)", "4");
  cli.add_option("frames",
                 "viz: also print the wavefront of the first N slots "
                 "('*' transmits, 'x' collision, 'o' holds, '.' waits)",
                 "0");
  cli.add_option("workers",
                 "sweep worker threads (flag > MESHBCAST_THREADS > "
                 "hardware)",
                 "0");
  cli.add_option("trace-out",
                 "event trace path: .jsonl = JSONL, else Chrome/Perfetto "
                 "trace-event JSON",
                 "");
  cli.add_option("metrics-out", "metrics JSON path", "");
  cli.add_flag("profile", "print the profiling-span report");
  cli.add_option("timeline-out",
                 "record per-thread span timelines; .jsonl = "
                 "meshbcast.timeline, else Chrome/Perfetto trace-event JSON",
                 "");
  cli.add_option("plan-cache",
                 "plan-store directory; compiles go through the cache", "");
  cli.add_option("plan-out", "write the compiled plan artifact here", "");
  cli.add_option("plan-in",
                 "load the plan from this artifact instead of compiling",
                 "");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::fputs(cli.usage().c_str(), stderr);
    return 1;
  }
  const std::string command = cli.positional().front();

  const std::string trace_path = cli.get("trace-out");
  const std::string metrics_path = cli.get("metrics-out");
  const bool profile = cli.get_flag("profile");
  if (profile) wsn::Profiler::instance().set_enabled(true);
  const std::string timeline_path = cli.get("timeline-out");
  if (!timeline_path.empty()) wsn::Timeline::instance().set_enabled(true);
  if (!trace_path.empty() && command == "sweep") {
    std::fprintf(stderr,
                 "--trace-out is per-run; sweep runs sources concurrently "
                 "(use --metrics-out / --profile there)\n");
    return 1;
  }
  wsn::EventSink sink;
  wsn::MetricsRegistry registry;
  wsn::Observer observer(trace_path.empty() ? nullptr : &sink, &registry);
  const bool observe = !trace_path.empty() || !metrics_path.empty();

  // Writes the requested observability artifacts, then forwards `code`.
  const auto finish = [&](int code) {
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      if (trace_path.size() >= 6 &&
          trace_path.rfind(".jsonl") == trace_path.size() - 6) {
        wsn::write_events_jsonl(file, sink);
      } else {
        wsn::write_chrome_trace(file, sink);
      }
      std::printf("trace: %s (%llu events)\n", trace_path.c_str(),
                  static_cast<unsigned long long>(sink.total()));
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      wsn::write_metrics_json(file, registry.scrape());
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
    if (profile) {
      std::fputs(wsn::Profiler::instance().report_text().c_str(), stdout);
    }
    if (!timeline_path.empty()) {
      std::ofstream file(timeline_path);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", timeline_path.c_str());
        return 1;
      }
      const auto threads = wsn::Timeline::instance().snapshot();
      if (timeline_path.size() >= 6 &&
          timeline_path.rfind(".jsonl") == timeline_path.size() - 6) {
        wsn::write_timeline_jsonl(file, threads);
      } else {
        wsn::write_timeline_perfetto(file, threads);
      }
      std::printf("timeline: %s\n", timeline_path.c_str());
    }
    return code;
  };

  const std::string engine = cli.get("engine");
  if (engine != "reference" && engine != "bulk") {
    std::fprintf(stderr, "unknown --engine %s (reference|bulk)\n",
                 engine.c_str());
    return 1;
  }
  // The mesh shape is checked once for both engines, so a bad value is a
  // usage error rather than a topology precondition failure.
  const std::string family = cli.get("family");
  if (!wsn::is_regular_family(family)) {
    std::fprintf(stderr, "unknown --family %s (2D-3|2D-4|2D-8|3D-6)\n",
                 family.c_str());
    return 1;
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
    return 1;
  }
  if (engine == "bulk") {
    // Validate the whole flag surface BEFORE touching the mesh: at bulk
    // sizes nothing may be allocated until we know the run can proceed.
    if (command != "run") {
      std::fprintf(stderr,
                   "--engine bulk supports the run command only; sweep, viz "
                   "and pipeline need the materialized engine (drop "
                   "--engine or use --engine reference)\n");
      return 1;
    }
    if (cli.get("protocol") != "paper") {
      std::fprintf(stderr,
                   "--engine bulk implements the paper protocols only; "
                   "--protocol %s needs the materialized engine\n",
                   cli.get("protocol").c_str());
      return 1;
    }
    if (!cli.get("plan-cache").empty() || !cli.get("plan-in").empty() ||
        !cli.get("plan-out").empty()) {
      std::fprintf(stderr,
                   "--engine bulk compiles plans in memory; the plan store "
                   "flags (--plan-cache/--plan-in/--plan-out) need the "
                   "materialized engine\n");
      return 1;
    }
    wsn::SimOptions bulk_options;
    bulk_options.observer = observe ? &observer : nullptr;
    std::string why;
    if (!wsn::BulkSimulator::options_supported(bulk_options, &why)) {
      std::fprintf(stderr,
                   "--engine bulk: unsupported option (%s); drop "
                   "--trace-out/--metrics-out or use --engine reference\n",
                   why.c_str());
      return 1;
    }

    const wsn::ImplicitLattice lat =
        wsn::ImplicitLattice::make(family, width, height, depth);
    wsn::NodeId bulk_src = 0;
    if (cli.get("src") == "center") {
      bulk_src = lat.central_node();
    } else {
      std::uint64_t value = 0;
      if (!wsn::parse_u64(cli.get("src"), value) ||
          value >= lat.num_nodes()) {
        std::fprintf(stderr, "bad --src\n");
        return 1;
      }
      bulk_src = static_cast<wsn::NodeId>(value);
    }

    // Without a progress heartbeat the resolver's last probe is the run
    // itself; with one, the plan is simulated again under the callback.
    const std::uint64_t progress_slots = cli.get_u64("progress-slots");
    wsn::ResolveReport report;
    wsn::BroadcastOutcome out;
    const wsn::RelayPlan plan = wsn::implicit_paper_plan(
        lat, bulk_src, bulk_options, &report,
        progress_slots == 0 ? &out : nullptr);
    if (progress_slots != 0) {
      wsn::BulkSimulator engine_sim(lat.num_nodes());
      engine_sim.set_progress(
          [](const wsn::BulkProgress& p) {
            std::fprintf(stderr,
                         "bulk: slot %llu, %llu slot(s) done, frontier "
                         "%zu, reached %zu/%zu (%.1f%%), %.2fs elapsed\n",
                         static_cast<unsigned long long>(p.slot),
                         static_cast<unsigned long long>(p.slots_done),
                         p.frontier, p.reached, p.total_nodes,
                         p.total_nodes != 0
                             ? 100.0 * static_cast<double>(p.reached) /
                                   static_cast<double>(p.total_nodes)
                             : 0.0,
                         p.elapsed_s);
          },
          progress_slots);
      out = engine_sim.run(lat, plan, bulk_options);
    }
    const wsn::BulkAuditReport audit =
        wsn::audit_bulk_outcome(lat, out, bulk_src);
    std::printf("%s, source %u, paper protocol (bulk engine)\n  %s\n"
                "  plan: compiled, repairs=%zu, rounds=%zu, unrepaired=%zu\n"
                "  audit: relay-mean ETR %.6f, conservation %s, coverage "
                "%s\n",
                lat.name().c_str(), bulk_src, out.stats.summary().c_str(),
                report.repairs, report.rounds, report.unrepaired,
                audit.relay_mean_etr,
                audit.conservation_ok() ? "ok" : "VIOLATED",
                audit.full_coverage() ? "full" : "PARTIAL");
    return finish(0);
  }

  const auto topo = wsn::make_mesh(family, width, height, depth);
  wsn::NodeId src = 0;
  if (cli.get("src") == "center") {
    src = wsn::graph_center(*topo);
  } else {
    std::uint64_t value = 0;
    if (!wsn::parse_u64(cli.get("src"), value) ||
        value >= topo->num_nodes()) {
      std::fprintf(stderr, "bad --src\n");
      return 1;
    }
    src = static_cast<wsn::NodeId>(value);
  }

  wsn::SimOptions sim_options;
  sim_options.observer = observe ? &observer : nullptr;

  std::unique_ptr<wsn::PlanStore> store;
  if (!cli.get("plan-cache").empty()) {
    wsn::PlanStore::Config store_config;
    store_config.disk_dir = cli.get("plan-cache");
    store = std::make_unique<wsn::PlanStore>(store_config);
    if (store->disk() == nullptr || !store->disk()->ok()) {
      std::fprintf(stderr, "cannot open --plan-cache %s\n",
                   cli.get("plan-cache").c_str());
      return 1;
    }
    store->bind_metrics(registry);
  }

  // Builds (or loads, with --plan-in) the plan for the active command and
  // writes the --plan-out artifact.  Exits with a diagnostic on a bad
  // artifact -- a plan for the wrong topology must never reach the
  // simulator's contract checks.
  const auto obtain_plan = [&](const std::string& protocol) {
    PlanOutcome outcome;
    const std::string plan_in = cli.get("plan-in");
    if (!plan_in.empty()) {
      wsn::StoredPlan stored;
      const wsn::PlanSerdeStatus status =
          wsn::read_plan_file(plan_in, stored);
      if (status != wsn::PlanSerdeStatus::kOk) {
        std::fprintf(stderr, "--plan-in %s: %s\n", plan_in.c_str(),
                     std::string(wsn::to_string(status)).c_str());
        std::exit(1);
      }
      if (stored.plan.num_nodes() != topo->num_nodes()) {
        std::fprintf(stderr,
                     "--plan-in %s: plan is for %zu nodes but %s has %zu\n",
                     plan_in.c_str(), stored.plan.num_nodes(),
                     topo->name().c_str(), topo->num_nodes());
        std::exit(1);
      }
      outcome.plan = std::move(stored.plan);
      outcome.report = stored.report;
      outcome.has_report = true;
      outcome.origin = "artifact " + plan_in;
    } else {
      outcome = make_plan(protocol, *topo, src, store.get());
    }
    const std::string plan_out = cli.get("plan-out");
    if (!plan_out.empty()) {
      if (!wsn::write_plan_file(
              plan_out,
              wsn::StoredPlan{outcome.plan, outcome.report})) {
        std::fprintf(stderr, "cannot write --plan-out %s\n",
                     plan_out.c_str());
        std::exit(1);
      }
      std::printf("plan artifact: %s\n", plan_out.c_str());
    }
    return outcome;
  };

  if (command == "run") {
    const PlanOutcome outcome = obtain_plan(cli.get("protocol"));
    const auto out = wsn::simulate_broadcast(*topo, outcome.plan, sim_options);
    std::printf("%s, source %u, %s protocol\n  %s\n  %s\n",
                topo->name().c_str(), src, cli.get("protocol").c_str(),
                out.stats.summary().c_str(), plan_line(outcome).c_str());
    return finish(0);
  }
  if (command == "sweep") {
    if (!cli.get("plan-in").empty() || !cli.get("plan-out").empty()) {
      std::fprintf(stderr,
                   "--plan-in/--plan-out are single-plan flags; sweep "
                   "compiles one plan per source (use --plan-cache)\n");
      return 1;
    }
    const std::string protocol = cli.get("protocol");
    std::size_t workers = 0;
    if (!wsn::parse_worker_flag(cli.get("workers"), workers)) {
      std::fprintf(stderr, "--workers must be a non-negative integer\n");
      return 1;
    }
    const wsn::SweepResult sweep =
        protocol == "paper"
            ? wsn::sweep_all_sources(*topo, sim_options, workers,
                                     store.get())
            : wsn::sweep_all_sources_with(
                  *topo,
                  [&](const wsn::Topology& t, wsn::NodeId s) {
                    return make_plan(protocol, t, s, store.get()).plan;
                  },
                  sim_options, workers);
    std::printf("%s, %zu sources, %s protocol\n", topo->name().c_str(),
                sweep.per_source.size(), protocol.c_str());
    std::printf("  best  src=%u  %s\n", sweep.best().source,
                sweep.best().stats.summary().c_str());
    std::printf("  worst src=%u  %s\n", sweep.worst().source,
                sweep.worst().stats.summary().c_str());
    std::printf("  mean power %s J, max delay %u, all reached: %s\n",
                wsn::sci(sweep.mean_energy()).c_str(), sweep.max_delay(),
                sweep.all_fully_reached() ? "yes" : "NO");
    if (store) {
      const auto mem = store->memory().stats();
      const auto facade = store->stats();
      std::printf("  plan store: %llu mem hits, %llu disk hits, "
                  "%llu compiles, %llu rejects\n",
                  static_cast<unsigned long long>(mem.hits),
                  static_cast<unsigned long long>(facade.disk_hits),
                  static_cast<unsigned long long>(facade.compiles),
                  static_cast<unsigned long long>(facade.disk_rejects));
    }
    return finish(0);
  }
  if (command == "viz") {
    const wsn::Grid2D* grid = grid2d_of(*topo);
    if (grid == nullptr) {
      std::fprintf(stderr, "viz renders the 2D families only\n");
      return 1;
    }
    const std::uint64_t frames = cli.get_u64("frames");
    const PlanOutcome outcome = obtain_plan(cli.get("protocol"));
    sim_options.record_collisions = frames != 0;
    const auto out = wsn::simulate_broadcast(*topo, outcome.plan, sim_options);
    std::printf("%s\n%s\n", out.stats.summary().c_str(),
                plan_line(outcome).c_str());
    std::fputs(
        wsn::render_roles(*grid, outcome.plan.to_relay_plan(), &out).c_str(),
        stdout);
    if (frames != 0) {
      wsn::Slot last = 1;
      for (const wsn::TxRecord& rec : out.transmissions) {
        last = std::max(last, rec.slot);
      }
      const auto shown =
          static_cast<wsn::Slot>(std::min<std::uint64_t>(last, frames));
      for (wsn::Slot slot = 1; slot <= shown; ++slot) {
        std::printf("\nslot %u:\n%s", slot,
                    wsn::render_wavefront(*grid, out, slot).c_str());
      }
      if (shown < last) {
        std::printf("\n(%u more slots until the broadcast completes)\n",
                    last - shown);
      }
    }
    return finish(0);
  }
  if (command == "pipeline") {
    const PlanOutcome outcome = obtain_plan(cli.get("protocol"));
    const wsn::FlatRelayPlan& plan = outcome.plan;
    const auto packets = static_cast<std::size_t>(cli.get_u64("packets"));
    if (packets == 0) {
      std::fprintf(stderr, "--packets must be at least 1\n");
      return 1;
    }
    const wsn::Slot period =
        wsn::min_pipeline_interval(*topo, plan, packets, 256);
    if (period == 0) {
      std::printf("no safe interval <= 256 slots\n");
    } else {
      std::printf("%s: %zu-packet pipeline period = %u slots\n",
                  topo->name().c_str(), packets, period);
      // Replay the found period once with the observer installed so the
      // trace/metrics artifacts show the steady-state pipeline.
      if (observe) {
        wsn::PipelineOptions pipeline_options;
        pipeline_options.packets = packets;
        pipeline_options.interval = period;
        pipeline_options.sim = sim_options;
        (void)wsn::simulate_pipeline(*topo, plan, pipeline_options);
      }
    }
    return finish(0);
  }

  std::fprintf(stderr, "unknown command '%s' (run|sweep|viz|pipeline)\n",
               command.c_str());
  return 1;
}
