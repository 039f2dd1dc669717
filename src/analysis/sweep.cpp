#include "analysis/sweep.h"

#include <algorithm>

#include "common/assert.h"
#include "common/parallel.h"
#include "obs/profile.h"
#include "protocol/registry.h"

namespace wsn {

namespace {

const SourceResult& extreme_by_energy(const std::vector<SourceResult>& all,
                                      bool want_max) {
  WSN_EXPECTS(!all.empty());
  const SourceResult* pick = &all.front();
  for (const SourceResult& r : all) {
    const bool better = want_max
                            ? r.stats.total_energy() > pick->stats.total_energy()
                            : r.stats.total_energy() < pick->stats.total_energy();
    if (better) pick = &r;
  }
  return *pick;
}

}  // namespace

const SourceResult& SweepResult::best() const {
  return extreme_by_energy(per_source, /*want_max=*/false);
}

const SourceResult& SweepResult::worst() const {
  return extreme_by_energy(per_source, /*want_max=*/true);
}

Slot SweepResult::max_delay() const {
  Slot out = 0;
  for (const SourceResult& r : per_source) {
    out = std::max(out, r.stats.delay);
  }
  return out;
}

Joules SweepResult::mean_energy() const {
  if (per_source.empty()) return 0.0;
  Joules sum = 0.0;
  for (const SourceResult& r : per_source) sum += r.stats.total_energy();
  return sum / static_cast<double>(per_source.size());
}

bool SweepResult::all_fully_reached() const {
  return std::all_of(per_source.begin(), per_source.end(),
                     [](const SourceResult& r) {
                       return r.stats.fully_reached();
                     });
}

SweepResult sweep_all_sources(const Topology& topo, const SimOptions& options,
                              std::size_t workers, PlanStore* store) {
  // The per-source runs execute concurrently: an event sink (single-run
  // by contract) cannot absorb them, while shared metrics handles can.
  WSN_EXPECTS(options.observer == nullptr ||
              options.observer->events == nullptr);
  WSN_SPAN("sweep.all_sources");
  const std::size_t n = topo.num_nodes();
  SweepResult result;
  result.per_source.resize(n);
  // One Simulator per worker: every source a worker owns reuses the same
  // scratch, so the sweep allocates per-worker, not per-source.
  std::vector<Simulator> simulators(resolve_worker_count(n, workers));
  const bool probe_is_run = options.observer == nullptr &&
                            options.faults == nullptr &&
                            options.battery == nullptr;
  parallel_for_workers(
      0, n,
      [&](std::size_t worker, std::size_t src) {
        WSN_SPAN("sweep.source");
        const auto source = static_cast<NodeId>(src);
        if (store != nullptr) {
          // Simulate straight off the cached CSR plan -- a shared_ptr
          // borrow, not a deep copy of the offset vectors.
          const std::shared_ptr<const StoredPlan> stored =
              store->fetch_or_compile(
                  topo, source, "paper", options,
                  [&](ResolveReport& fresh) {
                    return paper_plan(topo, source, options, &fresh);
                  });
          const BroadcastOutcome outcome =
              simulators[worker].run(topo, stored->plan, options);
          result.per_source[src] = SourceResult{source, outcome.stats,
                                                stored->report.repairs};
          return;
        }
        // Unobserved, fault-free and battery-free, the resolver's last
        // probe is exactly this source's run: take its outcome.
        ResolveReport report;
        BroadcastOutcome outcome;
        if (probe_is_run) {
          (void)paper_plan(topo, source, options, &report, &outcome);
        } else {
          const RelayPlan plan = paper_plan(topo, source, options, &report);
          outcome = simulators[worker].run(topo, plan, options);
        }
        result.per_source[src] = SourceResult{source, outcome.stats,
                                              report.repairs};
      },
      workers);
  return result;
}

SweepResult sweep_all_sources_with(const Topology& topo,
                                   const PlanFactory& factory,
                                   const SimOptions& options,
                                   std::size_t workers) {
  WSN_EXPECTS(options.observer == nullptr ||
              options.observer->events == nullptr);
  WSN_SPAN("sweep.all_sources");
  const std::size_t n = topo.num_nodes();
  SweepResult result;
  result.per_source.resize(n);
  std::vector<Simulator> simulators(resolve_worker_count(n, workers));
  parallel_for_workers(
      0, n,
      [&](std::size_t worker, std::size_t src) {
        WSN_SPAN("sweep.source");
        const auto source = static_cast<NodeId>(src);
        const RelayPlan plan = factory(topo, source);
        const BroadcastOutcome outcome =
            simulators[worker].run(topo, plan, options);
        result.per_source[src] = SourceResult{source, outcome.stats, 0};
      },
      workers);
  return result;
}

}  // namespace wsn
