#pragma once

#include <functional>
#include <string>
#include <vector>

#include "protocol/resolver.h"
#include "sim/simulator.h"
#include "store/plan_store.h"
#include "topology/topology.h"

/// Source-position sweeps: the engine behind the paper's Tables 3-5.
///
/// The paper reports best-case and worst-case protocol performance over
/// source placement ("different source has different total number of
/// transmissions, ...; if the source is in the center it performs better,
/// in the corner it consumes more power and has a longer delay").  We run
/// one full broadcast per source position -- all of them -- in parallel
/// and fold the per-source stats into a best/worst envelope keyed on total
/// power, exactly as the paper's tables are.
namespace wsn {

struct SourceResult {
  NodeId source = kInvalidNode;
  BroadcastStats stats;
  std::size_t repairs = 0;
};

struct SweepResult {
  std::vector<SourceResult> per_source;  // indexed by source id

  /// The source minimizing / maximizing total energy (the paper's "best
  /// case" / "worst case" rows); ties broken by lower node id.
  [[nodiscard]] const SourceResult& best() const;
  [[nodiscard]] const SourceResult& worst() const;
  /// Maximum delay over all sources (Table 5's "maximum delay time").
  [[nodiscard]] Slot max_delay() const;
  /// Mean total energy across sources.
  [[nodiscard]] Joules mean_energy() const;
  /// True if every source reached every node.
  [[nodiscard]] bool all_fully_reached() const;
};

/// Plans broadcasts from every source with the family's paper protocol
/// (resolver included), simulates each, and collects the stats.
/// `workers = 0` uses all cores.  Each worker keeps one scratch-reusing
/// Simulator for its whole chunk of sources.  `store`, when non-null, is
/// the shared plan cache all workers compile through
/// (store/plan_store.h): a warm store turns the per-source compilation --
/// the sweep's dominant cost -- into a lookup, and the result is
/// byte-identical either way.
[[nodiscard]] SweepResult sweep_all_sources(const Topology& topo,
                                            const SimOptions& options = {},
                                            std::size_t workers = 0,
                                            PlanStore* store = nullptr);

/// Same sweep for an arbitrary plan factory (used for baselines and
/// ablations).  The factory must be safe to call concurrently.
using PlanFactory = std::function<RelayPlan(const Topology&, NodeId)>;
[[nodiscard]] SweepResult sweep_all_sources_with(const Topology& topo,
                                                 const PlanFactory& factory,
                                                 const SimOptions& options = {},
                                                 std::size_t workers = 0);

}  // namespace wsn
