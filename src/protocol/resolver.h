#pragma once

#include <cstddef>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"

/// Deterministic collision-repair resolver.
///
/// The paper's protocols achieve 100% reachability by scheduling
/// retransmissions wherever the (fully predictable) collisions would
/// otherwise strand a node: "since the topology of the network is
/// predetermined, we know where the collision will occur and which node
/// needs to retransmit the message" (§3.3).  For the 2D-4/2D-8/3D-6
/// topologies the paper spells out the main retransmission rules and we
/// implement them in the protocol plans; for the remaining cases (2D-3
/// repairs, border wedges in 2D-8, staggered 3D-6 borders) this resolver
/// derives the missing retransmissions offline, exactly in that spirit.
///
/// Algorithm: an optimistic phase first gives stranded nodes' helpers an
/// immediate retransmission, iterating while that helps and keeping the
/// best plan seen.  Then, while nodes remain unreached, walk them in id
/// order and give each one not yet covered a *helper* -- a neighbor that
/// already holds the message -- an extra transmission in a fresh slot
/// after the plan's activity has quieted.  Repairs are packed first-fit
/// into slots subject to a 2-hop separation between helpers, so
/// concurrent repairs can never collide at anyone's receiver (one repair
/// wave, protocol/repair_wave.h).  Because every repair lands after the
/// previous timeline ended, the simulation prefix is unchanged and each
/// round strictly grows the reached set; termination in ≤ eccentricity
/// rounds is guaranteed.
///
/// Every distinct plan the resolver builds is simulated exactly once, in
/// full or as a re-probe: on an engine with a differential re-probe
/// (BulkSimulator::rerun, the implicit-lattice path) only the raw plan
/// runs in full and every later plan re-simulates what its edited lists
/// can change; the reference engine runs each in full.  The last
/// simulation is of the returned plan, and callers that would simulate it
/// next can take that outcome instead (the `outcome` parameter).  The
/// repairs become ordinary plan offsets, so every reported Tx / energy /
/// delay number includes their full cost.
namespace wsn {

struct ResolveReport {
  /// Extra transmissions added across all rounds.
  std::size_t repairs = 0;
  /// Simulate-and-repair rounds executed (0 = plan was already complete).
  std::size_t rounds = 0;
  /// Nodes that could not be repaired (disconnected from the source);
  /// always 0 on connected topologies.
  std::size_t unreachable = 0;
  /// Nodes still unreached when the resolver stopped -- the disconnected
  /// remainder, or (never observed in practice) nodes left over if the
  /// round budget were exhausted.  0 means the returned plan reaches
  /// everyone; callers needing graceful degradation branch on this
  /// instead of trusting full reachability.
  std::size_t unrepaired = 0;
};

/// Returns `plan` augmented with repair transmissions until a simulation
/// under `options` reaches every node connected to the source.  Pure:
/// deterministic in its inputs.  `options.observer` is ignored: probe
/// simulations are construction internals and never emit events/metrics.
/// `outcome`, when non-null, receives the outcome of simulating the
/// returned plan under `options`; it may be requested only when
/// `options` has no observer and no battery bank.
[[nodiscard]] RelayPlan resolve_full_reachability(
    const Topology& topo, RelayPlan plan, const SimOptions& options = {},
    ResolveReport* report = nullptr, BroadcastOutcome* outcome = nullptr);

}  // namespace wsn
