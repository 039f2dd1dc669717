#pragma once

#include <vector>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"

/// Pipelined broadcasting: the source injects a stream of packets, one
/// every `interval` slots, all forwarded under the same relay plan.
///
/// The paper evaluates a single broadcast; a deployed WSN broadcasts
/// continuously, and the interesting figure of merit is the *pipeline
/// period*: the smallest injection interval at which consecutive
/// wavefronts never interfere (every packet still reaches everyone).  The
/// relay plans' spatial structure determines it -- wavefronts of packet p
/// and p+1 chase each other `interval` slots apart, and collide where a
/// relay serves both at once.
///
/// Medium semantics extend the single-packet rules packet-agnostically:
///   * a node transmits at most one packet per slot; when two packets'
///     schedules land on the same slot, the older packet goes first and
///     the younger is deferred one slot (repeatedly if needed);
///   * a non-transmitting node with exactly one transmitting neighbor
///     decodes that neighbor's packet; with two or more it decodes
///     nothing, whatever the packets involved (co-channel collision);
///   * each packet's relay offsets apply relative to that packet's own
///     first reception at the node.
///
/// There is no separate pipeline engine: these functions drive the
/// reference Simulator's one slot loop (sim/simulator.h), in which a
/// single broadcast is the one-packet case.
namespace wsn {

struct PipelineOptions {
  /// Number of packets the source injects.
  std::size_t packets = 4;
  /// Slots between consecutive injections (≥ 1).
  Slot interval = 8;
  /// Medium / energy configuration.  Fault injection via `sim.faults` is
  /// honored, with losses attributed to the affected packet's stats, and
  /// an observer sees the run like a single broadcast's (events carry the
  /// packet index; every transmission feeds the `sim.etr` histogram).
  /// A battery is rejected; collision records, per-node energy and
  /// collision charging are single-broadcast options and ignored here.
  SimOptions sim{};
};

struct PipelineOutcome {
  /// Per-packet stats; delay is measured from the packet's injection slot.
  std::vector<BroadcastStats> per_packet;
  /// Totals across the run (tx/rx/collisions/energy summed; delay = the
  /// slot of the last first-reception of any packet).
  BroadcastStats aggregate;

  [[nodiscard]] bool all_fully_reached() const {
    for (const BroadcastStats& s : per_packet) {
      if (!s.fully_reached()) return false;
    }
    return !per_packet.empty();
  }
};

/// Runs the pipelined broadcast to completion.  Deterministic.  Stateless
/// convenience over a fresh Simulator (`Simulator::run_pipeline`).
[[nodiscard]] PipelineOutcome simulate_pipeline(const Topology& topo,
                                                const RelayPlan& plan,
                                                const PipelineOptions& options);

/// The smallest interval in [1, `limit`] at which every packet of a
/// `packets`-deep pipeline reaches every node, or 0 if none does.  Linear
/// scan: interference is not monotone in the interval, so each value is
/// tested directly (on one reused Simulator).
[[nodiscard]] Slot min_pipeline_interval(const Topology& topo,
                                         const RelayPlan& plan,
                                         std::size_t packets, Slot limit);

}  // namespace wsn
