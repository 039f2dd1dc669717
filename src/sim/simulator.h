#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/types.h"
#include "fault/fault_model.h"
#include "obs/observer.h"
#include "radio/battery.h"
#include "radio/energy_model.h"
#include "sim/plan.h"
#include "sim/stats.h"
#include "topology/topology.h"

/// Slot-synchronous broadcast simulator.
///
/// Semantics (paper §2/§3, "all the sensor nodes are synchronized"):
///
///   * Time advances in discrete slots; one packet fits one slot.
///   * A node transmitting in a slot is heard by all its topology
///     neighbors ("a transmission can cover all the neighboring nodes").
///   * A non-transmitting node with exactly ONE transmitting neighbor in a
///     slot decodes the packet (counted as a reception -- a duplicate if it
///     already had the message).
///   * A non-transmitting node with TWO OR MORE transmitting neighbors
///     suffers a collision: nothing is decoded, one collision event is
///     recorded at that node.
///   * A transmitting node hears nothing that slot (half-duplex).
///   * A relay's transmissions are scheduled by the relay plan relative to
///     its first successful reception; the source's relative to slot 0.
///
/// The run ends when no transmission remains scheduled, or at
/// `max_slots` (a runaway guard -- plans are finite so this only triggers
/// on misuse).
///
/// One slot loop serves both single broadcasts (`run`) and pipelined
/// multi-packet broadcasts (`run_pipeline`, sim/pipeline.h): every
/// scheduled transmission carries a packet index, and a single broadcast
/// is the pipeline with one packet.  Outside the bulk bitset kernel
/// (sim/bulk) this is the only code that applies the medium rules.
namespace wsn {

struct PipelineOptions;
struct PipelineOutcome;

struct SimOptions {
  /// Packet length in bits; the paper evaluates with 512.
  std::size_t packet_bits = 512;
  /// Energy model; defaults to the paper's First Order Radio Model.
  FirstOrderRadioModel radio{};
  /// Record per-collision events (slot, node) in the outcome.
  bool record_collisions = false;
  /// Optional battery bank: transmissions/receptions drain it, dead nodes
  /// drop out of the medium.  Must have one cell per node when set.
  BatteryBank* battery = nullptr;
  /// Charge E_Rx for collided receptions too.  Off by default: the paper's
  /// published power numbers charge only successful decodes (DESIGN.md §4).
  bool charge_collisions = false;
  /// Track each node's individual energy spend in the outcome (the paper
  /// only totals energy; the per-node view exposes how unevenly relay duty
  /// burdens nodes -- its §1 critique of non-balancing protocols).
  bool record_node_energy = false;
  /// Optional fault injection (fault/fault_model.h): per-link packet loss
  /// and per-node crash windows.  nullptr (the default) keeps the paper's
  /// perfect medium and leaves the hot path untouched; when set, the model
  /// is consulted per (tx, rx, slot) edge and losses are attributed to
  /// `BroadcastStats::lost_to_fading` / `lost_to_crash`.  Like `battery`,
  /// the model is stateful and must not be shared across concurrent runs.
  FaultModel* faults = nullptr;
  /// Optional instrumentation (obs/observer.h): structured events into the
  /// observer's sink, stats mirrored into its metrics handles, end-of-run
  /// histograms (slot delay, per-node energy, per-transmission ETR).
  /// nullptr (the default) keeps the hot path untouched.  An observer with
  /// an event sink belongs to one run at a time; a metrics-only observer
  /// may be shared across concurrent sweep runs.
  Observer* observer = nullptr;
  /// Hard stop. Generous default: plans terminate on their own.
  Slot max_slots = 1u << 20;
};

/// One transmission as it happened, with its delivery outcome:
/// `delivered` neighbors decoded it, of which `fresh` were first-time
/// receptions.  ETR of the transmission = fresh / degree(node).
struct TxRecord {
  Slot slot = 0;
  NodeId node = kInvalidNode;
  std::uint32_t delivered = 0;
  std::uint32_t fresh = 0;
};

/// A collision event: `contenders` neighbors of `node` transmitted in
/// `slot` and nothing was decoded.
struct CollisionRecord {
  Slot slot = 0;
  NodeId node = kInvalidNode;
  std::uint32_t contenders = 0;
};

struct BroadcastOutcome {
  BroadcastStats stats;
  /// Slot of each node's first successful reception; 0 for the source,
  /// kNeverSlot for unreached nodes.
  std::vector<Slot> first_rx;
  /// Every transmission in slot order (ties by node id).
  std::vector<TxRecord> transmissions;
  /// Collision events; populated only when SimOptions::record_collisions.
  std::vector<CollisionRecord> collision_events;
  /// Per-node energy spend (J); populated only when
  /// SimOptions::record_node_energy.  Sums to stats.total_energy().
  std::vector<Joules> node_energy;

  [[nodiscard]] std::vector<NodeId> unreached() const;
  /// Slot of `node`'s first transmission, or kNeverSlot if it never
  /// transmitted.
  [[nodiscard]] Slot first_tx(NodeId node) const noexcept;
  /// Slot of the last transmission that fired, and at least 1: the end of
  /// the timeline that retry waves are appended after.  Read off the last
  /// record, since `transmissions` is in slot order.
  [[nodiscard]] Slot timeline_end() const noexcept;
};

/// The simulation engine with its per-run scratch buffers.
///
/// One broadcast needs five O(n) scratch vectors plus the slot schedule;
/// allocating them per run is pure churn in the workloads that run
/// thousands of broadcasts back to back (the resolver's probe
/// simulations, the all-sources sweeps, the pipeline-period scan).  A
/// Simulator owns the scratch and re-primes it with size-preserving
/// `assign` at the start of every run, so repeated runs over same-sized
/// topologies allocate nothing.  `run` is bitwise-deterministic and
/// identical to `simulate_broadcast` for any sequence of calls, and
/// `run_pipeline` likewise to `simulate_pipeline` -- scratch reuse is
/// invisible in the outcome.
///
/// Not thread-safe: one Simulator belongs to one thread at a time (the
/// sweeps keep one per worker).
class Simulator {
 public:
  Simulator() = default;
  /// Pre-sizes the scratch for `num_nodes`-node topologies.
  explicit Simulator(std::size_t num_nodes);

  /// Runs one broadcast to completion; semantics of simulate_broadcast.
  /// The plan is the CSR form (sim/plan.h), the only one an engine
  /// takes: a stored plan runs as served, and a RelayPlan is flattened
  /// at the call.
  [[nodiscard]] BroadcastOutcome run(const Topology& topo,
                                     const FlatRelayPlan& plan,
                                     const SimOptions& options = {});

  /// Runs a pipelined broadcast to completion; semantics of
  /// simulate_pipeline (sim/pipeline.h).
  [[nodiscard]] PipelineOutcome run_pipeline(const Topology& topo,
                                             const FlatRelayPlan& plan,
                                             const PipelineOptions& options);

 private:
  /// One scheduled transmission: `node` sends pipeline packet `packet`
  /// (always 0 in a single broadcast).  Ordered by node, then packet, as
  /// one 64-bit key: sorting a slot's entries by it measured a few percent
  /// faster per broadcast than a member-wise comparison.
  struct Pending {
    NodeId node = kInvalidNode;
    std::uint32_t packet = 0;

    [[nodiscard]] std::uint64_t key() const noexcept {
      return std::uint64_t{node} << 32 | packet;
    }
    friend bool operator<(const Pending& a, const Pending& b) noexcept {
      return a.key() < b.key();
    }
    friend bool operator==(const Pending&, const Pending&) = default;
  };

  /// The slot loop.  An empty `per_packet` runs a single broadcast whose
  /// stats land in the outcome's; otherwise the source injects
  /// `per_packet.size()` packets `interval` slots apart, each packet's
  /// stats accumulate in its entry, and the outcome's stats gather the
  /// collisions and, at the end, the totals.
  template <bool kObserved>
  BroadcastOutcome run_impl(const Topology& topo, const FlatRelayPlan& plan,
                            const SimOptions& options,
                            std::span<BroadcastStats> per_packet = {},
                            Slot interval = 0);

  using Schedule = std::map<Slot, std::vector<Pending>>;
  /// The transmissions scheduled for `slot`, creating the entry from a
  /// recycled node when there is one.
  std::vector<Pending>& slot_entries(Slot slot);

  // slot -> transmissions scheduled for it.  An ordered map keeps the main
  // loop a strict slot sweep even when plans schedule far ahead.  Swept
  // slots' nodes, vectors and all, go to `spare_slots_` and come back as
  // later slots, so a run allocates schedule memory only while its
  // wavefront widens.
  Schedule schedule_;
  std::vector<Schedule::node_type> spare_slots_;
  // Per-slot scratch, epoch-free via the `touched_` list: hear_count_[u]
  // is nonzero only for u in touched_ and reset before the slot ends.
  std::vector<std::uint32_t> hear_count_;
  std::vector<NodeId> heard_from_;
  std::vector<char> is_transmitting_;
  std::vector<NodeId> touched_;
  std::vector<std::size_t> record_of_;  // transmitter -> transmissions index
  std::vector<std::uint32_t> tx_packet_;  // transmitter -> packet (pipelines)
};

/// Runs one broadcast to completion.  `plan.num_nodes()` must match the
/// topology.  Deterministic: identical inputs give identical outcomes.
/// Stateless convenience over a fresh Simulator; hot loops that run many
/// broadcasts keep a Simulator and call `run` to reuse its scratch.
[[nodiscard]] BroadcastOutcome simulate_broadcast(const Topology& topo,
                                                  const FlatRelayPlan& plan,
                                                  const SimOptions& options = {});

}  // namespace wsn
