#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/implicit.h"

/// Bulk broadcast engine: the slot loop restructured as structure-of-arrays
/// passes over uint64 bitset words, driven by an ImplicitLattice's shift
/// rules instead of a materialized adjacency.
///
/// The reference simulator walks per-node adjacency spans -- O(Σ degree)
/// pointer-chasing per slot with per-node branching.  At 10⁶–10⁷ nodes
/// that is both too slow and too much memory (the CSR alone).  Here node
/// state lives in bit vectors:
///
///   * T      -- transmitting this slot, with a summary bitmap (one bit
///     per T word) that lists the loaded words in id order
///   * R      -- has received (the reached set)
///   * ones/twos -- a 2-bit saturating per-node hearer counter, built by
///     SWAR adds of shift(T & rule_mask, delta) one shift rule at a time
///
/// next to the lattice's rule masks (ImplicitLattice::rule_masks) and the
/// plan's relay bitsets (FlatRelayPlan::plain_relays/other_relays).  The
/// schedule is kept in words too: a plain relay -- offsets exactly {1},
/// nearly every relay of a paper plan -- forwards in the slot after its
/// first reception, so each word's fresh & plain bits are kept as one
/// forward and ORed into the next slot's T.  Only fresh & other relays
/// (retransmitting, staggered, repaired) read their offsets, into a
/// calendar keyed by slot.  A slot is five passes whose cost follows the
/// frontier, never the lattice:
///
///   1. load -- the slot after a slot with forwards is the next slot, else
///      the calendar's first; OR in the forwards and the calendar entries,
///      then walk the summary bitmap for the ascending list of T words;
///   2. transmit -- per T word, its transmitters in id order: append the
///      records and bill tx energy.  A transmitter's valid rules are bit b
///      of the rule masks' word; where the lattice's range follows from
///      that rule set (ImplicitLattice::range_by_rule_set: exact spacings
///      and tori), the cost comes from a per-run table keyed by it, else
///      from ImplicitLattice::tx_range;
///   3. hearer -- per rule, shift(T & rule_mask, delta) of each T word
///      into ones/twos; a word joins the touched list the moment its
///      ones|twos leaves zero, so the list has no duplicates and no order;
///   4. attribution -- each transmitter's valid rules point at the
///      hearers whose exactly-one-hearer and fresh bits it is credited
///      with (the slot's records are contiguous);
///   5. classification -- over the touched words only: exactly-one-hearer
///      nodes are ones & ~twos & ~T (half-duplex excluded), collisions
///      twos & ~T, fresh coverage rx & ~R, counted by popcount with no
///      per-node branching; fresh nodes get their first_rx and are
///      scheduled as above, and each word's counters are cleared, so
///      every slot starts from zero.  T is cleared word by word.
///
/// Nothing n-sized besides the bit vectors and the outcome itself, and no
/// per-node map, sort or set/clear-bit loop.
///
/// Semantics contract: `run` takes the same FlatRelayPlan as
/// `Simulator::run` and returns a BroadcastOutcome *bit-identical* to it
/// on the materialized topology of the same family/dims --
/// every stats counter, every TxRecord, every first_rx slot, and the energy
/// doubles (transmitter accounting walks slot-ascending then id-ascending,
/// replaying the reference accumulation order exactly).  The cross-check
/// tests (tests/test_bulk_simulator.cpp) hold this on all four paper
/// topologies at paper dims and on the tori.
///
/// Scope: the perfect-medium fast path.  Options that need per-node
/// mutable state in the medium (faults, battery, observer hooks,
/// record_collisions ordering) are rejected with a precondition -- the
/// reference engine remains the tool for those studies; the CLI validates
/// and reports the incompatibility before building anything big.
namespace wsn {

/// Progress snapshot delivered to a BulkSimulator progress callback.
/// Everything is observed *after* the reported slot finished.
struct BulkProgress {
  Slot slot = 0;               // the slot that just completed
  std::uint64_t slots_done = 0;  // non-empty slots processed so far
  std::size_t frontier = 0;    // transmitters in that slot
  std::size_t reached = 0;     // nodes covered so far (popcount of R)
  std::size_t total_nodes = 0;
  double elapsed_s = 0.0;      // wall time since run() started
};

using BulkProgressFn = std::function<void(const BulkProgress&)>;

class BulkSimulator {
 public:
  BulkSimulator() = default;
  /// Pre-sizes the scratch for `num_nodes`-node lattices.
  explicit BulkSimulator(std::size_t num_nodes);

  /// True when `options` stays on the bulk engine's supported surface;
  /// `why`, when non-null, receives a human-readable reason otherwise.
  [[nodiscard]] static bool options_supported(const SimOptions& options,
                                              std::string* why = nullptr);

  /// Runs one broadcast off the CSR plan, the only form an engine takes
  /// (a RelayPlan is flattened at the call).  `options` must be
  /// options_supported().
  [[nodiscard]] BroadcastOutcome run(const ImplicitLattice& lat,
                                     const FlatRelayPlan& plan,
                                     const SimOptions& options = {});

  /// Observes long runs without touching the kernel: `fn` is invoked
  /// every `every_slots` completed slots and once more when the run
  /// ends.  Observation only -- the outcome stays bit-identical to an
  /// uninstrumented run (the reached popcount reads R, it never writes).
  /// Pass a null fn to detach.  The callback runs on the simulating
  /// thread; keep it cheap.
  void set_progress(BulkProgressFn fn, std::uint64_t every_slots = 64);

 private:
  /// A word of plain relays that first received in one slot and forward
  /// in the next.
  struct Forward {
    std::uint32_t word;
    std::uint64_t bits;
  };

  std::size_t words_ = 0;
  std::vector<std::uint64_t> transmitting_;
  std::vector<std::uint64_t> tx_summary_;  // bit w: T word w is loaded
  std::vector<std::uint64_t> ones_;
  std::vector<std::uint64_t> twos_;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint32_t> touched_words_;
  std::vector<std::uint32_t> tx_words_;   // the slot's T words, ascending
  std::vector<std::uint32_t> rule_sets_;  // per record: its valid rules
  std::vector<Forward> forwards_;         // plain relays for the next slot
  std::map<Slot, std::vector<NodeId>> schedule_;  // every other relay
  BulkProgressFn progress_;
  std::uint64_t progress_every_ = 64;
};

/// Stateless convenience over a fresh BulkSimulator (mirrors
/// simulate_broadcast); hot loops keep a BulkSimulator for its scratch.
[[nodiscard]] BroadcastOutcome bulk_simulate(const ImplicitLattice& lat,
                                             const FlatRelayPlan& plan,
                                             const SimOptions& options = {});

}  // namespace wsn
