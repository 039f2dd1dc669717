#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
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
/// plan's relay bitsets (RelayPlan::plain_relays/other_relays).  The
/// schedule is kept in words too: a plain relay -- offsets exactly {1},
/// nearly every relay of a paper plan -- forwards in the slot after its
/// first reception, so each word's fresh & plain bits go straight into
/// the next slot's T.  Only fresh & other relays (retransmitting,
/// staggered, repaired) read their offsets, into a calendar keyed by
/// slot.  A slot is five passes whose cost follows the frontier, never
/// the lattice:
///
///   1. load -- the slot after a slot with forwards is the next slot, else
///      the calendar's first; OR in its calendar entries, then walk the
///      summary bitmap for the ascending list of T words, and cut it into
///      bands (below);
///   2. hearer -- each T word's transmitters in id order with their valid
///      rules (bit b of the rule masks' word), then per rule
///      shift(T & rule_mask, delta) of each T word into ones/twos; a word
///      joins the touched list the moment its ones|twos leaves zero, so
///      the list has no duplicates and no order;
///   3. transmit -- the transmitters in id order: append the records and
///      bill tx energy.  Where the lattice's range follows from the rule
///      set (ImplicitLattice::range_by_rule_set: exact spacings and tori),
///      the cost comes from a per-run table keyed by it, else from
///      ImplicitLattice::tx_range;
///   4. attribution -- each transmitter's valid rules point at the
///      hearers whose exactly-one-hearer and fresh bits it is credited
///      with (the slot's records are contiguous);
///   5. classification -- over the touched words only: exactly-one-hearer
///      nodes are ones & ~twos & ~T (half-duplex excluded), collisions
///      twos & ~T, fresh coverage rx & ~R, counted by popcount with no
///      per-node branching; fresh nodes get their first_rx and are
///      scheduled as above, each word's counters are cleared, so every
///      slot starts from zero, and its T bits are replaced by its
///      forwards (a T word nobody heard in is simply cleared).
///
/// Bands.  Passes 2, 4 and 5 of a wide slot run in bands on several
/// threads; 1 and 3 stay on the calling thread.  The band count follows
/// from the slot's T-word count alone: one band per kMinBandWords T words,
/// capped by the run's width, so a narrow slot is band 0 alone -- the same
/// code, never a second kernel.  At 10⁶ nodes that splits 3D-6's wide
/// slots up to four ways and keeps every 2D slot whole: a split 2D slot
/// lost more to moving its words between cores than its bands saved.
/// Band b takes the T words between quantiles b and b + 1 of the sorted
/// T-word list and owns the target words from its first T word up to the
/// next band's: its hearer pass adds only the shifted parts that land in
/// that range (a word near an edge is read by both neighbours, written by
/// one), its attribution pass credits only its own transmitters' records,
/// and its classification pass walks only its own touched words.  So
/// every write to ones/twos/T/R/first_rx/node_energy, the touched and
/// calendar lists and the integer counters stays in one band -- only a
/// summary word that spans a band edge is set atomically -- and the
/// bands' lists and counters are merged in band order after each slot.
/// The passes are joined one by one: attribution reads hearer counters
/// across band edges, and classification clears them.
///
/// The bands run on one process-wide pool of default_worker_count() - 1
/// helpers; the calling thread and every helper that is awake claim bands
/// until none is left, so a helper that is asleep or late delays nothing
/// (one descheduled while it runs a band still holds up that pass).
/// Helpers start at the first banded slot of the process, each on a CPU
/// of its own, spin briefly between passes, block between runs, and are
/// joined at exit; with MESHBCAST_THREADS=1 none ever starts.  A run
/// that finds the pool in use by another thread's run keeps every slot in
/// one band.
///
/// Why banding keeps every bit.  Records and tx energy stay in the serial
/// transmit pass, which walks the bands in order, so tx_energy sees the
/// reference's addends in its order.  rx_energy is only ever the one
/// constant rx_cost added to 0.0, once per decode and once per charged
/// collision, so it is a function of that count: the bands count decodes
/// and charged collisions as integers and the run forms the double once
/// at its end with repeated_sum (sim/stats.h), the bits of those
/// additions in O(binades).  Everything else a band writes is per node or
/// an integer.
///
/// Nothing n-sized besides the bit vectors and the outcome itself, and no
/// per-node map, sort or set/clear-bit loop.
///
/// Semantics contract: `run` takes the same RelayPlan as
/// `Simulator::run` and returns a BroadcastOutcome *bit-identical* to it
/// on the materialized topology of the same family/dims --
/// every stats counter, every TxRecord, every first_rx slot, and the energy
/// doubles (transmitter accounting walks slot-ascending then id-ascending,
/// replaying the reference accumulation order exactly) -- at every width.
/// The cross-check tests (tests/test_bulk_simulator.cpp) hold this on all
/// four paper topologies at paper dims and on the tori, and hold wide
/// lattices identical across widths.
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
  /// Fewest T words a band takes: a slot loading w T words runs in
  /// min(w / kMinBandWords, width) bands, at least one.  Below this a
  /// band's share of a slot costs less than handing it to another thread
  /// and joining it; a 10⁶-node 2D slot (at most 658 words on 2D-4 and
  /// 471 on 2D-8) stays in one band, a 3D-6 one (up to 2923) takes four.
  static constexpr std::size_t kMinBandWords = 384;

  /// A re-probe falls back to a full run once its dirty (node, slot)
  /// marks exceed both kReprobeMinWork and prev's transmissions divided by
  /// kReprobeWorkShare.  Measured on 2D-8 and 3D-6 at 10⁶ nodes: a mark
  /// costs 90–150 ns of walk, a full run 150–190 ns per transmission, so a
  /// re-probe stops paying near one mark per transmission; half that
  /// leaves room for the merge it still owes.  Below the floor (under a
  /// millisecond of walk) a re-probe runs to the end whatever the plan's
  /// size, so a small plan's compile still runs one full broadcast.
  static constexpr std::size_t kReprobeWorkShare = 2;
  static constexpr std::size_t kReprobeMinWork = 4096;

  BulkSimulator() = default;
  /// Pre-sizes the scratch for `num_nodes`-node lattices.  `workers` caps
  /// how many threads a wide slot's bands run on, with parallel_for's
  /// meaning (0 = default_worker_count()); the outcome is the same at
  /// every width.
  explicit BulkSimulator(std::size_t num_nodes, std::size_t workers = 0);

  /// True when `options` stays on the bulk engine's supported surface;
  /// `why`, when non-null, receives a human-readable reason otherwise.
  [[nodiscard]] static bool options_supported(const SimOptions& options,
                                              std::string* why = nullptr);

  /// Runs one broadcast off the plan's CSR arrays and edit overlay, as
  /// they stand.  `options` must be options_supported().
  [[nodiscard]] BroadcastOutcome run(const ImplicitLattice& lat,
                                     const RelayPlan& plan,
                                     const SimOptions& options = {});

  /// A differential re-probe: the outcome `run` returns for `plan`,
  /// bit-identical field for field, given `prev`, the outcome under the
  /// same `options` (node_energy included when they record it) of the
  /// plan as it was: `plan` with `ran`'s `before` lists.  `ran` is sorted
  /// by node, one entry per node, and names every node whose list has
  /// changed since `prev` ran (it may name unchanged ones too).
  ///
  /// Dirty rule.  A reception at node u in slot t can change only where
  /// the set of u's transmitting neighbours at t changed, or whether u
  /// itself transmits at t (half-duplex).  So the re-probe starts from
  /// the transmit slots of the nodes whose lists changed, before and
  /// after, and visits the dirty (node, slot) pairs -- those transmitters
  /// and their neighbours -- in ascending slot order, comparing the
  /// reception before with the reception after.  A node whose first_rx
  /// moves makes its whole old and new schedule dirty; one that loses its
  /// first reception also revisits every later slot a neighbour sent in,
  /// where its new first reception may lie.  Offsets are >= 1, so every
  /// pair a slot dirties lies in a later slot, and the walk stops when
  /// none is left.  The records are then merged back in (slot, id) order
  /// with their delivered/fresh deltas, tx_energy is summed again in
  /// record order, rx_energy is formed from the decode (and charged
  /// collision) count with repeated_sum, and the per-node energy of every
  /// node whose events changed is replayed in slot order.
  ///
  /// Fallback.  Past a share of a full run's work -- dirty pairs against
  /// prev's transmissions, kReprobeWorkShare below -- a re-probe costs
  /// more than a broadcast, so it stops and runs `plan` in full instead.
  /// Same `options` surface as `run`; no progress is reported, except by
  /// a fallback run.
  [[nodiscard]] BroadcastOutcome rerun(const ImplicitLattice& lat,
                                       const RelayPlan& plan,
                                       std::span<const OffsetEdit> ran,
                                       const BroadcastOutcome& prev,
                                       const SimOptions& options = {});

  /// Observes long runs without touching the kernel: `fn` is invoked
  /// every `every_slots` completed slots and once more when the run
  /// ends.  Observation only -- the outcome stays bit-identical to an
  /// uninstrumented run (the reached popcount reads R, it never writes).
  /// Pass a null fn to detach.  The callback runs on the simulating
  /// thread; keep it cheap.
  void set_progress(BulkProgressFn fn, std::uint64_t every_slots = 64);

 private:
  /// One band of a slot: the T words tx_words_[tx_lo, tx_hi), their
  /// transmitters and records, the target words [lo, hi), and everything
  /// the band writes besides per-node state, merged in band order.
  struct alignas(64) Band {
    std::size_t lo = 0, hi = 0;
    std::size_t tx_lo = 0, tx_hi = 0;
    std::vector<NodeId> senders;           // id order
    std::vector<std::uint32_t> rule_sets;  // per sender: its valid rules
    std::size_t first_record = 0;          // of its senders' records
    std::vector<std::uint32_t> touched;
    std::vector<NodeId> others;  // fresh relays for the calendar
    std::size_t collisions = 0;
    std::size_t decoded = 0;
    std::size_t attributed = 0;
    bool fresh = false;
    bool forwards = false;  // loaded plain relays into the next slot's T
  };

  std::size_t words_ = 0;
  std::vector<std::uint64_t> transmitting_;
  std::vector<std::uint64_t> tx_summary_;  // bit w: T word w is loaded
  std::vector<std::uint64_t> ones_;
  std::vector<std::uint64_t> twos_;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint32_t> tx_words_;   // the slot's T words, ascending
  std::vector<Band> bands_;
  std::map<Slot, std::vector<NodeId>> schedule_;  // every other relay
  std::map<Slot, std::vector<NodeId>> dirty_;     // a re-probe's pairs
  std::vector<std::uint64_t> edited_;  // bit v: v is named by a re-probe's ran
  std::size_t workers_ = 0;
  BulkProgressFn progress_;
  std::uint64_t progress_every_ = 64;
};

/// Stateless convenience over a fresh BulkSimulator (mirrors
/// simulate_broadcast); hot loops keep a BulkSimulator for its scratch.
[[nodiscard]] BroadcastOutcome bulk_simulate(const ImplicitLattice& lat,
                                             const RelayPlan& plan,
                                             const SimOptions& options = {});

}  // namespace wsn
