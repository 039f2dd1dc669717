#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

/// The simulator's input language: a relay plan.
///
/// Every broadcasting protocol in this library -- the paper's four mesh
/// protocols as well as the flooding/gossip baselines -- compiles to the
/// same representation: for each node, the list of *offsets* (in slots,
/// ≥ 1) after its first successful reception at which it transmits.
///
///   * not a relay                -> {}
///   * plain relay                -> {1}        (forward in the next slot)
///   * relay that retransmits     -> {1, 2}     (paper: "retransmit the
///                                               collided message in next
///                                               time slot")
///   * delayed z-relay (3D-6)     -> {2} or {3} (paper §3.4 staggering)
///
/// The source's offsets are interpreted relative to slot 0, so its default
/// {1} means "transmit in slot 1", matching the sequence numbers of the
/// paper's figures.
///
/// Keeping the plan purely data -- no callbacks -- is what makes the
/// deterministic collision-repair resolver possible: it can append repair
/// offsets and re-simulate without touching protocol code.
namespace wsn {

/// A relay plan in CSR form with a sparse edit overlay: the one plan type
/// every protocol writes, every editor edits, the store serializes and
/// both engines run.
///
/// A plan is born flat.  A protocol writes its lists in node order through
/// a Writer into one starts array and one offsets array (the base), plus
/// two relay bitsets; nothing is allocated per node, so a 10⁶-node plan
/// costs four allocations whatever its relay count.  Editors -- the
/// resolver's repairs and undo, echo-repair, adaptive ARQ -- then change a
/// few lists at a time: an edited node's list moves into the overlay (an
/// `edited` bitset plus the edited lists), and offsets(v) reads through
/// it.  Every edit keeps the relay bitsets and the offset total current,
/// so an engine runs an edited plan as it stands.  Edits and the Writer
/// check the contract (offsets ≥ 1 and strictly increasing, the source a
/// relay) as they go; only parts adopted from outside are walked by
/// validate().
class RelayPlan {
 public:
  class Writer;

  RelayPlan() = default;

  /// An empty plan for `count` nodes with the source transmitting at slot 1.
  static RelayPlan empty(std::size_t count, NodeId source);

  /// Wraps already-flattened parts.  `starts` has num_nodes + 1 entries
  /// with starts[0] == 0; the parts must satisfy the contract (validate()
  /// aborts otherwise -- pre-validate untrusted input).
  static RelayPlan adopt(NodeId source, std::vector<std::uint32_t> starts,
                         std::vector<Slot> offsets);

  /// A copy of the plan, under the name the repository benchmark
  /// (perfbench) calls.
  [[nodiscard]] RelayPlan to_relay_plan() const { return *this; }

  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return starts_.empty() ? 0 : starts_.size() - 1;
  }

  /// v's offsets, through the overlay.  The span stays valid until v's
  /// list is next edited.
  [[nodiscard]] std::span<const Slot> offsets(NodeId v) const {
    if (is_edited(v)) return edits_.find(v)->second;
    return {offsets_.data() + starts_[v], starts_[v + 1] - starts_[v]};
  }

  [[nodiscard]] bool is_relay(NodeId v) const noexcept {
    return ((plain_relays_[v / 64] | other_relays_[v / 64]) >> (v % 64) &
            1u) != 0;
  }

  /// Number of relays (nodes with at least one scheduled transmission).
  [[nodiscard]] std::size_t relay_count() const noexcept;

  /// Nodes scheduled to transmit more than once (the paper's gray nodes).
  [[nodiscard]] std::vector<NodeId> retransmitters() const;

  /// Planned transmission count assuming every relay gets the message
  /// (= Σ offsets sizes).  The simulator's actual Tx equals this whenever
  /// reachability is 100%.
  [[nodiscard]] std::size_t planned_tx() const noexcept { return total_; }
  [[nodiscard]] std::size_t total_offsets() const noexcept { return total_; }

  /// The relays as bitsets over node ids (bit v % 64 of word v / 64).  A
  /// plain relay's offsets are exactly {1}: it forwards once, one slot
  /// after its first reception -- nearly every relay of a paper plan.
  /// Every other relay (retransmitting, staggered, repaired) is in
  /// other_relays().  The bulk kernel schedules plain relays a word at a
  /// time and looks up offsets for the others only.
  [[nodiscard]] std::span<const std::uint64_t> plain_relays() const noexcept {
    return plain_relays_;
  }
  [[nodiscard]] std::span<const std::uint64_t> other_relays() const noexcept {
    return other_relays_;
  }

  /// The contract: offsets ≥ 1 and strictly increasing, the source a
  /// relay, and well-formed CSR parts.  A written or edited plan was
  /// checked as it was built, so the walk runs for adopted parts only.
  void validate() const;

  // --- edits, through the overlay ------------------------------------

  /// Replaces v's list.
  void set_offsets(NodeId v, std::vector<Slot> offsets);
  /// Appends one offset to v's list; it must exceed the list's last.
  void append_offset(NodeId v, Slot offset);
  /// Empties v's list; the source's may not be emptied.
  void clear_offsets(NodeId v) { set_offsets(v, {}); }

  /// Nodes whose list lives in the overlay.
  [[nodiscard]] std::size_t edited_count() const noexcept {
    return edits_.size();
  }

  /// Bytes of the plan's arrays by their sizes: the CSR parts, the three
  /// bitsets and the overlay's lists (not its bookkeeping).
  [[nodiscard]] std::size_t array_bytes() const noexcept;

  /// Same source and the same list at every node, however each is stored.
  friend bool operator==(const RelayPlan& a, const RelayPlan& b);

 private:
  [[nodiscard]] bool is_edited(NodeId v) const noexcept {
    return !edited_.empty() && (edited_[v / 64] >> (v % 64) & 1u) != 0;
  }
  void size_relay_sets(std::size_t n);
  void file_relay(NodeId v, std::span<const Slot> offsets) noexcept;
  /// v's overlay list, moved there from the base on v's first edit.
  std::vector<Slot>& edit_of(NodeId v);

  NodeId source_ = kInvalidNode;
  std::vector<std::uint32_t> starts_;
  std::vector<Slot> offsets_;
  std::vector<std::uint64_t> plain_relays_;
  std::vector<std::uint64_t> other_relays_;
  std::vector<std::uint64_t> edited_;  // bit v: v's list is in edits_
  std::unordered_map<NodeId, std::vector<Slot>> edits_;
  std::size_t total_ = 0;  // Σ list sizes, overlay included
  bool checked_ = false;   // written or edited under the contract checks
};

/// Writes a plan's lists in ascending node order, straight into CSR.
/// Each node is written at most once; a node not written has no list,
/// except the source, which transmits at slot 1 unless written otherwise.
class RelayPlan::Writer {
 public:
  Writer(std::size_t count, NodeId source);

  void set(NodeId v, std::span<const Slot> offsets);
  void set(NodeId v, std::initializer_list<Slot> offsets) {
    set(v, std::span<const Slot>(offsets.begin(), offsets.size()));
  }

  /// Closes every list not written and hands the plan over.
  [[nodiscard]] RelayPlan finish() &&;

 private:
  /// Closes the lists of nodes [next_, v) as empty, the source's as {1}.
  void skip_to(NodeId v);
  void append(NodeId v, std::span<const Slot> offsets);

  RelayPlan plan_;
  NodeId next_ = 0;  // the lowest node still open
};

/// One node's offset list as an earlier run ran it.  A sorted span of
/// these over the plan a re-probe runs (BulkSimulator::rerun) names every
/// node whose list has changed since that run; every other node ran the
/// plan's current list.  The spans borrow the caller's storage.
struct OffsetEdit {
  NodeId node = kInvalidNode;
  std::span<const Slot> before;
};

}  // namespace wsn
