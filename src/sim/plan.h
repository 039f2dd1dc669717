#pragma once

#include <cstdint>
#include <span>
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

struct RelayPlan {
  NodeId source = kInvalidNode;
  /// tx_offsets[v] = slots after v's first reception at which v transmits.
  /// Offsets must be ≥ 1 and strictly increasing.
  std::vector<std::vector<Slot>> tx_offsets;

  /// An empty plan for `count` nodes with the source transmitting at slot 1.
  static RelayPlan empty(std::size_t count, NodeId source) {
    WSN_EXPECTS(source < count);
    RelayPlan plan;
    plan.source = source;
    plan.tx_offsets.assign(count, {});
    plan.tx_offsets[source] = {1};
    return plan;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return tx_offsets.size();
  }

  [[nodiscard]] bool is_relay(NodeId v) const noexcept {
    return !tx_offsets[v].empty();
  }

  /// Number of relays (nodes with at least one scheduled transmission).
  [[nodiscard]] std::size_t relay_count() const noexcept {
    std::size_t count = 0;
    for (const auto& offsets : tx_offsets) {
      if (!offsets.empty()) ++count;
    }
    return count;
  }

  /// Nodes scheduled to transmit more than once (the paper's gray nodes).
  [[nodiscard]] std::vector<NodeId> retransmitters() const {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < tx_offsets.size(); ++v) {
      if (tx_offsets[v].size() > 1) out.push_back(v);
    }
    return out;
  }

  /// Planned transmission count assuming every relay gets the message
  /// (= Σ offsets sizes).  The simulator's actual Tx equals this whenever
  /// reachability is 100%.
  [[nodiscard]] std::size_t planned_tx() const noexcept {
    std::size_t count = 0;
    for (const auto& offsets : tx_offsets) count += offsets.size();
    return count;
  }

  /// Contract check used by tests and the simulator: offsets ≥ 1, strictly
  /// increasing, source is a relay.
  void validate() const {
    WSN_EXPECTS(source < num_nodes());
    WSN_EXPECTS(is_relay(source));
    for (const auto& offsets : tx_offsets) {
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        WSN_EXPECTS(offsets[i] >= 1);
        WSN_EXPECTS(i == 0 || offsets[i] > offsets[i - 1]);
      }
    }
  }
};

/// The same plan in CSR form: one starts array, one offsets array and two
/// relay bitsets: four allocations, regardless of relay count.
///
/// RelayPlan's vector-of-vectors is the right shape for *construction* --
/// protocols push offsets node by node, the resolver appends repairs --
/// but a terrible shape for a cache: rebuilding it from a disk artifact
/// costs one heap allocation per relay, which dominates a warm plan-store
/// load.  FlatRelayPlan is the at-rest/simulation form and the only one
/// the engines accept: the plan store deserializes straight into it, and
/// `Simulator` and `BulkSimulator` run straight off it.  The two forms
/// convert losslessly; a RelayPlan handed to an engine is flattened at
/// the call (the conversion is implicit), so code that simulates one
/// unedited plan many times flattens it once before its loop.
class FlatRelayPlan {
 public:
  FlatRelayPlan() = default;

  /// Flattens a RelayPlan, checking its contract (RelayPlan::validate)
  /// on the way.  Implicit on purpose: it is the one way a plan under
  /// construction reaches an engine.
  FlatRelayPlan(const RelayPlan& plan) : source_(plan.source) {
    WSN_EXPECTS(source_ < plan.num_nodes());
    WSN_EXPECTS(plan.is_relay(source_));
    // One pass, checks included, and a plain store per node: at 10⁶
    // nodes this loop is most of what handing a RelayPlan to an engine
    // costs, and any second walk over the per-node vectors doubles it.
    const std::size_t n = plan.num_nodes();
    starts_.resize(n + 1);
    size_relay_sets(n);
    std::uint32_t* const start = starts_.data();
    for (std::size_t v = 0; v < n; ++v) {
      const std::vector<Slot>& offsets = plan.tx_offsets[v];
      if (!offsets.empty()) {  // most nodes of a large plan are not relays
        Slot last = 0;
        for (const Slot offset : offsets) {
          WSN_EXPECTS(offset > last);  // >= 1 and strictly increasing
          last = offset;
        }
        offsets_.insert(offsets_.end(), offsets.begin(), offsets.end());
        file_relay(v, offsets);
      }
      start[v + 1] = static_cast<std::uint32_t>(offsets_.size());
    }
    checked_ = true;
  }

  /// The converting constructor, spelled out.
  static FlatRelayPlan from(const RelayPlan& plan) { return plan; }

  /// Wraps already-flattened parts.  `starts` has num_nodes + 1 entries
  /// with starts[0] == 0; the parts must satisfy the RelayPlan contract
  /// (validate() aborts otherwise -- pre-validate untrusted input).
  static FlatRelayPlan adopt(NodeId source,
                             std::vector<std::uint32_t> starts,
                             std::vector<Slot> offsets) {
    FlatRelayPlan flat;
    flat.source_ = source;
    flat.starts_ = std::move(starts);
    flat.offsets_ = std::move(offsets);
    // Files each relay whose parts are in bounds; validate() rejects the
    // rest before any engine reads the sets.
    const std::size_t n = flat.num_nodes();
    flat.size_relay_sets(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint32_t lo = flat.starts_[v];
      const std::uint32_t hi = flat.starts_[v + 1];
      if (lo < hi && hi <= flat.offsets_.size()) {
        flat.file_relay(v, std::span<const Slot>(flat.offsets_.data() + lo,
                                                 hi - lo));
      }
    }
    return flat;
  }

  /// Expands back into the construction-friendly form.
  [[nodiscard]] RelayPlan to_relay_plan() const {
    RelayPlan plan;
    plan.source = source_;
    plan.tx_offsets.resize(num_nodes());
    for (NodeId v = 0; v < num_nodes(); ++v) {
      const std::span<const Slot> span = offsets(v);
      plan.tx_offsets[v].assign(span.begin(), span.end());
    }
    return plan;
  }

  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return starts_.empty() ? 0 : starts_.size() - 1;
  }

  [[nodiscard]] std::span<const Slot> offsets(NodeId v) const noexcept {
    return {offsets_.data() + starts_[v], starts_[v + 1] - starts_[v]};
  }

  [[nodiscard]] bool is_relay(NodeId v) const noexcept {
    return starts_[v + 1] > starts_[v];
  }

  [[nodiscard]] std::size_t total_offsets() const noexcept {
    return offsets_.size();
  }

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

  /// Same contract as RelayPlan::validate(), plus CSR well-formedness.
  /// A plan flattened from a RelayPlan was checked as it was built and
  /// cannot change since, so the walk below runs for adopted parts only.
  void validate() const {
    WSN_EXPECTS(!starts_.empty() && starts_.front() == 0);
    if (checked_) return;
    WSN_EXPECTS(starts_.back() == offsets_.size());
    WSN_EXPECTS(source_ < num_nodes());
    WSN_EXPECTS(is_relay(source_));
    for (NodeId v = 0; v < num_nodes(); ++v) {
      WSN_EXPECTS(starts_[v] <= starts_[v + 1]);
      const std::span<const Slot> span = offsets(v);
      for (std::size_t i = 0; i < span.size(); ++i) {
        WSN_EXPECTS(span[i] >= 1);
        WSN_EXPECTS(i == 0 || span[i] > span[i - 1]);
      }
    }
  }

 private:
  void size_relay_sets(std::size_t n) {
    plain_relays_.assign((n + 63) / 64, 0);
    other_relays_.assign((n + 63) / 64, 0);
  }
  void file_relay(std::size_t v, std::span<const Slot> offsets) noexcept {
    const bool plain = offsets.size() == 1 && offsets[0] == 1;
    std::vector<std::uint64_t>& set = plain ? plain_relays_ : other_relays_;
    set[v / 64] |= std::uint64_t{1} << (v % 64);
  }

  NodeId source_ = kInvalidNode;
  std::vector<std::uint32_t> starts_;
  std::vector<Slot> offsets_;
  std::vector<std::uint64_t> plain_relays_;
  std::vector<std::uint64_t> other_relays_;
  bool checked_ = false;  // built from a RelayPlan, contract checked
};

/// One node's offset list on both sides of a plan edit: `before` as an
/// earlier run ran it, `after` as the next run runs it.  A sorted span of
/// these over a FlatRelayPlan base is the sparse overlay a differential
/// re-probe takes (BulkSimulator::rerun): every node it does not name
/// runs the base's list on both sides.  The spans borrow the caller's
/// storage.
struct OffsetEdit {
  NodeId node = kInvalidNode;
  std::span<const Slot> before;
  std::span<const Slot> after;
};

}  // namespace wsn
