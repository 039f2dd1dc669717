#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "fault/fault_draw.h"
#include "fault/fault_model.h"

/// Concrete fault models.  All are seeded and deterministic: every answer
/// is a pure function of (seed, link/node, slot), independent of query
/// order, so a rerun with the same seed replays the exact same fault
/// pattern -- the property the resilience harness and the determinism
/// tests rely on.  Randomness comes from counter-mode splitmix64 hashing
/// (the same mixer `wsn::random` uses for seeding) rather than a shared
/// sequential stream, which a simulation's data-dependent query pattern
/// would scramble.
namespace wsn {

/// Independent and identically distributed packet loss: each directed link
/// drops each slot's packet with probability `loss_rate`, independently of
/// everything else.  The memoryless baseline of every loss study.
class IidLossModel final : public FaultModel {
 public:
  IidLossModel(double loss_rate, std::uint64_t seed) noexcept;

  [[nodiscard]] bool link_delivers(NodeId tx, NodeId rx,
                                   Slot slot) override;
  /// One link hash and one batch draw for all `rounds` slots.
  [[nodiscard]] std::size_t count_delivered(NodeId tx, NodeId rx,
                                            Slot first_slot, Slot stride,
                                            std::size_t rounds) override;
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

 private:
  double loss_rate_;
  std::uint64_t seed_;
  std::uint64_t deliver_from_;  // mantissa_threshold(loss_rate_)
};

/// Gilbert-Elliott bursty loss: each directed link carries a two-state
/// Markov chain (Good/Bad) stepped once per slot; the packet drops with
/// `loss_good` in the Good state and `loss_bad` in the Bad state.  Chains
/// start Good at slot 0 and evolve with per-(link, slot) hashed draws, so
/// the state at any slot is a pure function of the seed -- lazily advanced
/// and memoized per link, reset by `begin_run()`.
class GilbertElliottModel final : public FaultModel {
 public:
  /// Transition probabilities per slot: Good->Bad `p_gb`, Bad->Good
  /// `p_bg`; all probabilities in [0, 1], `p_bg` > 0.
  GilbertElliottModel(double p_gb, double p_bg, double loss_good,
                      double loss_bad, std::uint64_t seed);

  /// Convenience: a chain whose stationary loss is `mean_loss` with mean
  /// bad-burst length `mean_burst` slots (loss_bad = 0.9, loss_good = 0).
  /// Requires mean_loss in [0, 0.9).
  [[nodiscard]] static GilbertElliottModel from_mean_loss(
      double mean_loss, double mean_burst, std::uint64_t seed);

  void begin_run() override { chains_.clear(); }
  [[nodiscard]] bool link_delivers(NodeId tx, NodeId rx,
                                   Slot slot) override;
  /// Walks a fresh chain from slot 0 in a local variable, drawing its
  /// steps in batches; the memoized chains are neither read nor written.
  [[nodiscard]] std::size_t count_delivered(NodeId tx, NodeId rx,
                                            Slot first_slot, Slot stride,
                                            std::size_t rounds) override;

  /// Long-run fraction of slots a link spends in the Bad state.
  [[nodiscard]] double stationary_bad() const noexcept;

 private:
  struct ChainState {
    Slot slot = 0;
    bool bad = false;
    LinkHash hash;  // absorbed when the chain is created
  };

  /// Draws the loss of `slot` in state `bad`.
  [[nodiscard]] bool survives(const LinkHash& hash, Slot slot,
                              bool bad) const noexcept;

  double p_gb_;
  double p_bg_;
  std::uint64_t seed_;
  // Mantissa thresholds of p_gb, p_bg, loss_good and loss_bad: a
  // step's draw m turns Good to Bad when m < enter_bad_ and Bad to Good
  // when m < leave_bad_; a packet survives when m >= its state's
  // threshold.
  std::uint64_t enter_bad_;
  std::uint64_t leave_bad_;
  std::uint64_t survive_good_;
  std::uint64_t survive_bad_;
  std::unordered_map<std::uint64_t, ChainState> chains_;
};

/// One node outage: `node` is down for slots in [down_from, up_at);
/// `up_at == kNeverSlot` means it never recovers.
struct CrashEvent {
  NodeId node = kInvalidNode;
  Slot down_from = 0;
  Slot up_at = kNeverSlot;
};

/// Deterministic per-node crash schedule (crash at slot t, optional
/// recovery).  Events are given explicitly or sampled once via `sample`;
/// either way the schedule is fixed data, so replays are exact.
class CrashScheduleModel final : public FaultModel {
 public:
  CrashScheduleModel(std::size_t num_nodes, std::vector<CrashEvent> events);

  /// Samples a schedule: each node independently crashes with probability
  /// `crash_prob`, at a slot uniform in [1, horizon]; a crashed node stays
  /// down `outage_slots` slots (0 = forever).  Seeded, deterministic.
  [[nodiscard]] static CrashScheduleModel sample(std::size_t num_nodes,
                                                 double crash_prob,
                                                 Slot horizon,
                                                 Slot outage_slots,
                                                 std::uint64_t seed);

  [[nodiscard]] bool node_up(NodeId node, Slot slot) override;
  [[nodiscard]] const std::vector<CrashEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<CrashEvent> events_;  // sorted by node
  std::vector<std::uint32_t> first_event_;  // node -> index into events_
};

/// Conjunction of fault models (non-owning): a node is up iff every part
/// says up; a packet survives iff every part delivers it.  Composes e.g.
/// a lossy medium with a crash schedule.
class CompositeFaultModel final : public FaultModel {
 public:
  explicit CompositeFaultModel(std::vector<FaultModel*> parts);

  void begin_run() override;
  [[nodiscard]] bool node_up(NodeId node, Slot slot) override;
  [[nodiscard]] bool link_delivers(NodeId tx, NodeId rx,
                                   Slot slot) override;

 private:
  std::vector<FaultModel*> parts_;
};

}  // namespace wsn
