#pragma once

#include <cstdint>
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
/// the state at any slot is a pure function of the seed.
///
/// The chains run 64 slots at a time through `step_words`
/// (fault/fault_draw.h).  `link_delivers` keeps each link's words for the
/// life of the model, stepped through the 8-slot group of the latest slot
/// it was asked about, so later queries and later runs read a slot's
/// state with one bit test and `begin_run()` has nothing to reset.  The
/// cache stops at kChainWords words (slots below 512): a query past it
/// steps on from the last cached word, or from the one word kept past it
/// when that lies before the query, and keeps only the word it reached.
/// A link costs one 104-byte entry in the model's arena (its LinkHash,
/// key, fill marks, the kept word and the 64 bytes of cached words) and 8
/// to 16 bytes of the arena's index, whatever slots it is asked about;
/// the arena grows 64 entries at a time.
class GilbertElliottModel final : public FaultModel {
 public:
  /// Words of a link's chain the cache keeps: slots [0, 64 * kChainWords).
  static constexpr std::size_t kChainWords = 8;

  /// Transition probabilities per slot: Good->Bad `p_gb`, Bad->Good
  /// `p_bg`; all probabilities in [0, 1], `p_bg` > 0.
  GilbertElliottModel(double p_gb, double p_bg, double loss_good,
                      double loss_bad, std::uint64_t seed);

  /// Convenience: a chain whose stationary loss is `mean_loss` with mean
  /// bad-burst length `mean_burst` slots (loss_bad = 0.9, loss_good = 0).
  /// Requires mean_loss in [0, 0.9).
  [[nodiscard]] static GilbertElliottModel from_mean_loss(
      double mean_loss, double mean_burst, std::uint64_t seed);

  [[nodiscard]] bool link_delivers(NodeId tx, NodeId rx,
                                   Slot slot) override;
  /// Steps the link's words up to the last probe into a stack buffer and
  /// draws a loss only at probes whose state can lose; the cache is
  /// neither read nor written.
  [[nodiscard]] std::size_t count_delivered(NodeId tx, NodeId rx,
                                            Slot first_slot, Slot stride,
                                            std::size_t rounds) override;

  /// Long-run fraction of slots a link spends in the Bad state.
  [[nodiscard]] double stationary_bad() const noexcept;

  /// Chain words this model has stepped, whole or in part, cached or not:
  /// the exact work of its `step_words` calls.
  [[nodiscard]] std::uint64_t words_stepped() const noexcept {
    return words_stepped_;
  }

 private:
  struct Chain {
    LinkHash hash;
    std::uint64_t key = 0;
    std::uint32_t filled = 0;  // slots [0, filled) are in `words`
    std::uint32_t past = 0;    // index of `past_word`; 0 = none yet
    std::uint64_t past_word = 0;
    std::uint64_t words[kChainWords] = {};
  };

  /// The chain of link `key`, created on first use.
  [[nodiscard]] Chain& chain(std::uint64_t key);
  /// Steps `link`'s cached words through the group of `slot`.
  void fill(Chain& link, std::uint64_t slot);
  /// Whether `link`'s chain is Bad at `slot`.
  [[nodiscard]] bool bad_at(Chain& link, std::uint64_t slot);
  /// `step_words` on this model's chain step, counted.
  void step(const LinkHash& hash, std::uint64_t first_word, std::size_t n,
            unsigned last_slots, bool bad_before,
            std::uint64_t* out) noexcept;
  /// How many of the slots first_slot + b, for each bit b of `probes`,
  /// deliver in a state whose survival threshold is `threshold`.
  [[nodiscard]] std::size_t survivors(const LinkHash& hash,
                                      std::uint64_t first_slot,
                                      std::uint64_t probes,
                                      std::uint64_t threshold) const;
  /// Draws the loss of `slot` in state `bad`.
  [[nodiscard]] bool survives(const LinkHash& hash, Slot slot,
                              bool bad) const noexcept;

  double p_gb_;
  double p_bg_;
  std::uint64_t seed_;
  // The step's mantissa thresholds of p_gb (enter_bad) and p_bg
  // (leave_bad), and those of loss_good and loss_bad: a packet survives
  // when its draw is >= its state's threshold.
  ChainStep step_;
  std::uint64_t survive_good_;
  std::uint64_t survive_bad_;
  // The arena: chains in creation order, kBlockChains to a block, so
  // adding a chain copies at most one block's worth of them.  `index_`
  // maps a link by open addressing to its chain's number + 1 (0 = empty).
  static constexpr std::size_t kBlockChains = 64;
  std::vector<std::vector<Chain>> blocks_;
  std::vector<std::uint32_t> index_;
  std::uint64_t words_stepped_ = 0;
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
