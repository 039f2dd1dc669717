#include "fault/models.h"

#include <algorithm>

#include "common/assert.h"
#include "common/random.h"

namespace wsn {

namespace {

// Salts that keep one link's draw streams apart.
constexpr std::uint64_t kIidLossSalt = 0x11d;
constexpr std::uint64_t kChainStepSalt = 0x6eb;
constexpr std::uint64_t kGeLossSalt = 0x105;

// Draws per batch in `count_delivered`: one stack buffer's worth.
constexpr std::size_t kDrawChunk = 512;

std::uint64_t link_key(NodeId tx, NodeId rx) noexcept {
  return (static_cast<std::uint64_t>(tx) << 32) | rx;
}

}  // namespace

IidLossModel::IidLossModel(double loss_rate, std::uint64_t seed) noexcept
    : loss_rate_(std::clamp(loss_rate, 0.0, 1.0)),
      seed_(seed),
      deliver_from_(mantissa_threshold(loss_rate_)) {}

bool IidLossModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  if (deliver_from_ == 0) return true;
  const LinkHash link = absorb_link(seed_, link_key(tx, rx));
  return draw_mantissa(link, slot, kIidLossSalt) >= deliver_from_;
}

std::size_t IidLossModel::count_delivered(NodeId tx, NodeId rx,
                                          Slot first_slot, Slot stride,
                                          std::size_t rounds) {
  if (deliver_from_ == 0) return rounds;
  const LinkHash link = absorb_link(seed_, link_key(tx, rx));
  std::uint64_t draws[kDrawChunk];
  std::size_t delivered = 0;
  std::uint64_t slot = first_slot;
  for (std::size_t done = 0; done < rounds;) {
    const std::size_t n = std::min(kDrawChunk, rounds - done);
    draw_mantissas(link, slot, stride, kIidLossSalt, n, draws);
    for (std::size_t i = 0; i < n; ++i) {
      delivered += draws[i] >= deliver_from_ ? 1 : 0;
    }
    done += n;
    slot += static_cast<std::uint64_t>(stride) * n;
  }
  return delivered;
}

GilbertElliottModel::GilbertElliottModel(double p_gb, double p_bg,
                                         double loss_good, double loss_bad,
                                         std::uint64_t seed)
    : p_gb_(p_gb),
      p_bg_(p_bg),
      seed_(seed),
      enter_bad_(mantissa_threshold(p_gb)),
      leave_bad_(mantissa_threshold(p_bg)),
      survive_good_(mantissa_threshold(loss_good)),
      survive_bad_(mantissa_threshold(loss_bad)) {
  WSN_EXPECTS(p_gb >= 0.0 && p_gb <= 1.0);
  WSN_EXPECTS(p_bg > 0.0 && p_bg <= 1.0);
  WSN_EXPECTS(loss_good >= 0.0 && loss_good <= 1.0);
  WSN_EXPECTS(loss_bad >= 0.0 && loss_bad <= 1.0);
}

GilbertElliottModel GilbertElliottModel::from_mean_loss(double mean_loss,
                                                        double mean_burst,
                                                        std::uint64_t seed) {
  constexpr double kLossBad = 0.9;
  WSN_EXPECTS(mean_loss >= 0.0 && mean_loss < kLossBad);
  WSN_EXPECTS(mean_burst >= 1.0);
  // Stationary bad share pi_b = p_gb / (p_gb + p_bg); mean burst length
  // 1 / p_bg.  Solve pi_b * kLossBad = mean_loss for p_gb.
  const double p_bg = 1.0 / mean_burst;
  const double pi_b = mean_loss / kLossBad;
  const double p_gb = pi_b >= 1.0 ? 1.0 : p_bg * pi_b / (1.0 - pi_b);
  return GilbertElliottModel(std::min(p_gb, 1.0), p_bg, 0.0, kLossBad, seed);
}

double GilbertElliottModel::stationary_bad() const noexcept {
  return p_gb_ + p_bg_ == 0.0 ? 0.0 : p_gb_ / (p_gb_ + p_bg_);
}

bool GilbertElliottModel::survives(const LinkHash& hash, Slot slot,
                                   bool bad) const noexcept {
  const std::uint64_t threshold = bad ? survive_bad_ : survive_good_;
  return threshold == 0 || draw_mantissa(hash, slot, kGeLossSalt) >= threshold;
}

bool GilbertElliottModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  const std::uint64_t key = link_key(tx, rx);
  const auto [it, created] = chains_.try_emplace(key);
  ChainState& chain = it->second;
  if (created) chain.hash = absorb_link(seed_, key);
  if (slot < chain.slot) {  // out-of-order query: replay from slot 0
    chain.slot = 0;
    chain.bad = false;
  }
  while (chain.slot < slot) {
    chain.slot += 1;
    const std::uint64_t m =
        draw_mantissa(chain.hash, chain.slot, kChainStepSalt);
    chain.bad = chain.bad ? m >= leave_bad_ : m < enter_bad_;
  }
  return survives(chain.hash, slot, chain.bad);
}

std::size_t GilbertElliottModel::count_delivered(NodeId tx, NodeId rx,
                                                 Slot first_slot, Slot stride,
                                                 std::size_t rounds) {
  const LinkHash hash = absorb_link(seed_, link_key(tx, rx));
  std::size_t delivered = 0;
  std::size_t left = rounds;
  std::uint64_t probe = first_slot;  // the next probe slot
  // The chain starts Good at slot 0, which no step draw reaches.
  for (; left > 0 && probe == 0; --left, probe += stride) {
    if (survives(hash, 0, false)) delivered += 1;
  }
  std::uint64_t steps[kDrawChunk];  // the draw that moves the chain to
  bool bad[kDrawChunk];             // base + i, and the state it leaves
  bool state = false;
  for (std::uint64_t base = 1; left > 0; base += kDrawChunk) {
    const std::uint64_t last = probe + (left - 1) * std::uint64_t{stride};
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kDrawChunk, last - base + 1));
    draw_mantissas(hash, base, 1, kChainStepSalt, n, steps);
    // Both outcomes of a step are compared before the state picks one,
    // so the only serial work per step is that pick.
    for (std::size_t i = 0; i < n; ++i) {
      const bool stays_bad = steps[i] >= leave_bad_;
      const bool turns_bad = steps[i] < enter_bad_;
      state = (state & stays_bad) | (!state & turns_bad);
      bad[i] = state;
    }
    for (; left > 0 && probe < base + n; --left, probe += stride) {
      const bool probe_bad = bad[probe - base];
      if (survives(hash, static_cast<Slot>(probe), probe_bad)) delivered += 1;
    }
  }
  return delivered;
}

CrashScheduleModel::CrashScheduleModel(std::size_t num_nodes,
                                       std::vector<CrashEvent> events)
    : events_(std::move(events)) {
  for (const CrashEvent& ev : events_) {
    WSN_EXPECTS(ev.node < num_nodes);
    WSN_EXPECTS(ev.up_at > ev.down_from);
  }
  std::sort(events_.begin(), events_.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.node != b.node ? a.node < b.node
                                      : a.down_from < b.down_from;
            });
  first_event_.assign(num_nodes + 1, 0);
  std::size_t i = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    first_event_[v] = static_cast<std::uint32_t>(i);
    while (i < events_.size() && events_[i].node == v) ++i;
  }
  first_event_[num_nodes] = static_cast<std::uint32_t>(i);
}

CrashScheduleModel CrashScheduleModel::sample(std::size_t num_nodes,
                                              double crash_prob,
                                              Slot horizon,
                                              Slot outage_slots,
                                              std::uint64_t seed) {
  WSN_EXPECTS(horizon >= 1);
  Xoshiro256 rng(seed);
  std::vector<CrashEvent> events;
  for (NodeId v = 0; v < num_nodes; ++v) {
    // One draw pair per node regardless of outcome keeps schedules for a
    // given node stable across crash_prob values with the same seed.
    const bool crashes = rng.chance(crash_prob);
    const Slot at = 1 + static_cast<Slot>(rng.below(horizon));
    if (!crashes) continue;
    const Slot up =
        outage_slots == 0 ? kNeverSlot : at + outage_slots;
    events.push_back(CrashEvent{v, at, up});
  }
  return CrashScheduleModel(num_nodes, std::move(events));
}

bool CrashScheduleModel::node_up(NodeId node, Slot slot) {
  for (std::uint32_t i = first_event_[node]; i < first_event_[node + 1];
       ++i) {
    if (slot >= events_[i].down_from && slot < events_[i].up_at) {
      return false;
    }
  }
  return true;
}

CompositeFaultModel::CompositeFaultModel(std::vector<FaultModel*> parts)
    : parts_(std::move(parts)) {
  for (FaultModel* part : parts_) WSN_EXPECTS(part != nullptr);
}

void CompositeFaultModel::begin_run() {
  for (FaultModel* part : parts_) part->begin_run();
}

bool CompositeFaultModel::node_up(NodeId node, Slot slot) {
  for (FaultModel* part : parts_) {
    if (!part->node_up(node, slot)) return false;
  }
  return true;
}

bool CompositeFaultModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  for (FaultModel* part : parts_) {
    if (!part->link_delivers(tx, rx, slot)) return false;
  }
  return true;
}

}  // namespace wsn
