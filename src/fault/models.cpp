#include "fault/models.h"

#include <algorithm>
#include <bit>

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

// Home slot of link `key` in a power-of-two index of `size` slots.
std::size_t index_slot(std::uint64_t key, std::size_t size) noexcept {
  return static_cast<std::size_t>(splitmix64_mix(key)) & (size - 1);
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
      step_{kChainStepSalt, mantissa_threshold(p_gb),
            mantissa_threshold(p_bg)},
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

void GilbertElliottModel::step(const LinkHash& hash, std::uint64_t first_word,
                               std::size_t n, unsigned last_slots,
                               bool bad_before, std::uint64_t* out) noexcept {
  step_words(hash, step_, first_word, n, last_slots, bad_before, out);
  words_stepped_ += n;
}

GilbertElliottModel::Chain& GilbertElliottModel::chain(std::uint64_t key) {
  static_assert(sizeof(Chain) == 104, "models.h states a link's bytes");
  const auto at_index = [this](std::size_t i) -> Chain& {
    return blocks_[i / kBlockChains][i % kBlockChains];
  };
  const std::size_t chains =
      blocks_.empty()
          ? 0
          : (blocks_.size() - 1) * kBlockChains + blocks_.back().size();
  if (2 * (chains + 1) > index_.size()) {  // keep the load <= 1/2
    index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
    for (std::size_t i = 0; i < chains; ++i) {
      std::size_t at = index_slot(at_index(i).key, index_.size());
      while (index_[at] != 0) at = (at + 1) & (index_.size() - 1);
      index_[at] = static_cast<std::uint32_t>(i + 1);
    }
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t at = index_slot(key, index_.size());; at = (at + 1) & mask) {
    const std::uint32_t entry = index_[at];
    if (entry == 0) {
      if (chains % kBlockChains == 0) {
        blocks_.emplace_back().reserve(kBlockChains);
      }
      blocks_.back().push_back(Chain{absorb_link(seed_, key), key});
      index_[at] = static_cast<std::uint32_t>(chains + 1);
      return blocks_.back().back();
    }
    Chain& link = at_index(entry - 1);
    if (link.key == key) return link;
  }
}

void GilbertElliottModel::fill(Chain& link, std::uint64_t slot) {
  // The word `filled` stops in is stepped again from its start.
  const std::uint64_t first = link.filled / 64;
  const bool bad_before = first > 0 && (link.words[first - 1] >> 63) != 0;
  step(link.hash, first, slot / 64 + 1 - first,
       static_cast<unsigned>(slot % 64 + 1), bad_before, link.words + first);
  link.filled = static_cast<std::uint32_t>((slot / 8 + 1) * 8);
}

bool GilbertElliottModel::bad_at(Chain& link, std::uint64_t slot) {
  const std::uint64_t w = slot / 64;
  if (w < kChainWords) {
    if (slot >= link.filled) fill(link, slot);
    return ((link.words[w] >> (slot % 64)) & 1) != 0;
  }
  if (link.past != w) {
    // Past the cache: step on from the kept word when it lies before `w`,
    // else from the cache's last word, and keep only word `w`.
    const bool from_past = link.past != 0 && link.past < w;
    if (!from_past && link.filled < 64 * kChainWords) {
      fill(link, 64 * kChainWords - 1);
    }
    std::uint64_t at = from_past ? link.past : kChainWords - 1;
    std::uint64_t bits = from_past ? link.past_word : link.words[at];
    for (; at < w; ++at) {
      step(link.hash, at + 1, 1, 64, (bits >> 63) != 0, &bits);
    }
    link.past = static_cast<std::uint32_t>(w);
    link.past_word = bits;
  }
  return ((link.past_word >> (slot % 64)) & 1) != 0;
}

bool GilbertElliottModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  Chain& link = chain(link_key(tx, rx));
  return survives(link.hash, slot, bad_at(link, slot));
}

std::size_t GilbertElliottModel::survivors(const LinkHash& hash,
                                           std::uint64_t first_slot,
                                           std::uint64_t probes,
                                           std::uint64_t threshold) const {
  if (threshold == 0) return static_cast<std::size_t>(std::popcount(probes));
  std::size_t delivered = 0;
  for (; probes != 0; probes &= probes - 1) {
    const auto bit = static_cast<unsigned>(std::countr_zero(probes));
    if (draw_mantissa(hash, first_slot + bit, kGeLossSalt) >= threshold) {
      delivered += 1;
    }
  }
  return delivered;
}

std::size_t GilbertElliottModel::count_delivered(NodeId tx, NodeId rx,
                                                 Slot first_slot, Slot stride,
                                                 std::size_t rounds) {
  if (rounds == 0) return 0;
  if (stride == 0) return rounds * count_delivered(tx, rx, first_slot, 1, 1);
  const LinkHash hash = absorb_link(seed_, link_key(tx, rx));
  const std::uint64_t last = first_slot + (rounds - 1) * std::uint64_t{stride};
  std::uint64_t words[kChainWords];
  std::size_t delivered = 0;
  std::size_t left = rounds;
  std::uint64_t probe = first_slot;  // the next probe slot
  bool bad_before = false;
  for (std::uint64_t base = 0; left > 0; base += kChainWords) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChainWords, last / 64 + 1 - base));
    const bool ends = base + n > last / 64;
    step(hash, base, n, ends ? static_cast<unsigned>(last % 64 + 1) : 64,
         bad_before, words);
    bad_before = (words[n - 1] >> 63) != 0;
    // The probes of each word as a mask, then one popcount per state that
    // cannot lose and one draw per probe in a state that can.
    std::uint64_t probes[kChainWords] = {};
    for (const std::uint64_t end = (base + n) * 64; left > 0 && probe < end;
         --left, probe += stride) {
      probes[probe / 64 - base] |= std::uint64_t{1} << (probe % 64);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t first = (base + i) * 64;
      delivered += survivors(hash, first, probes[i] & ~words[i], survive_good_);
      delivered += survivors(hash, first, probes[i] & words[i], survive_bad_);
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
