#include "fault/models.h"

#include <algorithm>

#include "common/assert.h"
#include "common/random.h"

namespace wsn {

namespace {

// Counter-mode uniform in [0, 1): splitmix64 absorbs the (seed, a, b, c)
// tuple one word per round and the final state maps to a 53-bit mantissa
// exactly like Xoshiro256::canonical.  `a` is the link key, the same for
// every draw on a link, so the rounds are split: `absorb_link` runs the
// seed and `a` rounds plus the b round's mix once per link, and
// `hashed_canonical` finishes a draw in two mixes.  Bit for bit the
// four-round original, which tests/test_fault_models.cpp keeps as its
// oracle.
LinkHash absorb_link(std::uint64_t seed, std::uint64_t a) noexcept {
  std::uint64_t state = seed;
  state ^= splitmix64(state) + a;
  state += kSplitmix64Gamma;
  return {state, splitmix64_mix(state)};
}

double hashed_canonical(const LinkHash& link, std::uint64_t b,
                        std::uint64_t c) noexcept {
  std::uint64_t state = link.state ^ (link.mixed + b);
  state ^= splitmix64(state) + c;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t link_key(NodeId tx, NodeId rx) noexcept {
  return (static_cast<std::uint64_t>(tx) << 32) | rx;
}

}  // namespace

IidLossModel::IidLossModel(double loss_rate, std::uint64_t seed) noexcept
    : loss_rate_(std::clamp(loss_rate, 0.0, 1.0)), seed_(seed) {}

bool IidLossModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  if (loss_rate_ <= 0.0) return true;
  const std::uint64_t key = link_key(tx, rx);
  const LinkHash* link = last_.find(key);
  if (link == nullptr) link = &last_.remember(key, absorb_link(seed_, key));
  return hashed_canonical(*link, slot, 0x11d) >= loss_rate_;
}

GilbertElliottModel::GilbertElliottModel(double p_gb, double p_bg,
                                         double loss_good, double loss_bad,
                                         std::uint64_t seed)
    : p_gb_(p_gb),
      p_bg_(p_bg),
      loss_good_(loss_good),
      loss_bad_(loss_bad),
      seed_(seed) {
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

GilbertElliottModel::ChainState& GilbertElliottModel::chain_for(
    std::uint64_t key) {
  if (ChainState* const* last = last_.find(key)) return **last;
  const auto [it, created] = chains_.try_emplace(key);
  if (created) it->second.hash = absorb_link(seed_, key);
  return *last_.remember(key, &it->second);
}

bool GilbertElliottModel::link_delivers(NodeId tx, NodeId rx, Slot slot) {
  ChainState& chain = chain_for(link_key(tx, rx));
  if (slot < chain.slot) {  // out-of-order query: replay from slot 0
    chain.slot = 0;
    chain.bad = false;
  }
  while (chain.slot < slot) {
    chain.slot += 1;
    const double u = hashed_canonical(chain.hash, chain.slot, 0x6eb);
    chain.bad = chain.bad ? u >= p_bg_ : u < p_gb_;
  }
  const double loss = chain.bad ? loss_bad_ : loss_good_;
  if (loss <= 0.0) return true;
  return hashed_canonical(chain.hash, slot, 0x105) >= loss;
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
