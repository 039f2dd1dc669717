#include "protocol/gossip.h"

#include "common/random.h"
#include "common/string_util.h"

namespace wsn {

RelayPlan Gossip::plan(const Topology& topo, NodeId source) const {
  RelayPlan::Writer plan(topo.num_nodes(), source);
  Xoshiro256 rng(seed_ ^ (0x9e3779b97f4a7c15ull * (source + 1)));
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    const bool forwards = rng.chance(p_);
    const Slot jitter =
        window_ == 0 ? 0 : static_cast<Slot>(rng.below(window_ + 1));
    if (v == source) continue;  // keep the rng stream aligned per node
    if (forwards) plan.set(v, {1 + jitter});
  }
  return std::move(plan).finish();
}

std::string Gossip::name() const {
  std::string out = "gossip(p=" + fixed(p_, 2);
  if (window_ != 0) out += ",jitter=" + std::to_string(window_);
  return out + ")";
}

}  // namespace wsn
