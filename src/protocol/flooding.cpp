#include "protocol/flooding.h"

#include "common/random.h"

namespace wsn {

RelayPlan Flooding::plan(const Topology& topo, NodeId source) const {
  RelayPlan::Writer plan(topo.num_nodes(), source);
  Xoshiro256 rng(seed_ ^ (0x9e3779b97f4a7c15ull * (source + 1)));
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    const Slot jitter =
        window_ == 0 ? 0 : static_cast<Slot>(rng.below(window_ + 1));
    // The source ignores jitter: it initiates at slot 1 by definition.
    if (v != source) plan.set(v, {1 + jitter});
  }
  return std::move(plan).finish();
}

std::string Flooding::name() const {
  return window_ == 0 ? "flooding"
                      : "flooding(jitter=" + std::to_string(window_) + ")";
}

}  // namespace wsn
