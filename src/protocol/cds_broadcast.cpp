#include "protocol/cds_broadcast.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "common/random.h"
#include "topology/graph_algos.h"

namespace wsn {

RelayPlan CdsBroadcast::plan(const Topology& topo, NodeId source) const {
  const std::size_t n = topo.num_nodes();
  WSN_EXPECTS(source < n);

  const std::vector<std::uint32_t> layer = bfs_distances(topo, source);
  std::uint32_t depth = 0;
  for (std::uint32_t d : layer) {
    if (d != kUnreachable) depth = std::max(depth, d);
  }

  std::vector<char> covered(n, 0);
  std::vector<char> relay(n, 0);
  relay[source] = 1;
  covered[source] = 1;
  for (NodeId u : topo.neighbors(source)) covered[u] = 1;

  // Greedy dominant pruning, one BFS ring at a time: candidates are the
  // covered nodes of ring d (they will hold the message when their turn
  // comes); each greedy step picks the candidate covering the most
  // still-uncovered ring-(d+1) nodes.
  std::vector<NodeId> candidates;
  for (std::uint32_t d = 1; d <= depth; ++d) {
    candidates.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (layer[v] == d && covered[v] && !relay[v]) candidates.push_back(v);
    }
    const auto gain = [&](NodeId c) {
      std::size_t fresh = 0;
      for (NodeId u : topo.neighbors(c)) {
        if (!covered[u]) ++fresh;
      }
      return fresh;
    };
    while (true) {
      NodeId best = kInvalidNode;
      std::size_t best_gain = 0;
      for (NodeId c : candidates) {
        if (relay[c]) continue;
        const std::size_t g = gain(c);
        if (g > best_gain || (g == best_gain && g > 0 && c < best)) {
          best = c;
          best_gain = g;
        }
      }
      if (best == kInvalidNode || best_gain == 0) break;
      relay[best] = 1;
      for (NodeId u : topo.neighbors(best)) covered[u] = 1;
    }
  }

  // Deterministic per-node stagger decouples the rings' lock-step
  // transmissions; the resolver cleans up whatever still collides.
  RelayPlan::Writer plan(n, source);
  Xoshiro256 rng(seed_ ^ (0x9e3779b97f4a7c15ull * (source + 1)));
  for (NodeId v = 0; v < n; ++v) {
    const Slot stagger =
        window_ == 0 ? 0 : static_cast<Slot>(rng.below(window_ + 1));
    if (v == source) continue;  // keep the stream aligned per node
    if (relay[v]) plan.set(v, {1 + stagger});
  }
  return std::move(plan).finish();
}

std::string CdsBroadcast::name() const {
  return "cds-broadcast(window=" + std::to_string(window_) + ")";
}

}  // namespace wsn
