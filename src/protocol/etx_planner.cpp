#include "protocol/etx_planner.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "common/random.h"
#include "protocol/registry.h"
#include "topology/graph_algos.h"

namespace wsn {
namespace {

constexpr std::uint64_t kEtxStaggerSeed = 0x4554582d706c616eull;  // "ETX-plan"

[[nodiscard]] bool is_paper_family(std::string_view family) noexcept {
  return family == "2D-3" || family == "2D-4" || family == "2D-8" ||
         family == "3D-6";
}

[[nodiscard]] bool all_perfect(std::span<const double> quality) noexcept {
  return std::all_of(quality.begin(), quality.end(),
                     [](double p) { return p >= 1.0 - 1e-12; });
}

}  // namespace

RelayPlan EtxRelayPlanner::plan(const Topology& topo, NodeId source) const {
  return plan_with_quality(topo, source, topo.link_quality());
}

RelayPlan EtxRelayPlanner::plan_with_quality(
    const Topology& topo, NodeId source,
    std::span<const double> quality) const {
  const std::size_t n = topo.num_nodes();
  WSN_EXPECTS(source < n);
  WSN_EXPECTS(quality.empty() || quality.size() == topo.num_directed_links());
  WSN_EXPECTS(config_.target_delivery > 0.0 && config_.target_delivery <= 1.0);
  WSN_EXPECTS(config_.min_delivery > 0.0 && config_.min_delivery <= 1.0);

  // Perfect medium: ETX degenerates to hop count, and on the regular
  // families the paper's geometric relay set is the proven transmission
  // optimum (Tables 1-2) -- emit it verbatim so the reduction is exact.
  if (quality.empty() || all_perfect(quality)) {
    if (is_paper_family(topo.family())) {
      return make_paper_protocol(topo.family())->plan(topo, source);
    }
  }

  const auto delivery = [&](NodeId a, NodeId b) {
    if (quality.empty()) return 1.0;
    const std::size_t index = topo.link_index(a, b);
    WSN_ASSERT(index != Topology::kNoLink);
    return std::clamp(quality[index], config_.min_delivery, 1.0);
  };

  const std::vector<std::uint32_t> layer = bfs_distances(topo, source);
  std::uint32_t depth = 0;
  for (std::uint32_t d : layer) {
    if (d != kUnreachable) depth = std::max(depth, d);
  }

  // miss[u] = probability u has heard none of the selected transmitters;
  // a node is satisfied once its cumulative delivery reaches the target.
  std::vector<double> miss(n, 1.0);
  std::vector<char> satisfied(n, 0);
  std::vector<char> relay(n, 0);
  relay[source] = 1;
  satisfied[source] = 1;
  miss[source] = 0.0;
  const auto transmit = [&](NodeId tx) {
    for (NodeId u : topo.neighbors(tx)) {
      miss[u] *= 1.0 - delivery(tx, u);
      if (1.0 - miss[u] >= config_.target_delivery) satisfied[u] = 1;
    }
  };
  transmit(source);

  // Greedy dominant pruning with expected-coverage gain, one BFS ring at
  // a time (the CDS planner's structure): candidates are the satisfied
  // nodes of ring d; each step picks the candidate whose transmission is
  // expected to deliver the most still-missing coverage mass.  Gains
  // below `min_gain` are not worth a transmission -- stragglers belong to
  // the resolver (ideal channel) and the ARQ layer (lossy channel).
  std::vector<NodeId> candidates;
  for (std::uint32_t d = 1; d <= depth; ++d) {
    while (true) {
      candidates.clear();
      for (NodeId v = 0; v < n; ++v) {
        if (layer[v] == d && satisfied[v] && !relay[v]) candidates.push_back(v);
      }
      NodeId best = kInvalidNode;
      double best_gain = 0.0;
      for (NodeId c : candidates) {
        double g = 0.0;
        for (NodeId u : topo.neighbors(c)) {
          if (!satisfied[u]) g += delivery(c, u) * miss[u];
        }
        if (g > best_gain) {
          best = c;
          best_gain = g;
        }
      }
      if (best == kInvalidNode || best_gain < config_.min_gain) break;
      relay[best] = 1;
      transmit(best);
    }
  }

  // Deterministic per-node stagger decouples the rings' lock-step
  // transmissions; the resolver cleans up whatever still collides.
  RelayPlan::Writer plan(n, source);
  Xoshiro256 rng(kEtxStaggerSeed ^ (0x9e3779b97f4a7c15ull * (source + 1)));
  for (NodeId v = 0; v < n; ++v) {
    const Slot stagger =
        config_.stagger_window == 0
            ? 0
            : static_cast<Slot>(rng.below(config_.stagger_window + 1));
    if (v == source) continue;  // keep the stream aligned per node
    if (relay[v]) plan.set(v, {1 + stagger});
  }
  return std::move(plan).finish();
}

std::string EtxRelayPlanner::name() const {
  return "etx-planner(target=" + std::to_string(config_.target_delivery) +
         ")";
}

RelayPlan etx_plan(const Topology& topo, NodeId source,
                   std::span<const double> quality, const SimOptions& options,
                   ResolveReport* report,
                   const EtxRelayPlanner::Config& config) {
  const EtxRelayPlanner planner(config);
  RelayPlan plan = quality.empty()
                       ? planner.plan(topo, source)
                       : planner.plan_with_quality(topo, source, quality);
  return resolve_full_reachability(topo, std::move(plan), options, report);
}

}  // namespace wsn
