#include "protocol/gossip.h"

#include <gtest/gtest.h>

#include "protocol/flooding.h"
#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(Gossip, ZeroProbabilityMeansOnlySource) {
  const Mesh2D4 topo(8, 8);
  const Gossip proto(0.0);
  const RelayPlan plan = proto.plan(topo, 12);
  EXPECT_EQ(plan.relay_count(), 1u);
  EXPECT_TRUE(plan.is_relay(12));
}

TEST(Gossip, FullProbabilityRelaysEverywhere) {
  const Mesh2D4 topo(8, 8);
  const Gossip proto(1.0);
  const RelayPlan plan = proto.plan(topo, 12);
  EXPECT_EQ(plan.relay_count(), topo.num_nodes());
}

TEST(Gossip, RelayFractionTracksProbability) {
  const Mesh2D4 topo(32, 32);  // 1024 nodes for a tight estimate
  const Gossip proto(0.6, 0, 42);
  const RelayPlan plan = proto.plan(topo, 0);
  const double fraction = static_cast<double>(plan.relay_count()) /
                          static_cast<double>(topo.num_nodes());
  EXPECT_NEAR(fraction, 0.6, 0.05);
}

TEST(Gossip, DeterministicPerSeed) {
  const Mesh2D4 topo(10, 10);
  const Gossip a(0.5, 3, 11);
  const Gossip b(0.5, 3, 11);
  const RelayPlan pa = a.plan(topo, 7);
  const RelayPlan pb = b.plan(topo, 7);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(pa.offsets(v), pb.offsets(v)));
  }
}

TEST(Gossip, SeedsChangeTheDraw) {
  const Mesh2D4 topo(10, 10);
  const RelayPlan pa = Gossip(0.5, 0, 1).plan(topo, 7);
  const RelayPlan pb = Gossip(0.5, 0, 2).plan(topo, 7);
  bool differs = false;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (!std::ranges::equal(pa.offsets(v), pb.offsets(v))) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Gossip, LowerProbabilityLowersReachability) {
  const Mesh2D4 topo(16, 16);
  SimOptions options;
  const NodeId src = topo.grid().to_id({8, 8});
  const auto high = simulate_broadcast(
      topo, Gossip(0.9, 5, 3).plan(topo, src), options);
  const auto low = simulate_broadcast(
      topo, Gossip(0.2, 5, 3).plan(topo, src), options);
  EXPECT_GT(high.stats.reachability(), low.stats.reachability());
}

TEST(Gossip, NameEncodesParameters) {
  EXPECT_EQ(Gossip(0.65).name(), "gossip(p=0.65)");
  EXPECT_EQ(Gossip(0.5, 4).name(), "gossip(p=0.50,jitter=4)");
}

}  // namespace
}  // namespace wsn
