#include "protocol/flooding.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(Flooding, EveryNodeIsARelay) {
  const Mesh2D4 topo(6, 6);
  const Flooding proto;
  const RelayPlan plan = proto.plan(topo, 5);
  EXPECT_EQ(plan.relay_count(), topo.num_nodes());
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    ASSERT_EQ(plan.offsets(v).size(), 1u);
  }
}

TEST(Flooding, NoJitterMeansNextSlot) {
  const Mesh2D4 topo(4, 4);
  const Flooding proto(0);
  const RelayPlan plan = proto.plan(topo, 0);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_EQ(plan.offsets(v)[0], 1u);
  }
}

TEST(Flooding, JitterStaysInsideWindow) {
  const Mesh2D4 topo(8, 8);
  const Flooding proto(5, 123);
  const RelayPlan plan = proto.plan(topo, 3);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_GE(plan.offsets(v)[0], 1u);
    EXPECT_LE(plan.offsets(v)[0], 6u);
  }
  EXPECT_EQ(plan.offsets(3)[0], 1u);  // the source never jitters
}

TEST(Flooding, DeterministicPerSeedAndSource) {
  const Mesh2D4 topo(8, 8);
  const Flooding proto(4, 7);
  const RelayPlan a = proto.plan(topo, 9);
  const RelayPlan b = proto.plan(topo, 9);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.offsets(v), b.offsets(v)));
  }
  // A different source re-rolls the jitter.
  const RelayPlan c = proto.plan(topo, 10);
  bool differs = false;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (!std::ranges::equal(a.offsets(v), c.offsets(v))) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Flooding, SynchronousFloodingStrandsNodesOnMeshes) {
  // The paper's motivation: naive flooding causes severe collisions.  On a
  // 2D-4 mesh with a central source, the slot-synchronous flood never
  // reaches large parts of the mesh.
  const Mesh2D4 topo(16, 16);
  const Flooding proto(0);
  const RelayPlan plan = proto.plan(topo, topo.grid().to_id({8, 8}));
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_LT(out.stats.reachability(), 0.75);
  EXPECT_GT(out.stats.collisions, 50u);
}

TEST(Flooding, JitterRestoresMostReachability) {
  const Mesh2D4 topo(16, 16);
  const Flooding proto(7, 99);
  const RelayPlan plan = proto.plan(topo, topo.grid().to_id({8, 8}));
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_GT(out.stats.reachability(), 0.9);
}

TEST(Flooding, NameReflectsJitter) {
  EXPECT_EQ(Flooding(0).name(), "flooding");
  EXPECT_EQ(Flooding(4).name(), "flooding(jitter=4)");
}

}  // namespace
}  // namespace wsn
