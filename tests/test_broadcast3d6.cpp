#include "protocol/mesh3d6_broadcast.h"

#include <gtest/gtest.h>

#include "geometry/lattice.h"
#include "protocol/mesh2d4_broadcast.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/graph_algos.h"
#include "topology/mesh3d6.h"

namespace wsn {
namespace {

TEST(Broadcast3D6, BorderRelaysCoverEveryUncoveredCell) {
  for (Vec2 src : {Vec2{6, 8}, Vec2{1, 1}, Vec2{4, 4}, Vec2{8, 1}}) {
    const auto uncovered = uncovered_by_zrelays(src, 8, 8);
    const auto relays = Mesh3d6Broadcast::border_relays(src, 8, 8);
    for (Vec2 u : uncovered) {
      bool served = false;
      for (Vec2 b : relays) {
        if (manhattan(u, b) == 1) served = true;
      }
      EXPECT_TRUE(served) << "uncovered " << to_string(u) << " src "
                          << to_string(src);
    }
  }
}

TEST(Broadcast3D6, NoBorderRelaysWhenCoverIsComplete) {
  // A lattice-friendly window can still leave gaps; just check the empty
  // uncovered set maps to an empty relay set.
  for (Vec2 src : {Vec2{3, 3}, Vec2{5, 2}}) {
    if (uncovered_by_zrelays(src, 10, 10).empty()) {
      EXPECT_TRUE(Mesh3d6Broadcast::border_relays(src, 10, 10).empty());
    }
  }
}

TEST(Broadcast3D6, SourcePlaneRunsThe2D4Protocol) {
  const Mesh3D6 topo(8, 8, 8);
  const Grid3D& g = topo.grid();
  const Mesh3d6Broadcast proto;
  const Vec3 src{6, 8, 4};  // the paper's §3.4 example source
  const RelayPlan plan = proto.plan(topo, g.to_id(src));
  // The whole source row of plane 4 relays.
  for (int x = 1; x <= 8; ++x) {
    EXPECT_TRUE(plan.is_relay(g.to_id({x, 8, 4}))) << x;
  }
  // The X pair next to the source retransmits (row retransmitter rule).
  EXPECT_EQ(plan.offsets(g.to_id({5, 8, 4})).size(), 2u);
  EXPECT_EQ(plan.offsets(g.to_id({7, 8, 4})).size(), 2u);
}

TEST(Broadcast3D6, SourceZNeighborsRetransmitTwoSlotsLater) {
  const Mesh3D6 topo(8, 8, 8);
  const Grid3D& g = topo.grid();
  const Mesh3d6Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({6, 8, 4}));
  // §3.4: (i, j, k±1) retransmit two slots after the collided slot-2
  // transmission, i.e. offsets {1, 3}.
  for (int z : {3, 5}) {
    const auto& offsets = plan.offsets(g.to_id({6, 8, z}));
    ASSERT_EQ(offsets.size(), 2u) << z;
    EXPECT_EQ(offsets[0], 1u);
    EXPECT_EQ(offsets[1], 3u);
  }
}

TEST(Broadcast3D6, ZRelayPatternMatchesR5) {
  // Fig. 9: from source (6,8,k), nodes (4,7), (5,10), (7,6), (8,9) head the
  // z-relay columns.
  const Mesh3D6 topo(8, 16, 4);
  const Grid3D& g = topo.grid();
  const Mesh3d6Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({6, 8, 2}));
  for (Vec2 xy : {Vec2{4, 7}, Vec2{5, 10}, Vec2{7, 6}, Vec2{8, 9}}) {
    for (int z = 1; z <= 4; ++z) {
      EXPECT_TRUE(plan.is_relay(g.to_id({xy.x, xy.y, z})))
          << to_string(xy) << " z=" << z;
    }
  }
}

TEST(Broadcast3D6, PureZRelaysInSourcePlaneAreDelayed) {
  const Mesh3D6 topo(8, 16, 4);
  const Grid3D& g = topo.grid();
  const Mesh3d6Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({6, 8, 2}));
  // (4,7) is a z-relay off the 2D-4 relay structure (row 8; columns
  // x ∈ {3, 6} lattice): x=4 is no relay column, y=7 is off-row -> pure
  // z-relay, delayed one slot (offset 2) in the source plane only.
  ASSERT_FALSE(Mesh2d4Broadcast::is_relay_column(4, 6, 8));
  EXPECT_TRUE(std::ranges::equal(plan.offsets(g.to_id({4, 7, 2})),
                                 std::vector<Slot>{2}));
  EXPECT_TRUE(std::ranges::equal(plan.offsets(g.to_id({4, 7, 3})),
                                 std::vector<Slot>{1}));
}

TEST(Broadcast3D6, DegeneratesToPlaneProtocolForSingleLayer) {
  const Mesh3D6 topo(8, 8, 1);
  const Mesh3d6Broadcast proto;
  const auto out = simulate_broadcast(topo, proto.plan(topo, 0));
  EXPECT_TRUE(out.stats.fully_reached());
}

struct Mesh3dCase {
  int m, n, l;
};

class Broadcast3D6AllSources : public ::testing::TestWithParam<Mesh3dCase> {};

TEST_P(Broadcast3D6AllSources, ResolvedPlanReachesEveryone) {
  const auto [m, n, l] = GetParam();
  const Mesh3D6 topo(m, n, l);
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const RelayPlan plan = paper_plan(topo, src);
    const auto out = simulate_broadcast(topo, plan);
    ASSERT_TRUE(out.stats.fully_reached())
        << "source " << to_string(topo.grid().to_coord(src));
  }
}

TEST_P(Broadcast3D6AllSources, DelayWithinResolverSlack) {
  const auto [m, n, l] = GetParam();
  const Mesh3D6 topo(m, n, l);
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, paper_plan(topo, src));
    const auto ecc = eccentricity(topo, src);
    ASSERT_GE(out.stats.delay, ecc);
    ASSERT_LE(out.stats.delay, ecc + 12);
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, Broadcast3D6AllSources,
                         ::testing::Values(Mesh3dCase{8, 8, 8},
                                           Mesh3dCase{4, 5, 6},
                                           Mesh3dCase{6, 6, 2},
                                           Mesh3dCase{3, 3, 3}));

TEST(Broadcast3D6, PaperSizeTxEnvelope) {
  const Mesh3D6 topo(8, 8, 8);
  std::size_t min_tx = ~std::size_t{0};
  std::size_t max_tx = 0;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, paper_plan(topo, src));
    min_tx = std::min(min_tx, out.stats.tx);
    max_tx = std::max(max_tx, out.stats.tx);
  }
  // Paper envelope [167, 187].
  EXPECT_GE(min_tx, 160u);
  EXPECT_LE(min_tx, 190u);
  EXPECT_LE(max_tx, 225u);
}

}  // namespace
}  // namespace wsn
