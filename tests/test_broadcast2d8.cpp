#include "protocol/mesh2d8_broadcast.h"

#include <gtest/gtest.h>

#include "geometry/diagonal.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d8.h"

namespace wsn {
namespace {

TEST(Broadcast2D8, FamilyAxisPrefersLongerFeeder) {
  // Central source on a wide mesh: both diagonals long, paper default (S2
  // family) kept.
  EXPECT_TRUE(Mesh2d8Broadcast::family_on_s2({16, 8}, 32, 16));
  // Corner (1,1): the S1 feeder through it is a single cell while the S2
  // feeder is the main diagonal -- family must flip to S1.
  EXPECT_FALSE(Mesh2d8Broadcast::family_on_s2({1, 1}, 32, 16));
  EXPECT_FALSE(Mesh2d8Broadcast::family_on_s2({32, 16}, 32, 16));
  // Corner (1,16): S1 feeder is the long anti-diagonal; family stays on S2.
  EXPECT_TRUE(Mesh2d8Broadcast::family_on_s2({1, 16}, 32, 16));
}

TEST(Broadcast2D8, PlanContainsFeederAndFamilyDiagonals) {
  // Fig. 7: source (5,9) on 14×14: relays on S1(14) and the S2 family
  // S2(-4 + 5k) = ..., S2(-9), S2(-4), S2(1), S2(6), S2(11), ...
  const Mesh2D8 topo(14, 14);
  const Grid2D& g = topo.grid();
  const Mesh2d8Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({5, 9}));
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    const Vec2 c = g.to_coord(v);
    if (on_s1(c, 14) || in_s2_family(c, -4, 5)) {
      EXPECT_TRUE(plan.is_relay(v)) << to_string(c);
    }
  }
  // Off-feeder, off-family, off-border cells stay passive.
  EXPECT_FALSE(plan.is_relay(g.to_id({5, 8})));   // s1=13, s2=-3
  EXPECT_FALSE(plan.is_relay(g.to_id({7, 9})));   // s1=16, s2=-2
}

TEST(Broadcast2D8, NearSourceFeederNodesRetransmit) {
  // Fig. 7's repair: "(6,8) retransmits"; symmetric partner (4,10) too.
  const Mesh2D8 topo(14, 14);
  const Grid2D& g = topo.grid();
  const Mesh2d8Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({5, 9}));
  EXPECT_EQ(plan.offsets(g.to_id({6, 8})).size(), 2u);
  EXPECT_EQ(plan.offsets(g.to_id({4, 10})).size(), 2u);
  // Family diagonal neighbors transmit once.
  EXPECT_EQ(plan.offsets(g.to_id({6, 10})).size(), 1u);
  EXPECT_EQ(plan.offsets(g.to_id({4, 8})).size(), 1u);
}

class Broadcast2D8AllSources
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Broadcast2D8AllSources, ResolvedPlanReachesEveryone) {
  const auto [m, n] = GetParam();
  const Mesh2D8 topo(m, n);
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    ResolveReport report;
    const RelayPlan plan = paper_plan(topo, src, {}, &report);
    const auto out = simulate_broadcast(topo, plan);
    ASSERT_TRUE(out.stats.fully_reached())
        << "source " << to_string(topo.grid().to_coord(src));
    // Repairs stay incidental, never a rebuild of the plan.
    ASSERT_LE(report.repairs, topo.num_nodes() / 10 + 8);
  }
}

TEST_P(Broadcast2D8AllSources, RawPlanAlreadyCoversAlmostEverything) {
  const auto [m, n] = GetParam();
  const Mesh2D8 topo(m, n);
  const Mesh2d8Broadcast proto;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, proto.plan(topo, src));
    ASSERT_GT(out.stats.reachability(), 0.85)
        << "source " << to_string(topo.grid().to_coord(src));
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, Broadcast2D8AllSources,
                         ::testing::Values(std::pair{32, 16},
                                           std::pair{16, 16},
                                           std::pair{7, 5}, std::pair{8, 6},
                                           std::pair{12, 3}));

TEST(Broadcast2D8, DelayStaysNearEccentricity) {
  const Mesh2D8 topo(32, 16);
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const RelayPlan plan = paper_plan(topo, src);
    const auto out = simulate_broadcast(topo, plan);
    const auto ecc = eccentricity(topo, src);
    ASSERT_GE(out.stats.delay, ecc);
    ASSERT_LE(out.stats.delay, ecc + 10);  // border sweeps + repairs
  }
}

TEST(Broadcast2D8, PaperSizeTxEnvelope) {
  const Mesh2D8 topo(32, 16);
  std::size_t min_tx = ~std::size_t{0};
  std::size_t max_tx = 0;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, paper_plan(topo, src));
    min_tx = std::min(min_tx, out.stats.tx);
    max_tx = std::max(max_tx, out.stats.tx);
  }
  // Paper Table 3/4 envelope is [143, 147]; ours lands within a few
  // transmissions of it (the resolver's repairs are counted).
  EXPECT_GE(min_tx, 135u);
  EXPECT_LE(min_tx, 150u);
  EXPECT_LE(max_tx, 165u);
}

TEST(Broadcast2D8, DiagonalTransmissionsDominate) {
  // The design premise (Fig. 6): relays forward along diagonals, so most
  // relay transmissions deliver 5 fresh neighbors in the interior.
  const Mesh2D8 topo(32, 16);
  const Grid2D& g = topo.grid();
  const auto out =
      simulate_broadcast(topo, paper_plan(topo, g.to_id({16, 8})));
  std::size_t at_five = 0;
  for (const TxRecord& rec : out.transmissions) {
    if (rec.fresh >= 5) ++at_five;
  }
  EXPECT_GT(at_five, out.transmissions.size() / 3);
}

}  // namespace
}  // namespace wsn
