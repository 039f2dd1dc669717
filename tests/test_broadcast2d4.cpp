#include "protocol/mesh2d4_broadcast.h"

#include <gtest/gtest.h>

#include "protocol/etr.h"
#include "sim/simulator.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(Broadcast2D4, RelayColumnsSpacedThree) {
  // Paper §3.1 / Fig. 5: source column 6 on a 16-wide mesh gives relay
  // columns {3, 6, 9, 12, 15} plus border column 1 (column 2 is no relay).
  for (int x : {3, 6, 9, 12, 15, 1}) {
    EXPECT_TRUE(Mesh2d4Broadcast::is_relay_column(x, 6, 16)) << x;
  }
  for (int x : {2, 4, 5, 7, 8, 10, 11, 13, 14, 16}) {
    EXPECT_FALSE(Mesh2d4Broadcast::is_relay_column(x, 6, 16)) << x;
  }
}

TEST(Broadcast2D4, BorderColumnRuleOnBothSides) {
  // Source column 3 on width 8: lattice {3, 6}; columns 1 and 8 must step
  // in because 2 and 7 are not relay columns.
  EXPECT_TRUE(Mesh2d4Broadcast::is_relay_column(1, 3, 8));
  EXPECT_TRUE(Mesh2d4Broadcast::is_relay_column(8, 3, 8));
  // Source column 2: lattice {2, 5, 8}; column 1 is covered by column 2.
  EXPECT_FALSE(Mesh2d4Broadcast::is_relay_column(1, 2, 8));
}

TEST(Broadcast2D4, RetransmittersMatchFig5) {
  // Fig. 5: source (6,8), retransmitting row nodes (2,8), (5,8), (7,8),
  // (10,8), (13,8), (16,8).
  for (int x : {2, 5, 7, 10, 13, 16}) {
    EXPECT_TRUE(Mesh2d4Broadcast::is_row_retransmitter(x, 6, 16)) << x;
  }
  for (int x : {1, 3, 4, 6, 8, 9, 11, 12, 14, 15}) {
    EXPECT_FALSE(Mesh2d4Broadcast::is_row_retransmitter(x, 6, 16)) << x;
  }
}

TEST(Broadcast2D4, PlanMarksRowAndColumns) {
  const Mesh2D4 topo(16, 16);
  const Grid2D& g = topo.grid();
  const Mesh2d4Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({6, 8}));
  // Entire source row relays.
  for (int x = 1; x <= 16; ++x) {
    EXPECT_TRUE(plan.is_relay(g.to_id({x, 8}))) << x;
  }
  // Retransmitters carry two scheduled transmissions.
  EXPECT_EQ(plan.offsets(g.to_id({7, 8})).size(), 2u);
  EXPECT_EQ(plan.offsets(g.to_id({6, 8})).size(), 1u);
  // Column cells of relay columns relay; others off the row do not.
  EXPECT_TRUE(plan.is_relay(g.to_id({9, 3})));
  EXPECT_FALSE(plan.is_relay(g.to_id({8, 3})));
}

// The central property suite: the paper's explicit rules alone (no
// resolver!) reach every node from every source.
class Broadcast2D4AllSources
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Broadcast2D4AllSources, FullReachabilityWithoutRepairs) {
  const auto [m, n] = GetParam();
  const Mesh2D4 topo(m, n);
  const Mesh2d4Broadcast proto;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, proto.plan(topo, src));
    ASSERT_TRUE(out.stats.fully_reached())
        << "source " << to_string(topo.grid().to_coord(src)) << " reached "
        << out.stats.reached << "/" << topo.num_nodes();
  }
}

TEST_P(Broadcast2D4AllSources, DelayBoundedByEccentricityPlusRetx) {
  const auto [m, n] = GetParam();
  const Mesh2D4 topo(m, n);
  const Mesh2d4Broadcast proto;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, proto.plan(topo, src));
    const auto ecc = eccentricity(topo, src);
    ASSERT_GE(out.stats.delay, ecc);      // cannot beat BFS
    ASSERT_LE(out.stats.delay, ecc + 2);  // at most the retransmit slack
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, Broadcast2D4AllSources,
                         ::testing::Values(std::pair{32, 16},
                                           std::pair{16, 16},
                                           std::pair{7, 5}, std::pair{8, 6},
                                           std::pair{5, 9},
                                           std::pair{12, 3},
                                           std::pair{4, 4}));

TEST(Broadcast2D4, MostRelaysHitOptimalEtr) {
  const Mesh2D4 topo(32, 16);
  const Mesh2d4Broadcast proto;
  const NodeId src = topo.grid().to_id({16, 8});
  const auto out = simulate_broadcast(topo, proto.plan(topo, src));
  const EtrSummary etr = summarize_etr(topo, out, 3, src);
  // "most of the relay nodes can achieve optimal ETR (= 3/4)".
  EXPECT_GT(etr.optimal_share(), 0.5);
}

TEST(Broadcast2D4, PaperSizeTxEnvelope) {
  const Mesh2D4 topo(32, 16);
  const Mesh2d4Broadcast proto;
  std::size_t min_tx = ~std::size_t{0};
  std::size_t max_tx = 0;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    const auto out = simulate_broadcast(topo, proto.plan(topo, src));
    min_tx = std::min(min_tx, out.stats.tx);
    max_tx = std::max(max_tx, out.stats.tx);
  }
  // Paper Table 3/4: best 208, worst 223.
  EXPECT_EQ(min_tx, 208u);
  EXPECT_EQ(max_tx, 223u);
}

TEST(Broadcast2D4, DelayAvoidancePolicyReducesCollisions) {
  // §3.1's rejected alternative: avoid the junction collisions by delaying
  // the vertical sweeps' first hop instead of retransmitting.
  const Mesh2D4 topo(32, 16);
  const NodeId src = topo.grid().to_id({16, 8});
  const Mesh2d4Broadcast retransmit(
      Mesh2d4Broadcast::CollisionPolicy::kRetransmit);
  const Mesh2d4Broadcast delaying(
      Mesh2d4Broadcast::CollisionPolicy::kDelayAvoidance);
  const auto with_retx = simulate_broadcast(topo, retransmit.plan(topo, src));
  const auto with_delay = simulate_broadcast(topo, delaying.plan(topo, src));
  EXPECT_LT(with_delay.stats.collisions, with_retx.stats.collisions);
}

TEST(Broadcast2D4, SingleNodeMesh) {
  const Mesh2D4 topo(1, 1);
  const Mesh2d4Broadcast proto;
  const auto out = simulate_broadcast(topo, proto.plan(topo, 0));
  EXPECT_TRUE(out.stats.fully_reached());
  EXPECT_EQ(out.stats.tx, 1u);
}


TEST(Broadcast2D4, AnalyticTxCountMatchesSimulationEverywhere) {
  // The closed form and the collision-accurate simulation must agree for
  // every source column on several mesh shapes -- the strongest cross-check
  // that the protocol's structure is exactly the paper's.
  for (const auto& [m, n] : {std::pair{32, 16}, std::pair{16, 16},
                             std::pair{7, 5}, std::pair{12, 3}}) {
    const Mesh2D4 topo(m, n);
    const Mesh2d4Broadcast proto;
    for (NodeId src = 0; src < topo.num_nodes(); ++src) {
      const Vec2 c = topo.grid().to_coord(src);
      const auto out = simulate_broadcast(topo, proto.plan(topo, src));
      ASSERT_EQ(out.stats.tx, Mesh2d4Broadcast::analytic_tx_count(c.x, m, n))
          << to_string(c) << " on " << m << "x" << n;
    }
  }
}

TEST(Broadcast2D4, AnalyticEnvelopeReproducesTables3And4) {
  // min/max of the closed form over the source column IS the paper's
  // best/worst Tx envelope.
  std::size_t best = ~std::size_t{0};
  std::size_t worst = 0;
  for (int i = 1; i <= 32; ++i) {
    const std::size_t tx = Mesh2d4Broadcast::analytic_tx_count(i, 32, 16);
    best = std::min(best, tx);
    worst = std::max(worst, tx);
  }
  EXPECT_EQ(best, 208u);
  EXPECT_EQ(worst, 223u);
}

TEST(Broadcast2D4, NameReflectsPolicy) {
  EXPECT_EQ(Mesh2d4Broadcast().name(), "mesh2d4-broadcast");
  EXPECT_EQ(Mesh2d4Broadcast(Mesh2d4Broadcast::CollisionPolicy::kDelayAvoidance)
                .name(),
            "mesh2d4-broadcast(delay-avoidance)");
}

}  // namespace
}  // namespace wsn
