#include "protocol/cds_broadcast.h"

#include <gtest/gtest.h>

#include "protocol/mesh2d4_broadcast.h"
#include "protocol/resolver.h"
#include "sim/simulator.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d4.h"
#include "topology/random_geometric.h"
#include "topology/torus.h"

namespace wsn {
namespace {

TEST(CdsBroadcast, RelaysFormAConnectedDominatingStructure) {
  const Mesh2D4 topo(10, 10);
  const CdsBroadcast proto(0);
  const RelayPlan plan = proto.plan(topo, 37);
  // Dominating: every node is the source, a relay, or adjacent to a relay.
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (plan.is_relay(v)) continue;
    bool dominated = false;
    for (NodeId u : topo.neighbors(v)) {
      if (plan.is_relay(u)) dominated = true;
    }
    EXPECT_TRUE(dominated) << v;
  }
}

TEST(CdsBroadcast, ReachesEveryoneAfterResolution) {
  const Mesh2D4 topo(12, 9);
  const CdsBroadcast proto;
  for (NodeId src = 0; src < topo.num_nodes(); src += 7) {
    const RelayPlan plan =
        resolve_full_reachability(topo, proto.plan(topo, src));
    const auto out = simulate_broadcast(topo, plan);
    ASSERT_TRUE(out.stats.fully_reached()) << src;
  }
}

TEST(CdsBroadcast, WorksOnRandomTopology) {
  // A dense-enough unit-disk graph; the specialized protocols cannot run
  // here at all.
  const RandomGeometric topo(200, 10.0, 1.6, 99);
  ASSERT_TRUE(is_connected(topo));
  const CdsBroadcast proto;
  const RelayPlan plan = resolve_full_reachability(topo, proto.plan(topo, 0));
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_TRUE(out.stats.fully_reached());
  // And with far fewer transmissions than flooding every node.
  EXPECT_LT(plan.relay_count(), topo.num_nodes() / 2);
}

TEST(CdsBroadcast, WorksOnTorus) {
  const Torus2D4 topo(12, 12);
  const CdsBroadcast proto;
  const RelayPlan plan = resolve_full_reachability(topo, proto.plan(topo, 50));
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(CdsBroadcast, CompetitiveWithSpecializedOnMesh) {
  // Generality check: on the paper's 2D-4 mesh the CDS plan should land
  // within 2x of the specialized protocol's transmissions (it typically
  // lands much closer).
  const Mesh2D4 topo(32, 16);
  const NodeId src = topo.grid().to_id({16, 8});
  const auto cds = simulate_broadcast(
      topo, resolve_full_reachability(topo, CdsBroadcast().plan(topo, src)));
  const auto specialized = simulate_broadcast(
      topo,
      resolve_full_reachability(topo, Mesh2d4Broadcast().plan(topo, src)));
  ASSERT_TRUE(cds.stats.fully_reached());
  EXPECT_LT(cds.stats.tx, 2 * specialized.stats.tx);
}

TEST(CdsBroadcast, DeterministicPerSeed) {
  const Mesh2D4 topo(8, 8);
  const CdsBroadcast a(2, 7);
  const CdsBroadcast b(2, 7);
  const RelayPlan pa = a.plan(topo, 5);
  const RelayPlan pb = b.plan(topo, 5);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(pa.offsets(v), pb.offsets(v)));
  }
}

TEST(CdsBroadcast, NameEncodesWindow) {
  EXPECT_EQ(CdsBroadcast(3).name(), "cds-broadcast(window=3)");
}

}  // namespace
}  // namespace wsn
