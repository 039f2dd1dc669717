#include "fault/recovery.h"

#include <gtest/gtest.h>

#include "fault/models.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(Recovery, PolicyNamesRoundTrip) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kNone, RecoveryPolicy::kRepeatK,
        RecoveryPolicy::kEchoRepair, RecoveryPolicy::kAdaptive}) {
    EXPECT_EQ(parse_recovery_policy(to_string(policy)), policy);
  }
  EXPECT_EQ(parse_recovery_policy("echo"), std::nullopt);
  EXPECT_EQ(parse_recovery_policy(""), std::nullopt);
}

TEST(RepeatK, MultipliesPlannedTxExactly) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan base = paper_plan(topo, 0);
  for (const unsigned k : {1u, 2u, 3u}) {
    const RelayPlan plan = repeat_k(base, k);
    plan.validate();
    EXPECT_EQ(plan.planned_tx(), base.planned_tx() * k);
  }
}

TEST(RepeatK, RepetitionsShiftByThePatternSpan) {
  RelayPlan plan = RelayPlan::empty(3, 0);
  plan.tx_offsets[0] = {1, 3};
  plan.tx_offsets[1] = {2};
  const RelayPlan doubled = repeat_k(plan, 2);
  EXPECT_EQ(doubled.tx_offsets[0], (std::vector<Slot>{1, 3, 4, 6}));
  EXPECT_EQ(doubled.tx_offsets[1], (std::vector<Slot>{2, 4}));
  EXPECT_TRUE(doubled.tx_offsets[2].empty());
}

TEST(RepeatK, StillFullyReachesOnPerfectMedium) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = repeat_k(paper_plan(topo, 12), 2);
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(EchoRepair, AddsEchoesForFragileNodes) {
  // On the paper's minimal plans most nodes decode exactly once, so the
  // policy must add something; and every echo lands after the original
  // timeline, so fault-free reachability is untouched.
  const Mesh2D4 topo(8, 8);
  const RelayPlan base = paper_plan(topo, 0);
  const RelayPlan repaired = echo_repair(topo, base);
  repaired.validate();
  EXPECT_GT(repaired.planned_tx(), base.planned_tx());
  // Targeted: far cheaper than doubling the plan.
  EXPECT_LT(repaired.planned_tx(), 2 * base.planned_tx());
  const auto out = simulate_broadcast(topo, repaired);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(EchoRepair, SingleFragileNodeGetsExactlyOneEcho) {
  // 2-node path: node 1 decodes exactly once (from the source) and is the
  // only fragile node, so the policy adds exactly one echo.
  const Mesh2D4 topo(2, 1);
  RelayPlan plan = RelayPlan::empty(2, 0);
  plan.tx_offsets[1] = {1};
  const RelayPlan repaired = echo_repair(topo, plan);
  EXPECT_EQ(repaired.planned_tx(), plan.planned_tx() + 1);
}

TEST(EchoRepair, RecoversFromSingleLinkFade) {
  // Deterministic recovery demonstration: fade the one link a fragile
  // node depends on; the bare plan strands it, the echoed plan does not
  // (the echo arrives from the same or another neighbor in a later slot).
  const Mesh2D4 topo(4, 1);
  RelayPlan plan = RelayPlan::empty(4, 0);
  for (NodeId v = 1; v < 4; ++v) plan.tx_offsets[v] = {1};

  class DropFirstDelivery final : public FaultModel {
   public:
    bool link_delivers(NodeId tx, NodeId rx, Slot slot) override {
      return !(tx == 2 && rx == 3 && slot == 3);
    }
  } drop;

  SimOptions options;
  options.faults = &drop;
  const auto bare = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(bare.first_rx[3], kNeverSlot);

  const RelayPlan repaired = echo_repair(topo, plan);
  const auto echoed = simulate_broadcast(topo, repaired, options);
  EXPECT_NE(echoed.first_rx[3], kNeverSlot);
  EXPECT_TRUE(echoed.stats.fully_reached());
}

TEST(ApplyRecovery, NoneIsIdentity) {
  const Mesh2D4 topo(6, 6);
  const RelayPlan base = paper_plan(topo, 7);
  const RelayPlan same =
      apply_recovery(topo, base, RecoveryPolicy::kNone, 3);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_EQ(same.tx_offsets[v], base.tx_offsets[v]);
  }
}

TEST(ApplyRecovery, PoliciesAreDeterministic) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan base = paper_plan(topo, 21);
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRepeatK, RecoveryPolicy::kEchoRepair}) {
    const RelayPlan a = apply_recovery(topo, base, policy, 2);
    const RelayPlan b = apply_recovery(topo, base, policy, 2);
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      EXPECT_EQ(a.tx_offsets[v], b.tx_offsets[v]);
    }
  }
}

}  // namespace
}  // namespace wsn
