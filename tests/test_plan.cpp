#include "sim/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "fault/recovery.h"
#include "protocol/registry.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/pipeline.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"

namespace wsn {
namespace {

TEST(RelayPlan, EmptyPlanHasSourceAtSlotOne) {
  const RelayPlan plan = RelayPlan::empty(8, 3);
  EXPECT_EQ(plan.num_nodes(), 8u);
  EXPECT_EQ(plan.source, 3u);
  EXPECT_TRUE(plan.is_relay(3));
  ASSERT_EQ(plan.tx_offsets[3].size(), 1u);
  EXPECT_EQ(plan.tx_offsets[3][0], 1u);
  for (NodeId v = 0; v < 8; ++v) {
    if (v != 3) {
      EXPECT_FALSE(plan.is_relay(v));
    }
  }
}

TEST(RelayPlan, RelayCountAndPlannedTx) {
  RelayPlan plan = RelayPlan::empty(5, 0);
  plan.tx_offsets[1] = {1};
  plan.tx_offsets[2] = {1, 2};
  EXPECT_EQ(plan.relay_count(), 3u);   // source + 2
  EXPECT_EQ(plan.planned_tx(), 4u);    // 1 + 1 + 2
}

TEST(RelayPlan, RetransmittersAreMultiTxNodes) {
  RelayPlan plan = RelayPlan::empty(6, 0);
  plan.tx_offsets[2] = {1, 2};
  plan.tx_offsets[4] = {1};
  plan.tx_offsets[5] = {2, 3, 7};
  const auto retx = plan.retransmitters();
  ASSERT_EQ(retx.size(), 2u);
  EXPECT_EQ(retx[0], 2u);
  EXPECT_EQ(retx[1], 5u);
}

TEST(RelayPlan, ValidateAcceptsWellFormedPlans) {
  RelayPlan plan = RelayPlan::empty(4, 1);
  plan.tx_offsets[0] = {1, 2, 5};
  plan.tx_offsets[2] = {3};
  plan.validate();  // must not abort
}

using RelayPlanDeathTest = ::testing::Test;

TEST(RelayPlanDeathTest, ValidateRejectsZeroOffset) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  plan.tx_offsets[2] = {0};
  EXPECT_DEATH(plan.validate(), "precondition");
}

TEST(RelayPlanDeathTest, ValidateRejectsNonIncreasingOffsets) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  plan.tx_offsets[2] = {2, 2};
  EXPECT_DEATH(plan.validate(), "precondition");
}

TEST(RelayPlanDeathTest, ValidateRejectsNonRelaySource) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  plan.tx_offsets[0].clear();
  EXPECT_DEATH(plan.validate(), "precondition");
}

// Every engine entry has exactly one signature, taking the flat form.
// Naming an overloaded function's address is ill-formed, so a second
// overload (say, a RelayPlan one) fails this file's compilation.
static_assert(std::is_same_v<
              decltype(&Simulator::run),
              BroadcastOutcome (Simulator::*)(const Topology&,
                                              const FlatRelayPlan&,
                                              const SimOptions&)>);
static_assert(std::is_same_v<
              decltype(&Simulator::run_pipeline),
              PipelineOutcome (Simulator::*)(const Topology&,
                                             const FlatRelayPlan&,
                                             const PipelineOptions&)>);
static_assert(std::is_same_v<
              decltype(&BulkSimulator::run),
              BroadcastOutcome (BulkSimulator::*)(const ImplicitLattice&,
                                                  const FlatRelayPlan&,
                                                  const SimOptions&)>);
static_assert(std::is_same_v<decltype(&simulate_broadcast),
                             BroadcastOutcome (*)(const Topology&,
                                                  const FlatRelayPlan&,
                                                  const SimOptions&)>);
static_assert(std::is_same_v<decltype(&simulate_pipeline),
                             PipelineOutcome (*)(const Topology&,
                                                 const FlatRelayPlan&,
                                                 const PipelineOptions&)>);
static_assert(std::is_same_v<decltype(&min_pipeline_interval),
                             Slot (*)(const Topology&, const FlatRelayPlan&,
                                      std::size_t, Slot)>);
static_assert(std::is_same_v<decltype(&bulk_simulate),
                             BroadcastOutcome (*)(const ImplicitLattice&,
                                                  const FlatRelayPlan&,
                                                  const SimOptions&)>);
// The conversion a plan under construction takes to reach an engine.
static_assert(std::is_convertible_v<const RelayPlan&, FlatRelayPlan>);

void expect_same_flat(const FlatRelayPlan& a, const FlatRelayPlan& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.source(), b.source());
  EXPECT_EQ(a.total_offsets(), b.total_offsets());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto x = a.offsets(v);
    const auto y = b.offsets(v);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << "node " << v;
  }
  const auto eq = [](std::span<const std::uint64_t> x,
                     std::span<const std::uint64_t> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(eq(a.plain_relays(), b.plain_relays()));
  EXPECT_TRUE(eq(a.other_relays(), b.other_relays()));
}

/// RelayPlan -> FlatRelayPlan -> RelayPlan is the identity, and the
/// converting constructor and `from` build the same flat plan.
void expect_round_trip(const RelayPlan& plan) {
  const FlatRelayPlan flat(plan);
  const FlatRelayPlan named = FlatRelayPlan::from(plan);
  expect_same_flat(flat, named);
  EXPECT_EQ(flat.total_offsets(), plan.planned_tx());
  flat.validate();

  const RelayPlan back = flat.to_relay_plan();
  EXPECT_EQ(back.source, plan.source);
  EXPECT_EQ(back.tx_offsets, plan.tx_offsets);
}

TEST(FlatRelayPlan, ResolvedPaperPlansRoundTrip) {
  for (const std::string& family : regular_families()) {
    SCOPED_TRACE(family);
    const auto topo = make_paper_topology(family);
    const RelayPlan plan = paper_plan(*topo, graph_center(*topo));
    expect_round_trip(plan);
  }
}

TEST(FlatRelayPlan, PipelinedPlanWithRetransmittersRoundTrips) {
  // repeat_k's plan, as the pipeline and resilience studies run it: every
  // relay transmits twice.
  const auto topo = make_paper_topology("2D-4");
  const RelayPlan plan = repeat_k(paper_plan(*topo, 0), 2);
  ASSERT_FALSE(plan.retransmitters().empty());
  expect_round_trip(plan);
}

// The kernel's relay bitsets: exactly-{1} relays are plain, every other
// relay (retransmitting, delayed, repaired) is other, silent nodes are in
// neither -- across a word boundary, and the same whether the plan was
// flattened or adopted from its parts.
TEST(FlatRelayPlan, RelaySetsSplitPlainFromOtherRelays) {
  RelayPlan plan = RelayPlan::empty(130, 3);
  plan.tx_offsets[0] = {1};
  plan.tx_offsets[1] = {1, 2};
  plan.tx_offsets[2] = {2};
  plan.tx_offsets[63] = {1};
  plan.tx_offsets[64] = {3, 40};
  plan.tx_offsets[129] = {1};
  const FlatRelayPlan flat(plan);
  const auto bit = [](std::span<const std::uint64_t> set, NodeId v) {
    return ((set[v / 64] >> (v % 64)) & 1u) != 0;
  };
  ASSERT_EQ(flat.plain_relays().size(), 3u);
  ASSERT_EQ(flat.other_relays().size(), 3u);
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const std::vector<Slot>& offsets = plan.tx_offsets[v];
    const bool plain = offsets == std::vector<Slot>{1};
    EXPECT_EQ(bit(flat.plain_relays(), v), plain) << "node " << v;
    EXPECT_EQ(bit(flat.other_relays(), v), !plain && !offsets.empty())
        << "node " << v;
  }

  std::vector<std::uint32_t> starts{0};
  std::vector<Slot> offsets;
  for (NodeId v = 0; v < flat.num_nodes(); ++v) {
    const auto span = flat.offsets(v);
    offsets.insert(offsets.end(), span.begin(), span.end());
    starts.push_back(static_cast<std::uint32_t>(offsets.size()));
  }
  expect_same_flat(flat, FlatRelayPlan::adopt(flat.source(), std::move(starts),
                                              std::move(offsets)));
  // Parts out of bounds file nothing; validate() is what rejects them.
  const FlatRelayPlan torn = FlatRelayPlan::adopt(0, {0, 5}, {Slot{1}});
  EXPECT_EQ(torn.plain_relays()[0] | torn.other_relays()[0], 0u);
}

using FlatRelayPlanDeathTest = ::testing::Test;

TEST(FlatRelayPlanDeathTest, ConversionChecksTheRelayPlanContract) {
  // The engines check a flattened plan once, here, instead of per run.
  RelayPlan zero = RelayPlan::empty(4, 0);
  zero.tx_offsets[2] = {0};
  RelayPlan repeated = RelayPlan::empty(4, 0);
  repeated.tx_offsets[2] = {2, 2};
  RelayPlan silent = RelayPlan::empty(4, 0);
  silent.tx_offsets[0].clear();
  EXPECT_DEATH(FlatRelayPlan{zero}, "precondition");
  EXPECT_DEATH(FlatRelayPlan{repeated}, "precondition");
  EXPECT_DEATH(FlatRelayPlan{silent}, "precondition");
}

TEST(FlatRelayPlanDeathTest, AdoptedPartsAreCheckedByValidate) {
  EXPECT_DEATH(FlatRelayPlan::adopt(0, {0, 1}, {Slot{0}}).validate(),
               "precondition");
  EXPECT_DEATH(FlatRelayPlan{}.validate(), "precondition");
  FlatRelayPlan::adopt(0, {0, 1, 1}, {Slot{1}}).validate();  // well formed
}

}  // namespace
}  // namespace wsn
