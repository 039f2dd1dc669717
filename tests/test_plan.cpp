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
  EXPECT_EQ(plan.source(), 3u);
  EXPECT_TRUE(plan.is_relay(3));
  ASSERT_EQ(plan.offsets(3).size(), 1u);
  EXPECT_EQ(plan.offsets(3)[0], 1u);
  for (NodeId v = 0; v < 8; ++v) {
    if (v != 3) {
      EXPECT_FALSE(plan.is_relay(v));
    }
  }
}

TEST(RelayPlan, RelayCountAndPlannedTx) {
  RelayPlan plan = RelayPlan::empty(5, 0);
  plan.set_offsets(1, {1});
  plan.set_offsets(2, {1, 2});
  EXPECT_EQ(plan.relay_count(), 3u);   // source + 2
  EXPECT_EQ(plan.planned_tx(), 4u);    // 1 + 1 + 2
}

TEST(RelayPlan, RetransmittersAreMultiTxNodes) {
  RelayPlan plan = RelayPlan::empty(6, 0);
  plan.set_offsets(2, {1, 2});
  plan.set_offsets(4, {1});
  plan.set_offsets(5, {2, 3, 7});
  const auto retx = plan.retransmitters();
  ASSERT_EQ(retx.size(), 2u);
  EXPECT_EQ(retx[0], 2u);
  EXPECT_EQ(retx[1], 5u);
}

TEST(RelayPlan, ValidateAcceptsWellFormedPlans) {
  RelayPlan plan = RelayPlan::empty(4, 1);
  plan.set_offsets(0, {1, 2, 5});
  plan.set_offsets(2, {3});
  plan.validate();  // must not abort
}

using RelayPlanDeathTest = ::testing::Test;

// The contract is checked as a plan is edited, so a broken list never
// reaches validate() or an engine.
TEST(RelayPlanDeathTest, ValidateRejectsZeroOffset) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  EXPECT_DEATH(plan.set_offsets(2, {0}), "precondition");
  EXPECT_DEATH(plan.append_offset(2, 0), "precondition");
  EXPECT_DEATH(RelayPlan::adopt(0, {0, 1, 2, 2, 2}, {1, 0}).validate(),
               "precondition");
}

TEST(RelayPlanDeathTest, ValidateRejectsNonIncreasingOffsets) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  EXPECT_DEATH(plan.set_offsets(2, {2, 2}), "precondition");
  plan.set_offsets(2, {3});
  EXPECT_DEATH(plan.append_offset(2, 3), "precondition");
  EXPECT_DEATH(RelayPlan::adopt(0, {0, 1, 1, 3, 3}, {1, 2, 2}).validate(),
               "precondition");
}

TEST(RelayPlanDeathTest, ValidateRejectsNonRelaySource) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  EXPECT_DEATH(plan.clear_offsets(0), "precondition");
  EXPECT_DEATH((void)RelayPlan::Writer(4, 1).finish().set_offsets(1, {}),
               "precondition");
  EXPECT_DEATH(RelayPlan::adopt(0, {0, 0, 1, 1, 1}, {1}).validate(),
               "precondition");
}

// Every engine entry has exactly one signature, taking the one plan
// type.  Naming an overloaded function's address is ill-formed, so a
// second overload fails this file's compilation.
static_assert(std::is_same_v<
              decltype(&Simulator::run),
              BroadcastOutcome (Simulator::*)(const Topology&,
                                              const RelayPlan&,
                                              const SimOptions&)>);
static_assert(std::is_same_v<
              decltype(&Simulator::run_pipeline),
              PipelineOutcome (Simulator::*)(const Topology&,
                                             const RelayPlan&,
                                             const PipelineOptions&)>);
static_assert(std::is_same_v<
              decltype(&BulkSimulator::run),
              BroadcastOutcome (BulkSimulator::*)(const ImplicitLattice&,
                                                  const RelayPlan&,
                                                  const SimOptions&)>);
static_assert(std::is_same_v<decltype(&simulate_broadcast),
                             BroadcastOutcome (*)(const Topology&,
                                                  const RelayPlan&,
                                                  const SimOptions&)>);
static_assert(std::is_same_v<decltype(&simulate_pipeline),
                             PipelineOutcome (*)(const Topology&,
                                                 const RelayPlan&,
                                                 const PipelineOptions&)>);
static_assert(std::is_same_v<decltype(&min_pipeline_interval),
                             Slot (*)(const Topology&, const RelayPlan&,
                                      std::size_t, Slot)>);
static_assert(std::is_same_v<decltype(&bulk_simulate),
                             BroadcastOutcome (*)(const ImplicitLattice&,
                                                  const RelayPlan&,
                                                  const SimOptions&)>);

void expect_same_plan(const RelayPlan& a, const RelayPlan& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.source(), b.source());
  EXPECT_EQ(a.total_offsets(), b.total_offsets());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.offsets(v), b.offsets(v)))
        << "node " << v;
  }
  EXPECT_TRUE(std::ranges::equal(a.plain_relays(), b.plain_relays()));
  EXPECT_TRUE(std::ranges::equal(a.other_relays(), b.other_relays()));
  EXPECT_EQ(a, b);
}

/// The canonical CSR parts of `plan`'s lists, as the store writes them.
std::pair<std::vector<std::uint32_t>, std::vector<Slot>> csr_parts(
    const RelayPlan& plan) {
  std::vector<std::uint32_t> starts{0};
  std::vector<Slot> offsets;
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const auto span = plan.offsets(v);
    offsets.insert(offsets.end(), span.begin(), span.end());
    starts.push_back(static_cast<std::uint32_t>(offsets.size()));
  }
  return {std::move(starts), std::move(offsets)};
}

/// A plan, its copy, and the plan adopted from its canonical CSR parts
/// hold the same lists and relay sets, edit overlay or not.
void expect_round_trip(const RelayPlan& plan) {
  const RelayPlan copy = plan.to_relay_plan();
  expect_same_plan(plan, copy);
  plan.validate();

  auto [starts, offsets] = csr_parts(plan);
  const RelayPlan adopted =
      RelayPlan::adopt(plan.source(), std::move(starts), std::move(offsets));
  adopted.validate();
  expect_same_plan(plan, adopted);
  EXPECT_EQ(adopted.total_offsets(), plan.planned_tx());
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
// neither -- across a word boundary, and the same whether the lists were
// written, edited or adopted from CSR parts.
TEST(FlatRelayPlan, RelaySetsSplitPlainFromOtherRelays) {
  RelayPlan::Writer writer(130, 3);
  writer.set(0, {1});
  writer.set(1, {1, 2});
  writer.set(2, {2});
  writer.set(63, {1});
  writer.set(64, {3, 40});
  writer.set(129, {1});
  const RelayPlan plan = std::move(writer).finish();
  const auto bit = [](std::span<const std::uint64_t> set, NodeId v) {
    return ((set[v / 64] >> (v % 64)) & 1u) != 0;
  };
  ASSERT_EQ(plan.plain_relays().size(), 3u);
  ASSERT_EQ(plan.other_relays().size(), 3u);
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const auto offsets = plan.offsets(v);
    const bool plain = offsets.size() == 1 && offsets[0] == 1;
    EXPECT_EQ(bit(plan.plain_relays(), v), plain) << "node " << v;
    EXPECT_EQ(bit(plan.other_relays(), v), !plain && !offsets.empty())
        << "node " << v;
  }

  RelayPlan edited = RelayPlan::empty(130, 3);
  edited.set_offsets(129, {1});
  edited.set_offsets(64, {3});
  edited.append_offset(64, 40);
  edited.set_offsets(63, {1});
  edited.set_offsets(2, {2});
  edited.set_offsets(1, {1, 2});
  edited.set_offsets(0, {4});
  edited.set_offsets(0, {1});
  edited.set_offsets(100, {1, 5});
  edited.clear_offsets(100);
  expect_same_plan(plan, edited);

  auto [starts, offsets] = csr_parts(plan);
  expect_same_plan(plan, RelayPlan::adopt(plan.source(), std::move(starts),
                                          std::move(offsets)));
  // Parts out of bounds file nothing; validate() is what rejects them.
  const RelayPlan torn = RelayPlan::adopt(0, {0, 5}, {Slot{1}});
  EXPECT_EQ(torn.plain_relays()[0] | torn.other_relays()[0], 0u);
}

using FlatRelayPlanDeathTest = ::testing::Test;

TEST(FlatRelayPlanDeathTest, ConversionChecksTheRelayPlanContract) {
  // A plan is checked as it is written and edited, never per run.
  EXPECT_DEATH(RelayPlan::Writer(4, 0).set(2, {0}), "precondition");
  EXPECT_DEATH(RelayPlan::Writer(4, 0).set(2, {2, 2}), "precondition");
  EXPECT_DEATH(
      {
        RelayPlan::Writer writer(4, 0);
        writer.set(0, {});
        (void)std::move(writer).finish();
      },
      "precondition");
  EXPECT_DEATH(
      {
        RelayPlan::Writer writer(4, 0);
        writer.set(2, {1});
        writer.set(1, {1});  // out of order
      },
      "precondition");
}

TEST(FlatRelayPlanDeathTest, AdoptedPartsAreCheckedByValidate) {
  EXPECT_DEATH(RelayPlan::adopt(0, {0, 1}, {Slot{0}}).validate(),
               "precondition");
  EXPECT_DEATH(RelayPlan{}.validate(), "precondition");
  RelayPlan::adopt(0, {0, 1, 1}, {Slot{1}}).validate();  // well formed
}

}  // namespace
}  // namespace wsn
