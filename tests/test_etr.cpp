#include "protocol/etr.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(Etr, SamplesMirrorTheTrace) {
  const Mesh2D4 topo(6, 1);
  RelayPlan plan = RelayPlan::empty(6, 0);
  for (NodeId v = 1; v < 6; ++v) plan.set_offsets(v, {1});
  const auto out = simulate_broadcast(topo, plan);
  const auto samples = etr_samples(topo, out);
  ASSERT_EQ(samples.size(), out.transmissions.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].node, out.transmissions[i].node);
    EXPECT_EQ(samples[i].slot, out.transmissions[i].slot);
    EXPECT_EQ(samples[i].fresh, out.transmissions[i].fresh);
    EXPECT_EQ(samples[i].neighbors, topo.degree(samples[i].node));
  }
}

TEST(Etr, PathValuesAreHalfExceptEnds) {
  // On a path, every interior relay delivers 1 fresh node out of 2
  // neighbors (ETR 1/2); the end node delivers 0.
  const Mesh2D4 topo(5, 1);
  RelayPlan plan = RelayPlan::empty(5, 0);
  for (NodeId v = 1; v < 5; ++v) plan.set_offsets(v, {1});
  const auto out = simulate_broadcast(topo, plan);
  for (const EtrSample& s : etr_samples(topo, out)) {
    if (s.node == 0) {
      EXPECT_DOUBLE_EQ(s.value(), 1.0);  // source: 1 fresh / 1 neighbor
    } else if (s.node == 4) {
      EXPECT_DOUBLE_EQ(s.value(), 0.0);  // end: nothing new
    } else {
      EXPECT_DOUBLE_EQ(s.value(), 0.5);
    }
  }
}

TEST(Etr, SummaryAggregates) {
  const Mesh2D4 topo(5, 1);
  RelayPlan plan = RelayPlan::empty(5, 0);
  for (NodeId v = 1; v < 5; ++v) plan.set_offsets(v, {1});
  const auto out = simulate_broadcast(topo, plan);
  const EtrSummary summary = summarize_etr(topo, out, /*fresh_opt=*/1, 0);
  EXPECT_EQ(summary.transmissions, 5u);
  EXPECT_DOUBLE_EQ(summary.max, 1.0);
  // fresh >= 1 for relays 1..3; the end relay misses; the source excluded.
  EXPECT_EQ(summary.at_optimum, 3u);
  EXPECT_NEAR(summary.optimal_share(), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(summary.mean, (1.0 + 0.5 + 0.5 + 0.5 + 0.0) / 5.0, 1e-12);
}

TEST(Etr, IncludeSourceOption) {
  const Mesh2D4 topo(3, 1);
  RelayPlan plan = RelayPlan::empty(3, 0);
  plan.set_offsets(1, {1});
  const auto out = simulate_broadcast(topo, plan);
  const EtrSummary with_source =
      summarize_etr(topo, out, 1, 0, /*exclude_source=*/false);
  const EtrSummary without_source = summarize_etr(topo, out, 1, 0);
  EXPECT_EQ(with_source.at_optimum, without_source.at_optimum + 1);
}

TEST(Etr, EmptyOutcome) {
  const Mesh2D4 topo(2, 1);
  BroadcastOutcome out;
  out.first_rx = {0, kNeverSlot};
  const EtrSummary summary = summarize_etr(topo, out, 1, 0);
  EXPECT_EQ(summary.transmissions, 0u);
  EXPECT_DOUBLE_EQ(summary.optimal_share(), 0.0);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
}

}  // namespace
}  // namespace wsn
