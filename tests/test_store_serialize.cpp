// Plan serialization: bit-exact round-trips across every topology kind the
// library builds, and total decoding -- every way an artifact can be damaged
// maps to a PlanSerdeStatus, never an abort, and never a partially-written
// output.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "protocol/cds_broadcast.h"
#include "protocol/registry.h"
#include "protocol/resolver.h"
#include "store/serialize.h"
#include "topology/factory.h"
#include "topology/random_geometric.h"
#include "topology/torus.h"

namespace wsn {
namespace {

/// A resolved plan for `topo`: the paper protocol where one exists, the
/// CDS baseline (which works on any connected topology) otherwise.
StoredPlan make_stored(const Topology& topo, NodeId source) {
  StoredPlan stored;
  const std::string family = topo.family();
  RelayPlan plan;
  if (family == "2D-3" || family == "2D-4" || family == "2D-8" ||
      family == "3D-6") {
    plan = paper_plan(topo, source, {}, &stored.report);
  } else {
    plan = resolve_full_reachability(topo, CdsBroadcast().plan(topo, source),
                                     {}, &stored.report);
  }
  stored.plan = RelayPlan(plan);
  return stored;
}

void expect_exact_round_trip(const StoredPlan& original,
                             const std::string& context) {
  const std::string bytes = serialize_plan(original);
  StoredPlan restored;
  ASSERT_EQ(deserialize_plan(bytes, restored), PlanSerdeStatus::kOk)
      << context;
  EXPECT_EQ(restored.plan.source(), original.plan.source()) << context;
  ASSERT_EQ(restored.plan.num_nodes(), original.plan.num_nodes()) << context;
  EXPECT_EQ(restored.plan.total_offsets(), original.plan.total_offsets())
      << context;
  for (NodeId v = 0; v < original.plan.num_nodes(); ++v) {
    const auto want = original.plan.offsets(v);
    const auto got = restored.plan.offsets(v);
    ASSERT_EQ(got.size(), want.size()) << context << " node " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << context << " node " << v;
    }
  }
  EXPECT_EQ(restored.report.repairs, original.report.repairs) << context;
  EXPECT_EQ(restored.report.rounds, original.report.rounds) << context;
  EXPECT_EQ(restored.report.unreachable, original.report.unreachable)
      << context;
  EXPECT_EQ(restored.report.unrepaired, original.report.unrepaired)
      << context;
  // The restored plan must survive the aborting contract check, too.
  restored.plan.validate();
}

TEST(StoreSerialize, RoundTripAllPaperTopologies) {
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    for (const NodeId source :
         {NodeId{0}, static_cast<NodeId>(topo->num_nodes() / 2)}) {
      expect_exact_round_trip(make_stored(*topo, source),
                              family + " source " + std::to_string(source));
    }
  }
}

TEST(StoreSerialize, RoundTripTorus) {
  const Torus2D4 torus4(8, 6);
  expect_exact_round_trip(make_stored(torus4, 5), torus4.name());
  const Torus2D8 torus8(8, 6);
  expect_exact_round_trip(make_stored(torus8, 17), torus8.name());
}

TEST(StoreSerialize, RoundTripRandomGeometric) {
  const RandomGeometric topo(64, /*side=*/10.0, /*radius=*/3.0,
                             /*seed=*/0xfeedu);
  expect_exact_round_trip(make_stored(topo, 0), topo.name());
}

TEST(StoreSerialize, RoundTripDegenerateGrids) {
  const auto one = make_mesh("2D-4", 1, 1);
  expect_exact_round_trip(make_stored(*one, 0), "1x1 2D-4");
  const auto path = make_mesh("2D-4", 1, 7);
  expect_exact_round_trip(make_stored(*path, 3), "1x7 2D-4");
}

TEST(StoreSerialize, RoundTripMinimalPlan) {
  // The smallest valid plan: one node, the source, transmitting once.
  StoredPlan minimal;
  minimal.plan = RelayPlan(RelayPlan::empty(1, 0));
  expect_exact_round_trip(minimal, "single-node plan");
}

TEST(StoreSerialize, EmptyBytesAreTruncated) {
  StoredPlan out;
  EXPECT_EQ(deserialize_plan(std::string_view{}, out),
            PlanSerdeStatus::kTruncated);
}

TEST(StoreSerialize, TruncationAtEveryBoundaryIsDetected) {
  const auto topo = make_mesh("2D-4", 6, 4);
  const std::string bytes = serialize_plan(make_stored(*topo, 2));
  // Cut off before the header + trailer minimum: structural truncation.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{12}, std::size_t{63},
        std::size_t{71}}) {
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(std::string_view(bytes).substr(0, keep), out),
              PlanSerdeStatus::kTruncated)
        << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(out.plan.num_nodes(), 0u);
  }
  // Cut mid-body: the last 8 surviving bytes get read as the trailer, so
  // the damage lands on the checksum -- still a miss, never kOk.
  for (const std::size_t keep : {bytes.size() - 9, bytes.size() - 1}) {
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(std::string_view(bytes).substr(0, keep), out),
              PlanSerdeStatus::kChecksumMismatch)
        << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(out.plan.num_nodes(), 0u);
  }
}

TEST(StoreSerialize, ZeroNodePlanIsMalformedNotFatal) {
  // A default StoredPlan serializes (nothing aborts) but can never decode:
  // a plan with no nodes has no source relay.
  const StoredPlan empty{};
  StoredPlan out;
  EXPECT_EQ(deserialize_plan(serialize_plan(empty), out),
            PlanSerdeStatus::kMalformed);
}

TEST(StoreSerialize, FlippedByteIsChecksumMismatch) {
  const auto topo = make_mesh("2D-4", 6, 4);
  std::string bytes = serialize_plan(make_stored(*topo, 2));
  // Flip one payload byte (past the header fields that have their own
  // statuses) and one byte of the trailer itself.
  for (const std::size_t victim : {std::size_t{70}, bytes.size() - 3}) {
    std::string damaged = bytes;
    damaged[victim] = static_cast<char>(damaged[victim] ^ 0x40);
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(damaged, out),
              PlanSerdeStatus::kChecksumMismatch)
        << "byte " << victim;
  }
}

TEST(StoreSerialize, WrongFormatVersionIsRejectedBeforeChecksum) {
  const auto topo = make_mesh("2D-4", 6, 4);
  std::string bytes = serialize_plan(make_stored(*topo, 2));
  bytes[8] = static_cast<char>(kPlanFormatVersion + 1);  // u32 LE low byte
  StoredPlan out;
  EXPECT_EQ(deserialize_plan(bytes, out), PlanSerdeStatus::kBadVersion);
}

TEST(StoreSerialize, BadMagicIsRejected) {
  const auto topo = make_mesh("2D-4", 6, 4);
  std::string bytes = serialize_plan(make_stored(*topo, 2));
  bytes[0] = 'X';
  StoredPlan out;
  EXPECT_EQ(deserialize_plan(bytes, out), PlanSerdeStatus::kBadMagic);
}

TEST(StoreSerialize, StructurallyInvalidPlansAreMalformed) {
  // adopt() skips validation, so these serialize fine -- and must then be
  // caught by the decoder's structural re-verification.
  const StoredPlan zero_offset{
      RelayPlan::adopt(0, {0, 1}, {Slot{0}}), {}};
  const StoredPlan non_increasing{
      RelayPlan::adopt(0, {0, 2}, {Slot{2}, Slot{2}}), {}};
  const StoredPlan silent_source{
      RelayPlan::adopt(1, {0, 1, 1}, {Slot{1}}), {}};
  for (const StoredPlan* bad :
       {&zero_offset, &non_increasing, &silent_source}) {
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(serialize_plan(*bad), out),
              PlanSerdeStatus::kMalformed);
  }
}

TEST(StoreSerialize, FailedDecodeLeavesOutputUntouched) {
  const auto topo = make_mesh("2D-4", 6, 4);
  std::string bytes = serialize_plan(make_stored(*topo, 2));
  bytes[70] = static_cast<char>(bytes[70] ^ 0x01);

  StoredPlan out = make_stored(*make_mesh("2D-4", 3, 3), 4);
  const std::size_t nodes_before = out.plan.num_nodes();
  ASSERT_EQ(deserialize_plan(bytes, out), PlanSerdeStatus::kChecksumMismatch);
  EXPECT_EQ(out.plan.num_nodes(), nodes_before);
  EXPECT_EQ(out.plan.source(), 4u);
}

TEST(StoreSerialize, FileRoundTripAndMissingFile) {
  const auto topo = make_mesh("2D-4", 6, 4);
  const StoredPlan original = make_stored(*topo, 2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_test_store_serialize.plan")
          .string();
  ASSERT_TRUE(write_plan_file(path, original));
  StoredPlan restored;
  EXPECT_EQ(read_plan_file(path, restored), PlanSerdeStatus::kOk);
  EXPECT_EQ(restored.plan.total_offsets(), original.plan.total_offsets());
  std::remove(path.c_str());

  StoredPlan out;
  EXPECT_EQ(read_plan_file(path, out), PlanSerdeStatus::kNotFound);
}

TEST(StoreSerialize, FlatPlanConvertsLosslessly) {
  const auto topo = make_mesh("2D-8", 5, 4);
  ResolveReport report;
  const RelayPlan plan = paper_plan(*topo, 7, {}, &report);
  const RelayPlan copy = plan.to_relay_plan();
  copy.validate();
  EXPECT_EQ(copy.num_nodes(), plan.num_nodes());
  EXPECT_EQ(copy.total_offsets(), plan.planned_tx());
  EXPECT_EQ(copy.source(), plan.source());
  EXPECT_EQ(copy, plan);
}

TEST(StoreSerialize, StatusStringsAreDistinct) {
  EXPECT_NE(to_string(PlanSerdeStatus::kTruncated),
            to_string(PlanSerdeStatus::kChecksumMismatch));
  EXPECT_NE(to_string(PlanSerdeStatus::kBadMagic),
            to_string(PlanSerdeStatus::kBadVersion));
}

}  // namespace
}  // namespace wsn
