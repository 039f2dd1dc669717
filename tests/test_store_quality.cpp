// The WSNPLAN1 quality section (flags bit 0): learned link quality rides
// beside an ETX plan bit-exactly, every way the section can be damaged maps
// to a PlanSerdeStatus instead of an abort, and the plan store rejects and
// rewrites a disk artifact whose quality does not fit the topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "fault/link_estimator.h"
#include "fault/models.h"
#include "protocol/etx_planner.h"
#include "protocol/registry.h"
#include "store/plan_store.h"
#include "store/serialize.h"
#include "topology/factory.h"

namespace wsn {
namespace {

constexpr std::size_t kFlagsOffset = 20;
constexpr std::size_t kTrailerSize = 8;

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_store_quality_" + tag)) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

/// Appends the artifact trailer to a hand-built body, so a test reaches
/// the structural checks behind the checksum.
std::string seal(std::string body) {
  put_u64(body, plan_checksum(body));
  return body;
}

std::string unsealed(const std::string& artifact) {
  return artifact.substr(0, artifact.size() - kTrailerSize);
}

/// An ETX plan with the quality it was learned from, the way the scenario
/// engine stores it.
StoredPlan learned_plan(const Topology& topo, NodeId source, double loss) {
  IidLossModel probe(loss, 0x5eedull);
  StoredPlan stored;
  stored.quality = estimate_link_quality(topo, probe);
  stored.plan = FlatRelayPlan::from(
      etx_plan(topo, source, stored.quality, {}, &stored.report));
  return stored;
}

void expect_untouched(const StoredPlan& out) {
  EXPECT_EQ(out.plan.num_nodes(), 0u);
  EXPECT_TRUE(out.quality.empty());
}

TEST(StoreQuality, RoundTripIsBitExactIncludingTheClamp) {
  const auto topo = make_mesh("2D-4", 6, 4);
  // At 99.9 % loss nearly every link drops all 64 probes and reports the
  // estimator's 1/64 clamp; at 30 % the values are spread out.
  for (const double loss : {0.3, 0.999}) {
    const StoredPlan original = learned_plan(*topo, 2, loss);
    ASSERT_EQ(original.quality.size(), topo->num_directed_links());
    if (loss > 0.99) {
      EXPECT_NE(std::find(original.quality.begin(), original.quality.end(),
                          LinkEstimatorConfig{}.min_delivery),
                original.quality.end());
    }
    StoredPlan restored;
    ASSERT_EQ(deserialize_plan(serialize_plan(original), restored),
              PlanSerdeStatus::kOk);
    ASSERT_EQ(restored.quality.size(), original.quality.size());
    for (std::size_t i = 0; i < original.quality.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.quality[i]),
                std::bit_cast<std::uint64_t>(original.quality[i]))
          << "link " << i;
    }
    EXPECT_EQ(restored.plan.total_offsets(), original.plan.total_offsets());
    EXPECT_EQ(restored.report.repairs, original.report.repairs);
    restored.plan.validate();
  }
}

TEST(StoreQuality, QualityFreeArtifactsKeepTheFlagsZeroLayout) {
  const auto topo = make_mesh("2D-4", 6, 4);
  StoredPlan learned = learned_plan(*topo, 2, 0.3);
  const std::string with_quality = serialize_plan(learned);
  learned.quality.clear();
  const std::string without = serialize_plan(learned);
  EXPECT_EQ(without[kFlagsOffset], 0);
  EXPECT_EQ(with_quality[kFlagsOffset], 1);
  // Same header and offsets; the section adds a count and one word per
  // link before the trailer.
  EXPECT_EQ(with_quality.size(),
            without.size() + 8 + 8 * topo->num_directed_links());
  EXPECT_EQ(with_quality.substr(kFlagsOffset + 4,
                                without.size() - kTrailerSize -
                                    kFlagsOffset - 4),
            without.substr(kFlagsOffset + 4,
                           without.size() - kTrailerSize - kFlagsOffset -
                               4));
}

TEST(StoreQuality, TruncationInsideTheSectionIsNeverOk) {
  const auto topo = make_mesh("2D-4", 6, 4);
  const StoredPlan stored = learned_plan(*topo, 2, 0.3);
  const std::string artifact = serialize_plan(stored);
  const std::string body = unsealed(artifact);
  const std::size_t section = body.size() - 8 - 8 * stored.quality.size();
  for (std::size_t keep = section; keep < body.size(); ++keep) {
    // Resealed: the checksum passes and the section reader sees the cut.
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(seal(body.substr(0, keep)), out),
              PlanSerdeStatus::kTruncated)
        << "kept " << keep << " of " << body.size();
    expect_untouched(out);
    // Raw cut: the damage lands on the checksum.
    StoredPlan raw;
    EXPECT_NE(deserialize_plan(std::string_view(artifact).substr(0, keep),
                               raw),
              PlanSerdeStatus::kOk)
        << "kept " << keep << " of " << artifact.size();
    expect_untouched(raw);
  }
}

TEST(StoreQuality, OutOfRangeValuesAreMalformed) {
  const auto topo = make_mesh("2D-4", 6, 4);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, -0.5,
        1.0000000000000002, 1.5, std::numeric_limits<double>::infinity()}) {
    StoredPlan stored = learned_plan(*topo, 2, 0.3);
    stored.quality[stored.quality.size() / 2] = bad;
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(serialize_plan(stored), out),
              PlanSerdeStatus::kMalformed)
        << "value " << bad;
    expect_untouched(out);
  }
}

TEST(StoreQuality, ZeroCountAndUnknownFlagsAreMalformed) {
  const auto topo = make_mesh("2D-4", 6, 4);
  StoredPlan plain = learned_plan(*topo, 2, 0.3);
  plain.quality.clear();
  const std::string body = unsealed(serialize_plan(plain));

  std::string zero_count = body;
  zero_count[kFlagsOffset] = 1;
  put_u64(zero_count, 0);

  std::string flag_two = body;
  flag_two[kFlagsOffset] = 2;

  std::string flag_three =
      unsealed(serialize_plan(learned_plan(*topo, 2, 0.3)));
  flag_three[kFlagsOffset] = 3;

  std::string high_bit = body;
  high_bit[kFlagsOffset + 3] = static_cast<char>(0x80);

  // A flags-0 artifact with a section appended: trailing bytes.
  std::string unflagged_section = body;
  put_u64(unflagged_section, 1);
  put_u64(unflagged_section, std::bit_cast<std::uint64_t>(0.5));

  for (const std::string* bad :
       {&zero_count, &flag_two, &flag_three, &high_bit, &unflagged_section}) {
    StoredPlan out;
    EXPECT_EQ(deserialize_plan(seal(*bad), out), PlanSerdeStatus::kMalformed);
    expect_untouched(out);
  }
}

TEST(StoreQuality, HugeCountIsTruncatedWithoutAllocating) {
  const auto topo = make_mesh("2D-4", 6, 4);
  StoredPlan plain = learned_plan(*topo, 2, 0.3);
  plain.quality.clear();
  std::string body = unsealed(serialize_plan(plain));
  body[kFlagsOffset] = 1;
  put_u64(body, std::numeric_limits<std::uint64_t>::max());
  put_u64(body, std::bit_cast<std::uint64_t>(0.5));
  StoredPlan out;
  EXPECT_EQ(deserialize_plan(seal(body), out), PlanSerdeStatus::kTruncated);
  expect_untouched(out);
}

PlanStore::LearnedCompileFn etx_compile(const Topology& topo, NodeId source,
                                        int* calls) {
  return [&topo, source, calls](ResolveReport& report,
                                std::vector<double>& quality) {
    *calls += 1;
    IidLossModel probe(0.3, 0x5eedull);
    quality = estimate_link_quality(topo, probe);
    return etx_plan(topo, source, quality, {}, &report);
  };
}

TEST(StoreQuality, StoreServesTheQualityFromEveryTier) {
  const TempDir tmp("tiers");
  const auto topo = make_mesh("2D-8", 7, 5);
  PlanStore::Config config;
  config.disk_dir = tmp.path.string();
  int calls = 0;
  const StoredPlan expected = learned_plan(*topo, 4, 0.3);

  PlanStore cold(config);
  PlanStore::Origin origin{};
  const auto compiled = cold.fetch_or_compile(
      *topo, 4, "etx-test", {}, etx_compile(*topo, 4, &calls), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kCompiled);
  EXPECT_EQ(compiled->quality, expected.quality);
  const auto hit = cold.fetch_or_compile(
      *topo, 4, "etx-test", {}, etx_compile(*topo, 4, &calls), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kMemory);
  EXPECT_EQ(hit.get(), compiled.get());

  PlanStore warm(config);
  const auto loaded = warm.fetch_or_compile(
      *topo, 4, "etx-test", {}, etx_compile(*topo, 4, &calls), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kDisk);
  EXPECT_EQ(loaded->quality, expected.quality);
  EXPECT_EQ(calls, 1);
}

TEST(StoreQuality, DiskQualityOfTheWrongLengthIsRejectedAndRewritten) {
  const TempDir tmp("wronglen");
  const auto topo = make_mesh("2D-4", 8, 6);
  const NodeId source = 3;
  const PlanFingerprint fp =
      fingerprint_plan_request(*topo, source, "etx-test");
  {
    // A well-formed, checksummed artifact at the right key whose quality
    // is one value short of the topology's link count.
    StoredPlan wrong = learned_plan(*topo, source, 0.3);
    wrong.quality.pop_back();
    PlanDiskStore disk(tmp.path.string());
    ASSERT_TRUE(disk.save(fp, wrong));
  }

  PlanStore::Config config;
  config.disk_dir = tmp.path.string();
  int calls = 0;
  PlanStore store(config);
  PlanStore::Origin origin{};
  const auto healed = store.fetch_or_compile(
      *topo, source, "etx-test", {}, etx_compile(*topo, source, &calls),
      &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kCompiled);
  EXPECT_EQ(store.stats().disk_rejects, 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(healed->quality.size(), topo->num_directed_links());

  // The recompile rewrote the artifact; a fresh store loads it cleanly.
  PlanStore verify(config);
  const auto loaded = verify.fetch_or_compile(
      *topo, source, "etx-test", {}, etx_compile(*topo, source, &calls),
      &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kDisk);
  EXPECT_EQ(verify.stats().disk_rejects, 0u);
  EXPECT_EQ(loaded->quality, healed->quality);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace wsn
