#include "analysis/bench_diff.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace wsn {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_bench_diff_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

JsonValue parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(text, doc, &error)) << error;
  return doc;
}

const DiffMetric* find_metric(const DiffReport& report,
                              const std::string& entry,
                              const std::string& metric) {
  for (const DiffMetric& m : report.metrics) {
    if (m.entry == entry && m.metric == metric) return &m;
  }
  return nullptr;
}

TEST(BenchDiff, VerdictsFollowMetricDirection) {
  const JsonValue a = parse(
      "{\"schema\":\"meshbcast.bench\",\"bench\":\"perf\",\"results\":["
      "{\"name\":\"resolve\",\"jobs_per_sec\":100.0,\"mean_ms\":10.0,"
      "\"iters\":5}]}");
  const JsonValue b = parse(
      "{\"schema\":\"meshbcast.bench\",\"bench\":\"perf\",\"results\":["
      "{\"name\":\"resolve\",\"jobs_per_sec\":150.0,\"mean_ms\":12.0,"
      "\"iters\":6}]}");
  const DiffReport report = diff_bench_docs(a, b, {});
  EXPECT_EQ(report.bench_a, "perf");

  // Throughput up 50% -> improved; latency up 20% -> regressed; a
  // directionless count change -> "changed", never a regression.
  const DiffMetric* rate = find_metric(report, "resolve", "jobs_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->verdict, "improved");
  EXPECT_EQ(rate->direction, 1);
  EXPECT_DOUBLE_EQ(rate->ratio, 1.5);
  const DiffMetric* latency = find_metric(report, "resolve", "mean_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->verdict, "regressed");
  EXPECT_EQ(latency->direction, -1);
  const DiffMetric* iters = find_metric(report, "resolve", "iters");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->verdict, "changed");
  EXPECT_EQ(iters->direction, 0);

  EXPECT_EQ(report.improved(), 1u);
  EXPECT_EQ(report.regressed(), 1u);
  EXPECT_EQ(report.count("changed"), 1u);
}

TEST(BenchDiff, ToleranceAbsorbsSmallDeltas) {
  const JsonValue a = parse(
      "{\"schema\":\"meshbcast.bench\",\"results\":["
      "{\"name\":\"x\",\"jobs_per_sec\":100.0,\"p95_ms\":10.0}]}");
  const JsonValue b = parse(
      "{\"schema\":\"meshbcast.bench\",\"results\":["
      "{\"name\":\"x\",\"jobs_per_sec\":97.0,\"p95_ms\":10.4}]}");
  DiffOptions loose;
  loose.tolerance = 0.05;
  const DiffReport within = diff_bench_docs(a, b, loose);
  EXPECT_EQ(within.regressed(), 0u);
  EXPECT_EQ(within.count("equal"), 2u);

  DiffOptions strict;
  strict.tolerance = 0.01;
  const DiffReport beyond = diff_bench_docs(a, b, strict);
  EXPECT_EQ(beyond.regressed(), 2u);
}

TEST(BenchDiff, OneSidedEntriesAndMetricsAreFlagged) {
  const JsonValue a = parse(
      "{\"schema\":\"meshbcast.bench.scenario\",\"results\":["
      "{\"workers\":1,\"cold_jobs_per_sec\":50.0,\"old_only\":1.0},"
      "{\"workers\":2,\"cold_jobs_per_sec\":90.0}]}");
  const JsonValue b = parse(
      "{\"schema\":\"meshbcast.bench.scenario\",\"results\":["
      "{\"workers\":1,\"cold_jobs_per_sec\":50.0,\"new_only\":2.0},"
      "{\"workers\":4,\"cold_jobs_per_sec\":120.0}]}");
  const DiffReport report = diff_bench_docs(a, b, {});

  const DiffMetric* gone = find_metric(report, "workers=1", "old_only");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->verdict, "only-a");
  const DiffMetric* added = find_metric(report, "workers=1", "new_only");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->verdict, "only-b");
  const DiffMetric* dropped = find_metric(report, "workers=2", "(entry)");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->verdict, "only-a");
  const DiffMetric* fresh = find_metric(report, "workers=4", "(entry)");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->verdict, "only-b");
  // One-sided rows never count as regressions.
  EXPECT_EQ(report.regressed(), 0u);
}

TEST(BenchDiff, MismatchedSchemasAreSkippedWithANote) {
  const JsonValue a = parse(
      "{\"schema\":\"meshbcast.bench\",\"results\":[]}");
  const JsonValue b = parse(
      "{\"schema\":\"meshbcast.bench.scenario\",\"results\":[]}");
  const DiffReport report = diff_bench_docs(a, b, {});
  EXPECT_TRUE(report.metrics.empty());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("schema mismatch"), std::string::npos);

  const JsonValue unknown = parse("{\"schema\":\"whatever\"}");
  const DiffReport bad = diff_bench_docs(unknown, a, {});
  ASSERT_EQ(bad.notes.size(), 1u);
  EXPECT_NE(bad.notes[0].find("unknown schema"), std::string::npos);
}

TEST(BenchDiff, ServiceDocumentsAreCompared) {
  // The loadgen's document, as bench/baselines/BENCH_service.json writes
  // it: the diff must compare it like the gate does, not skip it.
  const JsonValue a = parse(
      "{\"schema\":\"meshbcast.bench.service\",\"version\":1,"
      "\"bench\":\"service_loadgen\",\"results\":["
      "{\"name\":\"warm_plan\",\"requests\":2000,"
      "\"runs_per_sec\":37000.0,\"shed_rate\":0.1,\"p99_ms\":0.26}]}");
  const JsonValue b = parse(
      "{\"schema\":\"meshbcast.bench.service\",\"version\":1,"
      "\"bench\":\"service_loadgen\",\"results\":["
      "{\"name\":\"warm_plan\",\"requests\":2000,"
      "\"runs_per_sec\":20000.0,\"shed_rate\":0.2,\"p99_ms\":0.26}]}");
  const DiffReport report = diff_bench_docs(a, b, {});
  EXPECT_TRUE(report.notes.empty());
  EXPECT_EQ(report.bench_a, "service_loadgen");
  const DiffMetric* rate = find_metric(report, "warm_plan", "runs_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->verdict, "regressed");
  // More requests shed is worse, though the name ends in "rate".
  const DiffMetric* shed = find_metric(report, "warm_plan", "shed_rate");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->direction, -1);
  EXPECT_EQ(shed->verdict, "regressed");
  EXPECT_EQ(report.regressed(), 2u);
}

TEST(BenchDiff, FileVariantDiffsAndJsonRoundTrips) {
  const TempDir tmp("files");
  const std::string path_a = (tmp.path / "a.json").string();
  const std::string path_b = (tmp.path / "b.json").string();
  {
    std::ofstream out(path_a);
    out << "{\"schema\":\"meshbcast.bench\",\"bench\":\"perf\","
           "\"results\":[{\"name\":\"r\",\"jobs_per_sec\":100.0}]}\n";
  }
  {
    std::ofstream out(path_b);
    out << "{\"schema\":\"meshbcast.bench\",\"bench\":\"perf\","
           "\"results\":[{\"name\":\"r\",\"jobs_per_sec\":80.0}]}\n";
  }
  const DiffReport report = diff_bench_files(path_a, path_b, {});
  EXPECT_EQ(report.regressed(), 1u);

  std::ostringstream json;
  write_diff_json(json, report, {});
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(json.str(), doc, &error)) << error;
  EXPECT_EQ(doc.string_or("schema", ""), "meshbcast.bench.diff");
  EXPECT_EQ(doc.number_or("regressed", -1), 1.0);
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  ASSERT_EQ(metrics->as_array().size(), 1u);
  EXPECT_EQ(metrics->as_array()[0].string_or("verdict", ""), "regressed");

  // Missing inputs fail soft: a note, no metrics.
  const DiffReport missing =
      diff_bench_files((tmp.path / "nope.json").string(), path_b, {});
  EXPECT_TRUE(missing.metrics.empty());
  ASSERT_FALSE(missing.notes.empty());
  EXPECT_NE(missing.notes[0].find("does not exist"), std::string::npos);

  // The text rendering carries the tallies.
  const std::string text = diff_text(report);
  EXPECT_NE(text.find("1 regressed"), std::string::npos);
}

}  // namespace
}  // namespace wsn
