// BENCH documents and their comparator (analysis/bench_doc.h): the one
// schema's reader and writer, direction-aware verdicts, the tolerance
// band, the gate (which metrics gate, and every way it fails closed), the
// file and directory variants, the meshbcast.bench.diff report, and a
// self-check of the committed baselines.  The `BenchGate.*` cases are the
// regression-gate half of the comparator.

#include "analysis/bench_doc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
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

  std::string write(const std::string& name, const std::string& text) const {
    const std::filesystem::path file = path / name;
    std::filesystem::create_directories(file.parent_path());
    std::ofstream out(file);
    out << text;
    return file.string();
  }
};

BenchDoc parse(const std::string& text) {
  BenchDoc doc;
  std::string error;
  EXPECT_TRUE(parse_bench_doc(text, doc, error)) << error;
  return doc;
}

/// A meshbcast.bench document around the given result rows.
std::string bench_doc(const std::string& rows) {
  return "{\"schema\":\"meshbcast.bench\",\"version\":1,\"bench\":\"perf\","
         "\"results\":[" +
         rows + "]}";
}

const DiffMetric* find_metric(const DiffReport& report,
                              const std::string& entry,
                              const std::string& metric) {
  for (const DiffMetric& m : report.metrics) {
    if (m.entry == entry && m.metric == metric) return &m;
  }
  return nullptr;
}

bool mentions(const std::vector<std::string>& lines, const std::string& text) {
  for (const std::string& line : lines) {
    if (line.find(text) != std::string::npos) return true;
  }
  return false;
}

DiffOptions tolerance(double band) {
  DiffOptions options;
  options.tolerance = band;
  return options;
}

const std::string kBaseline = bench_doc(
    "{\"name\": \"broadcast/2D-4\", \"iterations\": 100,"
    " \"runs_per_sec\": 1000.0, \"mean_ms\": 1.0, \"p95_ms\": 1.5},"
    "{\"name\": \"broadcast/2D-8\", \"iterations\": 100,"
    " \"runs_per_sec\": 2000.0, \"mean_ms\": 0.5, \"p95_ms\": 0.8}");

std::string current_with(double rps_2d4, double mean_ms_2d4) {
  std::ostringstream rows;
  rows << "{\"name\": \"broadcast/2D-4\", \"iterations\": 100,"
          " \"runs_per_sec\": "
       << rps_2d4 << ", \"mean_ms\": " << mean_ms_2d4
       << ", \"p95_ms\": 1.5},"
          "{\"name\": \"broadcast/2D-8\", \"iterations\": 100,"
          " \"runs_per_sec\": 1900.0, \"mean_ms\": 0.5, \"p95_ms\": 0.8}";
  return bench_doc(rows.str());
}

TEST(BenchGate, PassesWithinTolerance) {
  // 40% slower with a 50% tolerance: degraded but allowed.
  const DiffReport report = diff_bench_docs(
      parse(kBaseline), parse(current_with(600.0, 1.7)), tolerance(0.5));
  EXPECT_TRUE(report.passed()) << diff_text(report);
  EXPECT_EQ(report.gate_regressions(), 0u);

  const DiffMetric* rate =
      find_metric(report, "broadcast/2D-4", "runs_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->ratio, 0.6);
  EXPECT_TRUE(rate->gated);
  EXPECT_EQ(rate->verdict, "equal");
}

TEST(BenchGate, FlagsThroughputRegressionBeyondTolerance) {
  const DiffReport report = diff_bench_docs(
      parse(kBaseline), parse(current_with(400.0, 2.5)), tolerance(0.5));
  EXPECT_FALSE(report.passed());
  EXPECT_EQ(report.gate_regressions(), 1u);
  for (const DiffMetric& m : report.metrics) {
    if (m.fails_gate()) {
      EXPECT_EQ(m.entry, "broadcast/2D-4");
      EXPECT_EQ(m.metric, "runs_per_sec");
    }
  }

  // A tighter tolerance catches the healthy entry too.
  const DiffReport tight = diff_bench_docs(
      parse(kBaseline), parse(current_with(400.0, 2.5)), tolerance(0.01));
  EXPECT_EQ(tight.gate_regressions(), 2u);
}

TEST(BenchGate, LatencyMetricsAreAdvisoryOnly) {
  // mean_ms 10x worse never gates: wall-clock latency on shared CI boxes
  // is noise; only throughput collapse fails the build.
  const DiffReport report = diff_bench_docs(
      parse(kBaseline), parse(current_with(1000.0, 10.0)), tolerance(0.5));
  EXPECT_TRUE(report.passed()) << diff_text(report);
  const DiffMetric* latency = find_metric(report, "broadcast/2D-4", "mean_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_FALSE(latency->gated);
  EXPECT_EQ(latency->verdict, "regressed");
  EXPECT_FALSE(latency->fails_gate());
}

TEST(BenchGate, ScenarioSchemaKeysRowsByWorkerCount) {
  // scenario_throughput names its rows `workers=N`; the run parameters
  // (workers, jobs) and the spread columns ride along ungated.
  const std::string base = bench_doc(
      "{\"name\": \"workers=4\", \"workers\": 4, \"jobs\": 64,"
      " \"cold_jobs_per_sec\": 100.0, \"cold_jobs_per_sec_min\": 100.0,"
      " \"warm_jobs_per_sec\": 400.0, \"queue_wait_ms_mean\": 0.2,"
      " \"cache_hit_rate\": 0.75}");
  const std::string cur = bench_doc(
      "{\"name\": \"workers=4\", \"workers\": 4, \"jobs\": 80,"
      " \"cold_jobs_per_sec\": 90.0, \"cold_jobs_per_sec_min\": 10.0,"
      " \"warm_jobs_per_sec\": 150.0, \"queue_wait_ms_mean\": 0.3,"
      " \"cache_hit_rate\": 0.75}");
  const DiffReport report =
      diff_bench_docs(parse(base), parse(cur), tolerance(0.5));
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.gate_regressions(), 1u);
  for (const DiffMetric& m : report.metrics) {
    EXPECT_EQ(m.entry, "workers=4");
    if (m.fails_gate()) {
      EXPECT_EQ(m.metric, "warm_jobs_per_sec");
    }
  }
  const DiffMetric* spread =
      find_metric(report, "workers=4", "cold_jobs_per_sec_min");
  ASSERT_NE(spread, nullptr);
  EXPECT_EQ(spread->verdict, "regressed");
  EXPECT_FALSE(spread->gated);
  const DiffMetric* jobs = find_metric(report, "workers=4", "jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->verdict, "changed");
}

TEST(BenchDiff, MissingEntryIsReportedNotFailed) {
  const std::string shrunk = bench_doc(
      "{\"name\": \"broadcast/2D-8\", \"runs_per_sec\": 2000.0}");
  const DiffReport report =
      diff_bench_docs(parse(kBaseline), parse(shrunk), tolerance(0.5));
  EXPECT_TRUE(report.passed()) << diff_text(report);
  const DiffMetric* gone = find_metric(report, "broadcast/2D-4", "(entry)");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->verdict, "only-a");

  // An ungated metric vanishing from a row that is still there is
  // reported too; a gated one fails.
  const DiffMetric* dropped =
      find_metric(report, "broadcast/2D-8", "mean_ms");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->verdict, "only-a");
  const std::string no_rate =
      bench_doc("{\"name\": \"broadcast/2D-4\", \"mean_ms\": 1.0},"
                "{\"name\": \"broadcast/2D-8\", \"runs_per_sec\": 2000.0}");
  const DiffReport lost =
      diff_bench_docs(parse(kBaseline), parse(no_rate), tolerance(0.5));
  EXPECT_FALSE(lost.passed());
  EXPECT_EQ(lost.gate_regressions(), 1u);
}

TEST(BenchDiff, SchemaMismatchFailsTheGate) {
  // A current file whose schema string differs from its baseline's must
  // not pass with nothing compared.
  const TempDir tmp("schema");
  tmp.write("base/BENCH_scenario.json", kBaseline);
  std::string renamed = kBaseline;
  renamed.replace(renamed.find("meshbcast.bench"),
                  std::string("meshbcast.bench").size(), "meshbcast.timeline");
  tmp.write("cur/BENCH_scenario.json", renamed);
  const DiffReport report = diff_bench_dirs((tmp.path / "base").string(),
                                            (tmp.path / "cur").string(),
                                            tolerance(0.6));
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(report.metrics.empty());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(mentions(report.failures, "BENCH_scenario.json"));
  EXPECT_TRUE(mentions(report.failures, "unknown schema"));
}

TEST(BenchDiff, UnknownSchemaFailsTheGate) {
  // An unknown schema fails on either side, and so does a wrong version.
  const TempDir tmp("unknown_schema");
  const std::string base = tmp.write("base.json", kBaseline);
  const std::string cur = tmp.write("cur.json", kBaseline);
  const std::string other = tmp.write(
      "other.json", "{\"schema\": \"meshbcast.metrics\", \"version\": 1}");
  const DiffReport as_baseline = diff_bench_files(other, cur);
  EXPECT_FALSE(as_baseline.passed());
  EXPECT_TRUE(as_baseline.metrics.empty());
  EXPECT_TRUE(mentions(as_baseline.failures, "unknown schema"));
  EXPECT_FALSE(diff_bench_files(cur, other).passed());
  std::string v2 = kBaseline;
  v2.replace(v2.find("\"version\":1"), 11, "\"version\":2");
  BenchDoc doc;
  std::string error;
  EXPECT_FALSE(parse_bench_doc(v2, doc, error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
  EXPECT_TRUE(diff_bench_files(base, cur).passed());
}

TEST(BenchDiff, UnparseableCurrentFailsTheGate) {
  // `nan`, what a %.3f printf writes for a NaN, is not JSON: not comparable.
  const TempDir tmp("nan");
  tmp.write("base/BENCH_perf.json", kBaseline);
  tmp.write("cur/BENCH_perf.json",
            bench_doc("{\"name\":\"broadcast/2D-4\",\"runs_per_sec\":nan}"));
  const DiffReport report = diff_bench_dirs((tmp.path / "base").string(),
                                            (tmp.path / "cur").string(),
                                            tolerance(0.6));
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(mentions(report.failures, "unparseable"));

  // With no baseline the current document is still validated.
  const DiffReport seeded = diff_bench_files(
      (tmp.path / "none.json").string(),
      (tmp.path / "cur" / "BENCH_perf.json").string());
  EXPECT_FALSE(seeded.passed());
}

TEST(BenchDiff, MissingCurrentFileFailsTheGate) {
  const TempDir tmp("missing_current");
  tmp.write("base/BENCH_perf.json", kBaseline);
  tmp.write("base/BENCH_bulk.json", kBaseline);
  tmp.write("cur/BENCH_perf.json", kBaseline);
  const DiffReport report = diff_bench_dirs((tmp.path / "base").string(),
                                            (tmp.path / "cur").string(),
                                            tolerance(0.6));
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(mentions(report.failures, "BENCH_bulk.json"));
  EXPECT_EQ(report.gate_regressions(), 0u);

  // Two empty directories compare nothing, which is not a pass either.
  const TempDir empty("empty");
  EXPECT_FALSE(diff_bench_dirs(empty.path.string(), empty.path.string())
                   .passed());
}

TEST(BenchDiff, DuplicateRowNameFailsTheGate) {
  const std::string twice =
      bench_doc("{\"name\":\"workers=1\",\"cold_jobs_per_sec\":10.0},"
                "{\"name\":\"workers=1\",\"cold_jobs_per_sec\":11.0}");
  BenchDoc doc;
  std::string error;
  EXPECT_FALSE(parse_bench_doc(twice, doc, error));
  EXPECT_NE(error.find("duplicate row name \"workers=1\""), std::string::npos)
      << error;
  EXPECT_FALSE(parse_bench_doc(bench_doc("{\"workers\":1}"), doc, error));
  EXPECT_NE(error.find("no string name"), std::string::npos) << error;

  const TempDir tmp("duplicate");
  const std::string base = tmp.write("base.json", twice);
  const std::string cur = tmp.write("cur.json", kBaseline);
  const DiffReport as_baseline = diff_bench_files(base, cur);
  EXPECT_FALSE(as_baseline.passed());
  EXPECT_TRUE(mentions(as_baseline.failures, "duplicate"));
  EXPECT_FALSE(diff_bench_files(cur, base).passed());
}

TEST(BenchGate, MissingBaselineFileSeedsTheTrajectory) {
  const TempDir tmp("seed");
  const std::string current = tmp.write("BENCH_perf.json", kBaseline);

  const DiffReport seeded =
      diff_bench_files((tmp.path / "no_such_baseline.json").string(),
                       current, tolerance(0.5));
  EXPECT_TRUE(seeded.passed());
  EXPECT_TRUE(seeded.metrics.empty());
  ASSERT_FALSE(seeded.notes.empty());

  // With a real baseline on disk the comparison happens.
  const std::string baseline = tmp.write("baseline.json", kBaseline);
  const DiffReport same = diff_bench_files(baseline, current, tolerance(0.5));
  EXPECT_TRUE(same.passed());
  EXPECT_FALSE(same.metrics.empty());
  for (const DiffMetric& m : same.metrics) {
    EXPECT_DOUBLE_EQ(m.ratio, 1.0) << m.entry << " " << m.metric;
    EXPECT_EQ(m.file, "baseline.json");
  }
}

TEST(BenchGate, GateJsonRoundTrips) {
  const DiffOptions options = tolerance(0.5);
  const DiffReport report = diff_bench_docs(
      parse(kBaseline), parse(current_with(400.0, 2.5)), options);
  std::ostringstream text;
  write_diff_json(text, report, options);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(text.str(), doc, &error)) << error;
  EXPECT_EQ(doc.string_or("schema", ""), "meshbcast.bench.diff");
  EXPECT_EQ(doc.number_or("version", 0), 2.0);
  EXPECT_FALSE(doc.bool_or("passed", true));
  EXPECT_EQ(doc.number_or("gate_regressions", 0), 1.0);
  EXPECT_DOUBLE_EQ(doc.number_or("tolerance", 0), options.tolerance);
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  EXPECT_EQ(metrics->as_array().size(), report.metrics.size());
  bool saw_regression = false;
  for (const JsonValue& m : metrics->as_array()) {
    if (m.bool_or("gated", false) &&
        m.string_or("verdict", "") == "regressed") {
      EXPECT_EQ(m.string_or("metric", ""), "runs_per_sec");
      saw_regression = true;
    }
  }
  EXPECT_TRUE(saw_regression);
  const JsonValue* failures = doc.find("failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_TRUE(failures->as_array().empty());
}

TEST(BenchGate, MergeConcatenatesEverything) {
  // Directory mode concatenates the per-file reports.
  const TempDir tmp("merge");
  tmp.write("base/BENCH_a.json", kBaseline);
  tmp.write("base/BENCH_b.json", kBaseline);
  const std::string cur_a =
      tmp.write("cur/BENCH_a.json", current_with(400.0, 2.5));
  const std::string cur_b =
      tmp.write("cur/BENCH_b.json", current_with(1000.0, 1.0));
  tmp.write("cur/notes.json", "not a bench document");
  const DiffOptions options = tolerance(0.5);
  const DiffReport a = diff_bench_files(
      (tmp.path / "base" / "BENCH_a.json").string(), cur_a, options);
  const DiffReport b = diff_bench_files(
      (tmp.path / "base" / "BENCH_b.json").string(), cur_b, options);
  const DiffReport merged = diff_bench_dirs(
      (tmp.path / "base").string(), (tmp.path / "cur").string(), options);
  EXPECT_EQ(merged.metrics.size(), a.metrics.size() + b.metrics.size());
  EXPECT_EQ(merged.gate_regressions(),
            a.gate_regressions() + b.gate_regressions());
  EXPECT_TRUE(merged.failures.empty());
  EXPECT_FALSE(merged.passed());
  EXPECT_EQ(merged.metrics.front().file, "BENCH_a.json");
  EXPECT_EQ(merged.metrics.back().file, "BENCH_b.json");
}

TEST(BenchDiff, VerdictsFollowMetricDirection) {
  const BenchDoc a = parse(bench_doc(
      "{\"name\":\"resolve\",\"jobs_per_sec\":100.0,\"mean_ms\":10.0,"
      "\"iters\":5}"));
  const BenchDoc b = parse(bench_doc(
      "{\"name\":\"resolve\",\"jobs_per_sec\":150.0,\"mean_ms\":12.0,"
      "\"iters\":6}"));
  const DiffReport report = diff_bench_docs(a, b, {});

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
  EXPECT_TRUE(report.passed());
}

// An exact work count gates at tolerance 0 both ways: one more or one
// fewer simulation per compile fails however wide the timing band is,
// and an equal count passes.
TEST(BenchDiff, ExactCountsGateEveryChange) {
  const BenchDoc a = parse(bench_doc(
      "{\"name\":\"bulk_plan/2D-8\",\"runs_per_sec\":10.0,"
      "\"full_runs_count\":1,\"reprobes_count\":1}"));
  const auto with_counts = [](const char* full, const char* reprobes) {
    return parse(bench_doc(
        std::string("{\"name\":\"bulk_plan/2D-8\",\"runs_per_sec\":9.0,"
                    "\"full_runs_count\":") +
        full + ",\"reprobes_count\":" + reprobes + "}"));
  };
  const DiffReport same = diff_bench_docs(a, with_counts("1", "1"),
                                          tolerance(0.6));
  EXPECT_TRUE(same.passed());
  const DiffMetric* full = find_metric(same, "bulk_plan/2D-8", "full_runs_count");
  ASSERT_NE(full, nullptr);
  EXPECT_TRUE(full->gated);
  EXPECT_EQ(full->direction, 0);
  EXPECT_EQ(full->verdict, "equal");

  const DiffReport rose = diff_bench_docs(a, with_counts("2", "1"),
                                          tolerance(0.6));
  EXPECT_FALSE(rose.passed());
  EXPECT_EQ(rose.gate_regressions(), 1u);
  EXPECT_EQ(find_metric(rose, "bulk_plan/2D-8", "full_runs_count")->verdict,
            "changed");

  const DiffReport fell = diff_bench_docs(a, with_counts("1", "0"),
                                          tolerance(0.6));
  EXPECT_FALSE(fell.passed());
  EXPECT_EQ(fell.gate_regressions(), 1u);
  EXPECT_TRUE(
      find_metric(fell, "bulk_plan/2D-8", "reprobes_count")->fails_gate());
}

TEST(BenchDiff, ToleranceAbsorbsSmallDeltas) {
  const BenchDoc a = parse(
      bench_doc("{\"name\":\"x\",\"jobs_per_sec\":100.0,\"p95_ms\":10.0}"));
  const BenchDoc b = parse(
      bench_doc("{\"name\":\"x\",\"jobs_per_sec\":97.0,\"p95_ms\":10.4}"));
  const DiffReport within = diff_bench_docs(a, b, tolerance(0.05));
  EXPECT_EQ(within.regressed(), 0u);
  EXPECT_EQ(within.count("equal"), 2u);

  const DiffReport beyond = diff_bench_docs(a, b, tolerance(0.01));
  EXPECT_EQ(beyond.regressed(), 2u);
  EXPECT_EQ(beyond.gate_regressions(), 1u);
}

TEST(BenchDiff, OneSidedEntriesAndMetricsAreFlagged) {
  const BenchDoc a = parse(bench_doc(
      "{\"name\":\"workers=1\",\"cold_jobs_per_sec\":50.0,\"old_only\":1.0},"
      "{\"name\":\"workers=2\",\"cold_jobs_per_sec\":90.0}"));
  const BenchDoc b = parse(bench_doc(
      "{\"name\":\"workers=1\",\"cold_jobs_per_sec\":50.0,\"new_only\":2.0},"
      "{\"name\":\"workers=4\",\"cold_jobs_per_sec\":120.0}"));
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
  EXPECT_TRUE(report.passed());
}

TEST(BenchDiff, ServiceDocumentsAreCompared) {
  // The loadgen's rows, as bench/baselines/BENCH_service.json holds them:
  // the run parameters are plain members that never gate.
  const BenchDoc a = parse(bench_doc(
      "{\"name\":\"warm_plan\",\"connections\":4,\"rate\":0,"
      "\"requests\":2000,\"runs_per_sec\":37000.0,\"shed_rate\":0.1,"
      "\"p99_ms\":0.26}"));
  const BenchDoc b = parse(bench_doc(
      "{\"name\":\"warm_plan\",\"connections\":8,\"rate\":500,"
      "\"requests\":2000,\"runs_per_sec\":20000.0,\"shed_rate\":0.2,"
      "\"p99_ms\":0.26}"));
  const DiffReport report = diff_bench_docs(a, b, {});
  EXPECT_TRUE(report.notes.empty());
  const DiffMetric* rate = find_metric(report, "warm_plan", "runs_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->verdict, "regressed");
  // More requests shed is worse, though the name ends in "rate".
  const DiffMetric* shed = find_metric(report, "warm_plan", "shed_rate");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->direction, -1);
  EXPECT_EQ(shed->verdict, "regressed");
  EXPECT_EQ(report.regressed(), 2u);
  for (const char* parameter : {"connections", "rate"}) {
    const DiffMetric* m = find_metric(report, "warm_plan", parameter);
    ASSERT_NE(m, nullptr) << parameter;
    EXPECT_EQ(m->direction, 0) << parameter;
    EXPECT_FALSE(m->gated) << parameter;
    EXPECT_EQ(m->verdict, "changed") << parameter;
  }
  EXPECT_EQ(report.gate_regressions(), 1u);
}

TEST(BenchDiff, ThresholdParityAcrossFormerFlavours) {
  // At the CI band (0.6) a gated throughput 61% below baseline fails and
  // one 59% below passes, for the perf, scenario and service rows alike;
  // latency and shed-rate regressions never fail.
  const struct {
    const char* row;
    const char* metric;
  } gated[] = {{"simulate/2D-4", "runs_per_sec"},
               {"workers=2", "cold_jobs_per_sec"},
               {"workers=2", "warm_jobs_per_sec"},
               {"workers=2", "cache_hit_rate"},
               {"warm_plan", "runs_per_sec"}};
  for (const auto& g : gated) {
    const auto doc = [&](double value) {
      std::ostringstream row;
      row.precision(17);
      row << "{\"name\":\"" << g.row << "\",\"" << g.metric
          << "\":" << value
          << ",\"p99_ms\":" << 100.0 - value << ",\"shed_rate\":"
          << (100.0 - value) / 100.0
          << ",\"queue_wait_ms_mean\":" << 100.0 - value << "}";
      return parse(bench_doc(row.str()));
    };
    const DiffReport fails = diff_bench_docs(doc(100.0), doc(39.0),
                                             tolerance(0.6));
    EXPECT_FALSE(fails.passed()) << g.row << " " << g.metric;
    EXPECT_EQ(fails.gate_regressions(), 1u) << g.row << " " << g.metric;
    const DiffReport passes = diff_bench_docs(doc(100.0), doc(41.0),
                                              tolerance(0.6));
    EXPECT_TRUE(passes.passed()) << diff_text(passes);
    // The advisory columns went from 0 to 59-61: regressed, never gated.
    EXPECT_EQ(passes.regressed(), 3u) << diff_text(passes);
  }
}

TEST(BenchDiff, FileVariantDiffsAndJsonRoundTrips) {
  const TempDir tmp("files");
  const std::string path_a =
      tmp.write("a.json", bench_doc("{\"name\":\"r\",\"jobs_per_sec\":100.0}"));
  const std::string path_b =
      tmp.write("b.json", bench_doc("{\"name\":\"r\",\"jobs_per_sec\":80.0}"));
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
  EXPECT_EQ(metrics->as_array()[0].string_or("file", ""), "a.json");

  // A missing baseline is a note; a missing current file is a failure.
  const DiffReport no_baseline =
      diff_bench_files((tmp.path / "nope.json").string(), path_b, {});
  EXPECT_TRUE(no_baseline.metrics.empty());
  EXPECT_TRUE(no_baseline.passed());
  EXPECT_TRUE(mentions(no_baseline.notes, "seeds the trajectory"));
  const DiffReport no_current =
      diff_bench_files(path_a, (tmp.path / "nope.json").string(), {});
  EXPECT_FALSE(no_current.passed());
  EXPECT_TRUE(mentions(no_current.failures, "missing"));

  // The text rendering carries the tallies and the verdict.
  const std::string text = diff_text(report);
  EXPECT_NE(text.find("1 regressed"), std::string::npos);
  EXPECT_NE(text.find("gate: FAIL"), std::string::npos);
}

TEST(BenchDiff, WriterRoundTripsBitForBit) {
  const TempDir tmp("writer");
  const BenchDoc doc{"perf",
                     {{"simulate/2D-4",
                       {{"iterations", 4096.0},
                        {"runs_per_sec", 74315.623999999996},
                        {"mean_ms", 0.1 + 0.2}}},
                      {"workers=2", {{"cold_jobs_per_sec", 1e-300}}}}};
  const std::string path = (tmp.path / "BENCH_perf.json").string();
  ASSERT_TRUE(write_bench_doc(path, doc));
  const DiffReport same = diff_bench_files(path, path, {});
  EXPECT_TRUE(same.passed());

  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const BenchDoc back = parse(text.str());
  EXPECT_EQ(back.bench, "perf");
  ASSERT_EQ(back.rows.size(), 2u);
  for (std::size_t i = 0; i < back.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, doc.rows[i].name);
    EXPECT_EQ(back.rows[i].metrics, doc.rows[i].metrics);
  }

  // A NaN throughput is written as 0, which the gate reads as collapse.
  BenchDoc broken = doc;
  broken.rows[0].metrics[1].second = std::numeric_limits<double>::quiet_NaN();
  const std::string broken_path = (tmp.path / "broken.json").string();
  ASSERT_TRUE(write_bench_doc(broken_path, broken));
  const DiffReport collapsed = diff_bench_files(path, broken_path, {});
  EXPECT_FALSE(collapsed.passed());
  EXPECT_EQ(collapsed.gate_regressions(), 1u);
}

TEST(BenchDiff, CommittedBaselinesAreWellFormed) {
  // Every committed baseline parses under the one schema (which also
  // rejects duplicate row names), carries at least one gated metric and
  // passes against itself.
  const std::filesystem::path dir =
      std::filesystem::path(WSN_REPO_DIR) / "bench" / "baselines";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    SCOPED_TRACE(path);
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    BenchDoc doc;
    std::string error;
    ASSERT_TRUE(parse_bench_doc(text.str(), doc, error)) << error;
    const DiffReport self = diff_bench_files(path, path, tolerance(0.6));
    EXPECT_TRUE(self.passed()) << diff_text(self);
    std::size_t gated = 0;
    for (const DiffMetric& m : self.metrics) {
      if (m.gated) gated += 1;
      EXPECT_EQ(m.verdict, "equal") << m.entry << " " << m.metric;
    }
    EXPECT_GT(gated, 0u);
    files += 1;
  }
  EXPECT_GE(files, 7u);
  EXPECT_TRUE(diff_bench_dirs(dir.string(), dir.string(), tolerance(0.6))
                  .passed());
}

}  // namespace
}  // namespace wsn
