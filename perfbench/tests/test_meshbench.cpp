// Tests of the benchmark's own code: the percentile guard, the metric
// catalogue and its agreement with BENCHMARK.json, and the output checks
// that must fail a run fed a corrupted record or digest.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "common/json.h"
#include "report.h"
#include "stats.h"

namespace meshbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileGuard, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(guarded_percentile(ramp(99), 0.9).has_value());
  EXPECT_FALSE(guarded_percentile(ramp(19), 0.5).has_value());
  EXPECT_FALSE(guarded_percentile({}, 0.5).has_value());
}

TEST(PercentileGuard, ReportsValueWithItsSampleCount) {
  const auto p90 = guarded_percentile(ramp(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->samples, 100u);
  EXPECT_EQ(p90->beyond, 10u);
  EXPECT_NEAR(p90->value, 90.1, 1e-9);  // rank 89.1 over 1..100
  const auto p50 = guarded_percentile(ramp(20), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->samples, 20u);
  EXPECT_DOUBLE_EQ(p50->value, 10.5);
}

TEST(Median, MeansTheMiddlePairOfAnEvenCount) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(MetricNames, AreValidAndUnique) {
  std::set<std::string_view> seen;
  for (const EndToEndMetric& m : end_to_end_metrics()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
  for (const LayerMetric& m : per_layer_metrics()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
  for (const std::string_view w : workload_names()) {
    EXPECT_TRUE(valid_metric_name(w)) << w;
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("p99/ms"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, MatchBenchmarkJson) {
  std::ifstream in(MESHBENCH_REPO_ROOT "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  wsn::JsonValue doc;
  ASSERT_TRUE(wsn::parse_json(text.str(), doc));
  const auto names = [&](std::string_view key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const wsn::JsonValue& m : doc.find(key)->as_array()) {
      out.emplace_back(m.string_or("name", ""), m.string_or("unit", ""));
    }
    return out;
  };
  std::vector<std::pair<std::string, std::string>> e2e, layers;
  for (const EndToEndMetric& m : end_to_end_metrics()) {
    e2e.emplace_back(m.name, m.unit);
  }
  for (const LayerMetric& m : per_layer_metrics()) {
    layers.emplace_back(m.name, m.unit);
  }
  EXPECT_EQ(names("end_to_end"), e2e);
  EXPECT_EQ(names("per_layer"), layers);
  std::vector<std::string> workloads;
  for (const wsn::JsonValue& w : doc.find("workloads")->as_array()) {
    workloads.push_back(w.string_or("name", ""));
  }
  EXPECT_EQ(workloads, std::vector<std::string>(workload_names().begin(),
                                                workload_names().end()));
}

TEST(Result, RefusesMetricsOutsideTheCatalogue) {
  Result result;
  EXPECT_THROW(result.set("ops_per_sec", 1.0), std::invalid_argument);
  result.set("ops_per_s", 12.5);
  Ledger ledger;
  ledger.attempt(3);
  const std::string line = result.final_line(ledger, true);
  wsn::JsonValue doc;
  ASSERT_TRUE(wsn::parse_json(line, doc));
  EXPECT_EQ(doc.number_or("attempted", 0), 3);
  const wsn::JsonValue* metric = doc.find("metrics")->find("ops_per_s");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->string_or("unit", ""), "ops/s");
  EXPECT_EQ(metric->number_or("value", 0), 12.5);
}

const std::string kHeader =
    R"({"schema":"meshbcast.scenario.results","version":1,"jobs":2})";
const std::string kRecord0 =
    R"({"job":0,"scenario":"s","status":"ok","nodes":512,"reached":512,"audit_checks":11,"audit_violations":0})";
const std::string kRecord1 =
    R"({"job":1,"scenario":"s","status":"ok","nodes":512,"reached":512,"audit_checks":11,"audit_violations":0})";

TEST(OutputChecks, CleanStreamPasses) {
  const std::vector<std::string> ref = {kHeader, kRecord0, kRecord1};
  Ledger ledger;
  verify_stream(ref, ref, ledger);
  EXPECT_EQ(ledger.attempted, 2u);
  EXPECT_EQ(ledger.failed, 0u);
}

TEST(OutputChecks, CorruptedRecordFailsTheRun) {
  const std::vector<std::string> ref = {kHeader, kRecord0, kRecord1};
  std::vector<std::string> got = ref;
  got[2][got[2].find("512,\"audit")] = '4';  // reached 412 of 512
  Ledger ledger;
  verify_stream(got, ref, ledger);
  EXPECT_EQ(ledger.attempted, 2u);
  EXPECT_EQ(ledger.failed, 1u);
  ASSERT_FALSE(ledger.errors.empty());
  EXPECT_NE(ledger.errors[0].find("record 1"), std::string::npos);
}

TEST(OutputChecks, CorruptedDigestFailsTheRun) {
  const std::vector<std::string> ref = {kHeader, kRecord0, kRecord1};
  EXPECT_NE(digest_lines(ref), digest_lines({kHeader, kRecord1, kRecord0}));
  Ledger truncated;
  verify_stream({kHeader, kRecord0}, ref, truncated);
  EXPECT_EQ(truncated.failed, 1u);
  Ledger header;
  verify_stream({kHeader + " ", kRecord0, kRecord1}, ref, header);
  EXPECT_EQ(header.failed, 2u);
  Ledger extra;
  verify_stream({kHeader, kRecord0, kRecord1, kRecord1}, ref, extra);
  EXPECT_EQ(extra.failed, 1u);
}

TEST(OutputChecks, RecordRule) {
  std::string why;
  EXPECT_TRUE(check_record(kRecord0, why));
  EXPECT_FALSE(check_record(R"({"job":3,"status":"error","error":"x"})", why));
  EXPECT_FALSE(check_record(R"({"job":3,"status":"ok","nodes":9,"reached":9})",
                            why));
  EXPECT_NE(why.find("no audit verdict"), std::string::npos);
  EXPECT_FALSE(check_record(
      R"({"job":3,"status":"ok","audit_violations":1,"audit_failed":"delivery"})",
      why));
  EXPECT_FALSE(check_record("{not json", why));
  // A reference that itself breaks the rule still fails the stream.
  const std::string bad =
      R"({"job":0,"status":"ok","audit_violations":2,"audit_failed":"energy"})";
  Ledger ledger;
  verify_stream({kHeader, bad}, {kHeader, bad}, ledger);
  EXPECT_EQ(ledger.failed, 1u);
}

TEST(OutputChecks, ResponseReqIsParsed) {
  EXPECT_EQ(response_req(R"({"type":"response","id":4,"req":1234,"ok":true})"),
            1234u);
  EXPECT_EQ(response_req(R"({"type":"response","id":4,"ok":true})"), 0u);
}

}  // namespace
}  // namespace meshbench
