// ETX plans through the plan store: each learned channel is estimated once
// per store key, crash-only variants share their loss-only sibling's
// entry, racing compiles of one key stay byte-identical to a serial
// store-less run, and the lossy golden survives a cold and a warm disk
// store.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/profile.h"
#include "scenario/engine.h"
#include "store/plan_store.h"

namespace wsn {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_scenario_etx_store_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void expand(const std::string& text, JobMatrix& matrix) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(text, doc, &error)) << error;
  ScenarioSpec spec;
  ASSERT_TRUE(parse_scenario_spec(doc, spec, error)) << error;
  ASSERT_TRUE(expand_jobs(std::move(spec), matrix, error)) << error;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string run_to_string(const JobMatrix& matrix, EngineConfig config,
                          const std::filesystem::path& out) {
  ScenarioEngine engine(matrix, std::move(config));
  const RunSummary summary = engine.run(out.string());
  EXPECT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.errors, 0u);
  return read_file(out);
}

/// Runs `matrix` with the aggregate profiler on and returns how often the
/// link estimator ran, plus the records through `records`.
std::uint64_t estimator_calls(const JobMatrix& matrix, EngineConfig config,
                              const std::filesystem::path& out,
                              std::string& records) {
  Profiler& profiler = Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  records = run_to_string(matrix, std::move(config), out);
  profiler.set_enabled(false);
  std::uint64_t calls = 0;
  for (const Profiler::SpanStats& span : profiler.snapshot()) {
    if (span.name == "fault.link_estimate") calls = span.count;
  }
  profiler.reset();
  return calls;
}

TEST(ScenarioEngine, EtxLearnsEachChannelOnce) {
  // {iid, Gilbert, iid + crash at the same loss} x {none, adaptive,
  // repeat-k} x 2 seeds x 2 sources, all etx on a lossy channel.
  const TempDir tmp("once");
  JobMatrix matrix;
  expand(
      "{\"name\": \"etx-once\", \"scenarios\": [{"
      "\"name\": \"etx\", \"family\": \"2D-4\", \"dims\": [6, 5],"
      "\"sources\": [0, 17], \"protocols\": [\"etx\"],"
      "\"faults\": [{\"kind\": \"iid\", \"loss\": 0.15},"
      "             {\"kind\": \"gilbert\", \"loss\": 0.15, \"burst\": 4},"
      "             {\"kind\": \"iid\", \"loss\": 0.15, \"crash_prob\": 0.1,"
      "              \"crash_horizon\": 8, \"crash_outage\": 3}],"
      "\"recovery\": [\"none\", \"adaptive\", \"repeat-k\"],"
      "\"seeds\": [3, 4]}]}",
      matrix);
  ASSERT_EQ(matrix.jobs.size(), 36u);

  EngineConfig storeless;
  storeless.workers = 1;
  std::string uncached;
  EXPECT_EQ(estimator_calls(matrix, storeless, tmp.path / "plain.jsonl",
                            uncached),
            36u);

  // One estimate per (channel, seed, source): the crash variant keys like
  // its iid sibling, and recovery never enters the key.
  PlanStore store;
  EngineConfig cached;
  cached.workers = 1;
  cached.store = &store;
  std::string stored;
  EXPECT_EQ(estimator_calls(matrix, cached, tmp.path / "store.jsonl", stored),
            2u * 2u * 2u);
  EXPECT_EQ(store.stats().compiles, 8u);
  EXPECT_EQ(stored, uncached);
}

TEST(ScenarioEngine, RacingEtxCompilesMatchTheSerialRun) {
  // One seed makes recovery the innermost axis, so the none / adaptive /
  // repeat-k jobs of one (source, channel) -- one store key, and the crash
  // variant shares it too -- sit next to each other and reach four
  // workers together.
  const TempDir tmp("race");
  JobMatrix matrix;
  expand(
      "{\"name\": \"etx-race\", \"scenarios\": [{"
      "\"name\": \"etx\", \"family\": \"2D-8\", \"dims\": [8, 6],"
      "\"sources\": [0, 13, 27, 47], \"protocols\": [\"etx\"],"
      "\"faults\": [{\"kind\": \"iid\", \"loss\": 0.2},"
      "             {\"kind\": \"iid\", \"loss\": 0.2, \"crash_prob\": 0.05},"
      "             {\"kind\": \"gilbert\", \"loss\": 0.2, \"burst\": 3}],"
      "\"recovery\": [\"none\", \"adaptive\", \"repeat-k\"],"
      "\"seeds\": [11]}]}",
      matrix);
  ASSERT_EQ(matrix.jobs.size(), 36u);

  EngineConfig serial;
  serial.workers = 1;
  serial.audit = true;
  const std::string expected =
      run_to_string(matrix, serial, tmp.path / "serial.jsonl");

  for (int round = 0; round < 3; ++round) {
    PlanStore store;
    EngineConfig racing;
    racing.workers = 4;
    racing.audit = true;
    racing.store = &store;
    EXPECT_EQ(run_to_string(matrix, racing, tmp.path / "racing.jsonl"),
              expected)
        << "round " << round;
    // 4 sources x 2 channels; a lost race compiles a key twice.
    EXPECT_GE(store.stats().compiles, 8u);
  }
}

TEST(ScenarioGolden, LossyRecordsMatchThroughADiskStore) {
  const std::filesystem::path repo(WSN_REPO_DIR);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario_file(
      (repo / "scenarios" / "lossy_golden.json").string(), spec, error))
      << error;
  JobMatrix matrix;
  ASSERT_TRUE(expand_jobs(std::move(spec), matrix, error)) << error;
  const std::string golden =
      read_file(repo / "tests" / "golden" / "lossy_golden.jsonl");
  ASSERT_FALSE(golden.empty());

  const TempDir tmp("golden");
  PlanStore::Config store_config;
  store_config.disk_dir = (tmp.path / "plans").string();

  PlanStore cold(store_config);
  EngineConfig first;
  first.workers = 4;
  first.audit = true;
  first.store = &cold;
  EXPECT_EQ(run_to_string(matrix, first, tmp.path / "cold.jsonl"), golden);
  EXPECT_GT(cold.stats().compiles, 0u);

  // A fresh store over the same directory: every plan -- ETX plans and
  // their learned quality included -- comes from disk.
  PlanStore warm(store_config);
  EngineConfig second;
  second.workers = 4;
  second.audit = true;
  second.store = &warm;
  EXPECT_EQ(run_to_string(matrix, second, tmp.path / "warm.jsonl"), golden);
  EXPECT_EQ(warm.stats().compiles, 0u);
  EXPECT_EQ(warm.stats().disk_rejects, 0u);
  EXPECT_GT(warm.stats().disk_hits, 0u);
}

}  // namespace
}  // namespace wsn
