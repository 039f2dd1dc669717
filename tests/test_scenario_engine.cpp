// ScenarioEngine: streaming JSONL emission, the checkpoint/resume
// contract (valid prefix kept, corrupt tail redone, fingerprint mismatch
// refused), cooperative cancellation, error-record surfacing, and the
// observability mirrors (manifest, metrics).

#include "scenario/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace wsn {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_scenario_engine_" + tag)) {
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

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// A small, fast matrix: 3x2 mesh, all six sources, two protocols.
constexpr const char* kSmallSpec =
    "{\"name\": \"engine-test\", \"scenarios\": [{"
    "\"name\": \"small\", \"family\": \"2D-4\", \"dims\": [3, 2],"
    "\"sources\": \"all\", \"protocols\": [\"paper\", \"ideal\"]}]}";

TEST(ScenarioEngine, EmitsHeaderAndOrderedRecords) {
  const TempDir tmp("ordered");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);

  ScenarioEngine engine(matrix, {});
  const RunSummary summary = engine.run((tmp.path / "out.jsonl").string());
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_FALSE(summary.cancelled);
  EXPECT_EQ(summary.jobs_total, 12u);
  EXPECT_EQ(summary.jobs_run, 12u);
  EXPECT_EQ(summary.errors, 0u);
  EXPECT_EQ(summary.emitted, 12u);

  const auto lines = lines_of(read_file(tmp.path / "out.jsonl"));
  ASSERT_EQ(lines.size(), 13u);  // header + one record per job
  EXPECT_EQ(lines[0], engine.header_line());
  JsonValue header;
  ASSERT_TRUE(parse_json(lines[0], header));
  EXPECT_EQ(header.string_or("schema", ""), "meshbcast.scenario.results");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    JsonValue record;
    ASSERT_TRUE(parse_json(lines[i], record)) << lines[i];
    EXPECT_DOUBLE_EQ(record.number_or("job", -1.0),
                     static_cast<double>(i - 1));
    EXPECT_EQ(record.string_or("status", ""), "ok");
    EXPECT_EQ(record.string_or("scenario", ""), "small");
  }

  // The per-scenario envelope folded during the run matches the records.
  ASSERT_EQ(summary.envelopes.size(), 1u);
  const ScenarioEnvelope& env = summary.envelopes[0];
  EXPECT_EQ(env.scenario, "small");
  EXPECT_EQ(env.jobs, 12u);
  EXPECT_TRUE(env.all_reached);
  EXPECT_LE(env.best_energy, env.worst_energy);
  EXPECT_NE(env.best_source, kInvalidNode);
}

TEST(ScenarioEngine, FingerprintMismatchOnResumeIsAHardError) {
  const TempDir tmp("mismatch");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  {
    ScenarioEngine engine(matrix, {});
    ASSERT_TRUE(engine.run(out).ok);
  }

  // A different spec (one more seed) produces a different fingerprint; a
  // resume against the old file must refuse rather than mix result sets.
  JobMatrix other;
  expand(
      "{\"name\": \"engine-test\", \"scenarios\": [{"
      "\"name\": \"small\", \"family\": \"2D-4\", \"dims\": [3, 2],"
      "\"sources\": \"all\", \"protocols\": [\"paper\", \"ideal\"],"
      "\"seeds\": [1, 2]}]}",
      other);
  EngineConfig config;
  config.resume = true;
  ScenarioEngine engine(other, config);
  const RunSummary summary = engine.run(out);
  EXPECT_FALSE(summary.ok);
  EXPECT_NE(summary.error.find("fingerprint"), std::string::npos)
      << summary.error;
}

TEST(ScenarioEngine, ResumeKeepsValidPrefixAndRedoesCorruptTail) {
  const TempDir tmp("corrupt");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine golden_engine(matrix, {});
  ASSERT_TRUE(golden_engine.run(out).ok);
  const std::string golden = read_file(out);
  const auto lines = lines_of(golden);
  ASSERT_EQ(lines.size(), 13u);

  // Keep header + 5 records, then a torn write: half a record followed by
  // a record that would otherwise be valid.  Everything from the tear on
  // is stale and must be redone.
  {
    std::ofstream damaged(out, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < 6; ++i) damaged << lines[i] << "\n";
    damaged << lines[6].substr(0, lines[6].size() / 2);
    damaged << "\n" << lines[7] << "\n";
  }

  EngineConfig config;
  config.resume = true;
  ScenarioEngine engine(matrix, config);
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_TRUE(summary.resumed);
  EXPECT_EQ(summary.jobs_skipped, 5u);
  EXPECT_EQ(summary.jobs_run, 7u);
  EXPECT_EQ(read_file(out), golden);
}

TEST(ScenarioEngine, ResumeWithCorruptHeaderStartsFresh) {
  const TempDir tmp("badheader");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine golden_engine(matrix, {});
  ASSERT_TRUE(golden_engine.run(out).ok);
  const std::string golden = read_file(out);

  {
    std::ofstream damaged(out, std::ios::binary | std::ios::trunc);
    damaged << "not json at all\n";
  }
  EngineConfig config;
  config.resume = true;
  ScenarioEngine engine(matrix, config);
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_FALSE(summary.resumed);
  EXPECT_EQ(summary.jobs_run, 12u);
  EXPECT_EQ(read_file(out), golden);
}

TEST(ScenarioEngine, ResumeOfCompleteRunIsANoOp) {
  const TempDir tmp("complete");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine first(matrix, {});
  ASSERT_TRUE(first.run(out).ok);
  const std::string golden = read_file(out);

  EngineConfig config;
  config.resume = true;
  ScenarioEngine engine(matrix, config);
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_TRUE(summary.resumed);
  EXPECT_EQ(summary.jobs_skipped, 12u);
  EXPECT_EQ(summary.jobs_run, 0u);
  EXPECT_EQ(read_file(out), golden);
}

TEST(ScenarioEngine, EmptyMatrixEntrySurfacesAsErrorRecord) {
  const TempDir tmp("errorjob");
  JobMatrix matrix;
  expand(
      "{\"scenarios\": [{\"name\": \"void\", \"family\": \"2D-4\","
      " \"dims\": [3, 2], \"sources\": []}]}",
      matrix);

  ScenarioEngine engine(matrix, {});
  const RunSummary summary = engine.run((tmp.path / "out.jsonl").string());
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.jobs_total, 1u);
  EXPECT_EQ(summary.errors, 1u);

  const auto lines = lines_of(read_file(tmp.path / "out.jsonl"));
  ASSERT_EQ(lines.size(), 2u);
  JsonValue record;
  ASSERT_TRUE(parse_json(lines[1], record));
  EXPECT_EQ(record.string_or("status", ""), "error");
  EXPECT_NE(record.string_or("error", "").find("empty job matrix"),
            std::string::npos);

  ASSERT_EQ(summary.envelopes.size(), 1u);
  EXPECT_EQ(summary.envelopes[0].errors, 1u);
  EXPECT_EQ(summary.envelopes[0].jobs, 1u);
  // No ok record ever folded: the envelope extrema stay at their inits.
  EXPECT_EQ(summary.envelopes[0].best_source, kInvalidNode);
}

TEST(ScenarioEngine, CancellationLeavesAValidResumablePrefix) {
  const TempDir tmp("cancel");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string golden_path = (tmp.path / "golden.jsonl").string();
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine golden_engine(matrix, {});
  ASSERT_TRUE(golden_engine.run(golden_path).ok);
  const std::string golden = read_file(golden_path);

  // Cancel as soon as the third record lands.  One worker makes the cut
  // deterministic: the cancel takes effect before the next pop, so the
  // file holds exactly the records emitted so far -- a clean prefix.
  EngineConfig config;
  config.workers = 1;
  ScenarioEngine* handle = nullptr;
  config.on_emit = [&handle](std::size_t emitted) {
    if (emitted >= 3) handle->request_cancel();
  };
  ScenarioEngine engine(matrix, config);
  handle = &engine;
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_TRUE(summary.cancelled);
  EXPECT_GE(summary.emitted, 3u);
  EXPECT_LT(summary.emitted, 12u);
  const std::string partial = read_file(out);
  EXPECT_EQ(partial, golden.substr(0, partial.size()));

  EngineConfig resume_config;
  resume_config.resume = true;
  ScenarioEngine resumed(matrix, resume_config);
  const RunSummary rest = resumed.run(out);
  ASSERT_TRUE(rest.ok) << rest.error;
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.emitted, 12u);
  EXPECT_EQ(read_file(out), golden);
}

TEST(ScenarioEngine, ManifestMirrorsProgress) {
  const TempDir tmp("manifest");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine engine(matrix, {});
  ASSERT_TRUE(engine.run(out).ok);

  JsonValue manifest;
  std::string error;
  ASSERT_TRUE(parse_json(read_file(out + ".manifest"), manifest, &error))
      << error;
  EXPECT_EQ(manifest.string_or("schema", ""),
            "meshbcast.scenario.checkpoint");
  EXPECT_DOUBLE_EQ(manifest.number_or("emitted", -1.0), 12.0);
  EXPECT_DOUBLE_EQ(manifest.number_or("jobs", -1.0), 12.0);
  EXPECT_TRUE(manifest.bool_or("complete", false));
}

// Complete results lines in the file right now (a concurrent writer may
// have a partial line buffered out; it does not count).
std::size_t records_on_disk(const std::string& path) {
  const std::string text = read_file(path);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return lines == 0 ? 0 : lines - 1;  // minus the header
}

TEST(ScenarioEngine, ManifestNeverLeadsTheResultsFile) {
  // The manifest is rewritten outside the collector lock; it may trail
  // the results file but must never claim a record that is not on disk,
  // at any emission -- including the ones around a mid-run cancel.
  const TempDir tmp("manifest_lag");
  JobMatrix matrix;
  expand(
      "{\"name\": \"manifest-lag\", \"scenarios\": [{"
      "\"name\": \"sweep\", \"family\": \"2D-4\", \"dims\": [6, 5],"
      "\"sources\": \"all\", \"protocols\": [\"paper\", \"flooding\"]}]}",
      matrix);
  const std::size_t jobs = matrix.jobs.size();
  ASSERT_EQ(jobs, 60u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    const std::string out =
        (tmp.path / (std::to_string(workers) + "-workers.jsonl")).string();
    const std::string manifest_path = out + ".manifest";
    std::atomic<std::size_t> callbacks{0};
    std::atomic<std::size_t> checked{0};
    std::atomic<bool> manifest_led{false};
    const auto check = [&](std::size_t /*emitted*/) {
      callbacks.fetch_add(1);
      JsonValue manifest;
      // With several workers another thread may be mid-rewrite; a torn
      // read is allowed (the manifest is advisory), a lie is not.
      if (!parse_json(read_file(manifest_path), manifest)) return;
      const double claimed = manifest.number_or("emitted", -1.0);
      const std::size_t on_disk = records_on_disk(out);
      if (claimed < 0.0 || claimed > static_cast<double>(on_disk)) {
        manifest_led.store(true);
      }
      checked.fetch_add(1);
    };

    // A cancelled run first, then a resumed run to completion.
    EngineConfig config;
    config.workers = workers;
    ScenarioEngine* handle = nullptr;
    config.on_emit = [&](std::size_t emitted) {
      check(emitted);
      if (emitted >= jobs / 2) handle->request_cancel();
    };
    ScenarioEngine engine(matrix, config);
    handle = &engine;
    const RunSummary partial = engine.run(out);
    ASSERT_TRUE(partial.ok) << partial.error;
    EXPECT_TRUE(partial.cancelled);
    if (workers == 1) {
      // One worker makes the cut deterministic: the cancel lands before
      // the next pop.  With more, a stalled job can hold emission back
      // until every later job is done, and the cancel comes too late.
      EXPECT_LT(partial.emitted, jobs);
    }

    JsonValue manifest;
    ASSERT_TRUE(parse_json(read_file(manifest_path), manifest));
    EXPECT_DOUBLE_EQ(manifest.number_or("emitted", -1.0),
                     static_cast<double>(partial.emitted));
    EXPECT_EQ(manifest.bool_or("complete", false), partial.emitted == jobs);
    EXPECT_EQ(records_on_disk(out), partial.emitted);

    EngineConfig resume;
    resume.workers = workers;
    resume.resume = true;
    resume.on_emit = check;
    ScenarioEngine resumed(matrix, resume);
    const RunSummary rest = resumed.run(out);
    ASSERT_TRUE(rest.ok) << rest.error;
    EXPECT_EQ(rest.emitted, jobs);

    EXPECT_FALSE(manifest_led.load());
    EXPECT_GT(callbacks.load(), 0u);
    if (workers == 1) {
      EXPECT_EQ(checked.load(), callbacks.load());
    }
    ASSERT_TRUE(parse_json(read_file(manifest_path), manifest));
    EXPECT_DOUBLE_EQ(manifest.number_or("emitted", -1.0),
                     static_cast<double>(jobs));
    EXPECT_TRUE(manifest.bool_or("complete", false));
    EXPECT_EQ(records_on_disk(out), jobs);
  }
}

TEST(ScenarioEngine, MetricsMirrorCountsJobs) {
  const TempDir tmp("metrics");
  JobMatrix matrix;
  // One good entry plus one empty entry: 12 completed, 1 failed.
  expand(
      "{\"name\": \"engine-test\", \"scenarios\": ["
      "{\"name\": \"small\", \"family\": \"2D-4\", \"dims\": [3, 2],"
      " \"sources\": \"all\", \"protocols\": [\"paper\", \"ideal\"]},"
      "{\"name\": \"void\", \"family\": \"2D-4\", \"dims\": [3, 2],"
      " \"sources\": []}]}",
      matrix);

  MetricsRegistry metrics;
  EngineConfig config;
  config.metrics = &metrics;
  {
    ScenarioEngine engine(matrix, config);
    ASSERT_TRUE(engine.run((tmp.path / "a.jsonl").string()).ok);
  }
  EXPECT_EQ(metrics.counter("scenario.jobs_completed").value(), 12u);
  EXPECT_EQ(metrics.counter("scenario.jobs_failed").value(), 1u);
  EXPECT_EQ(metrics.counter("scenario.jobs_skipped").value(), 0u);

  // A resume of the finished run only touches the skipped counter.
  config.resume = true;
  ScenarioEngine engine(matrix, config);
  ASSERT_TRUE(engine.run((tmp.path / "a.jsonl").string()).ok);
  EXPECT_EQ(metrics.counter("scenario.jobs_completed").value(), 12u);
  EXPECT_EQ(metrics.counter("scenario.jobs_skipped").value(), 13u);
}

TEST(ScenarioEngine, TraceDirCapturesPerJobEventStreams) {
  const TempDir tmp("traces");
  JobMatrix matrix;
  const std::string trace_dir = (tmp.path / "traces").string();
  expand(
      "{\"scenarios\": [{\"name\": \"traced\", \"family\": \"2D-4\","
      " \"dims\": [3, 2], \"protocols\": [\"paper\"],"
      " \"outputs\": {\"trace_dir\": \"" + json_escape(trace_dir) +
          "\"}}]}",
      matrix);

  ScenarioEngine engine(matrix, {});
  ASSERT_TRUE(engine.run((tmp.path / "out.jsonl").string()).ok);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(trace_dir) / "job_0.jsonl"));
}

TEST(ScenarioEngine, ErrorRecordsStillCountTowardResume) {
  // A matrix mixing an error job and real jobs resumes cleanly: the error
  // record is part of the prefix like any other record.
  const TempDir tmp("errresume");
  JobMatrix matrix;
  expand(
      "{\"name\": \"engine-test\", \"scenarios\": ["
      "{\"name\": \"void\", \"family\": \"2D-4\", \"dims\": [3, 2],"
      " \"sources\": []},"
      "{\"name\": \"small\", \"family\": \"2D-4\", \"dims\": [3, 2],"
      " \"sources\": \"all\", \"protocols\": [\"paper\"]}]}",
      matrix);
  const std::string out = (tmp.path / "out.jsonl").string();

  ScenarioEngine first(matrix, {});
  const RunSummary full = first.run(out);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.jobs_total, 7u);
  EXPECT_EQ(full.errors, 1u);
  const std::string golden = read_file(out);

  // Drop the last two lines and resume.
  const auto lines = lines_of(golden);
  {
    std::ofstream damaged(out, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i + 2 < lines.size(); ++i) {
      damaged << lines[i] << "\n";
    }
  }
  EngineConfig config;
  config.resume = true;
  ScenarioEngine engine(matrix, config);
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.jobs_skipped, 5u);
  EXPECT_EQ(summary.errors, 1u);  // error record in the kept prefix
  EXPECT_EQ(read_file(out), golden);
}

TEST(ScenarioEngine, EtxAdaptiveJobsEmitRetryFieldsAndAuditClean) {
  // The lossy workload end-to-end: etx planning + adaptive ARQ under a
  // Gilbert-Elliott channel, audited in-stream.  Every job must succeed,
  // adaptive records must carry the retry accounting, and the lossy-mode
  // audit checks must pass on every swept job (the tentpole acceptance).
  const TempDir tmp("etxarq");
  JobMatrix matrix;
  expand(
      "{\"name\": \"lossy\", \"scenarios\": [{"
      "\"name\": \"etx-arq\", \"family\": \"2D-4\", \"dims\": [6, 6],"
      "\"sources\": [0], \"protocols\": [\"etx\", \"paper\"],"
      "\"faults\": [{\"kind\": \"gilbert\", \"loss\": 0.2, \"burst\": 4}],"
      "\"recovery\": [\"adaptive\", \"repeat-k\"],"
      "\"arq_budget\": 64, \"arq_rounds\": 6, \"seeds\": [1, 2]}]}",
      matrix);
  ASSERT_EQ(matrix.jobs.size(), 8u);

  EngineConfig config;
  config.workers = 2;
  config.audit = true;
  ScenarioEngine engine(matrix, config);
  const std::string out = (tmp.path / "out.jsonl").string();
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.errors, 0u);

  const auto lines = lines_of(read_file(out));
  ASSERT_EQ(lines.size(), 1u + matrix.jobs.size());
  std::size_t adaptive_records = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& record = lines[i];
    EXPECT_NE(record.find("\"status\":\"ok\""), std::string::npos) << record;
    EXPECT_NE(record.find("\"audit_violations\":0"), std::string::npos)
        << record;
    if (record.find("\"recovery\":\"adaptive\"") != std::string::npos) {
      adaptive_records += 1;
      EXPECT_NE(record.find("\"retries\":"), std::string::npos) << record;
      EXPECT_NE(record.find("\"arq_rounds\":"), std::string::npos) << record;
    }
  }
  EXPECT_EQ(adaptive_records, 4u);
}

TEST(ScenarioEngine, AdaptiveArqSurvivesHelpersSilencedByCrashes) {
  // Permanent crashes can silence a relay's last scheduled transmission
  // after the last one that fired; adaptive ARQ used to pick that relay as
  // a helper and abort on a non-increasing retry offset.  The first of
  // these jobs hit exactly that.
  JobMatrix matrix;
  expand(
      "{\"name\": \"arq-crash\", \"scenarios\": [{"
      "\"name\": \"crashy\", \"family\": \"2D-8\", \"dims\": [8, 6],"
      "\"sources\": \"center\", \"protocols\": [\"paper\", \"etx\"],"
      "\"faults\": [{\"kind\": \"gilbert\", \"loss\": 0.1, \"burst\": 3,"
      "\"crash_prob\": 0.1}],"
      "\"recovery\": [\"adaptive\"], \"seeds\": [5], \"repeats\": 2}]}",
      matrix);
  ASSERT_EQ(matrix.jobs.size(), 4u);
  Simulator sim;
  for (const ScenarioJob& job : matrix.jobs) {
    const std::string record =
        run_scenario_job(matrix, job, sim, nullptr, true);
    EXPECT_NE(record.find("\"status\":\"ok\""), std::string::npos) << record;
    EXPECT_NE(record.find("\"retries\":"), std::string::npos) << record;
    EXPECT_EQ(record.find("\"audit_failed\""), std::string::npos) << record;
  }
}

TEST(ScenarioEngine, WatchdogResolvesStalledJobsIntoErrorRecords) {
  // Satellite (a): a stalled job must become an error record carrying the
  // elapsed time and stage -- emission proceeds past it, the run
  // completes, and only the stalled job is affected.
  const TempDir tmp("watchdog");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);  // 12 tiny jobs
  const std::size_t stalled = 3;

  EngineConfig config;
  config.workers = 2;
  config.job_timeout_ms = 250;
  config.before_job = [&](const ScenarioJob& job) {
    if (job.index == stalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
  };
  MetricsRegistry metrics;
  config.metrics = &metrics;
  ScenarioEngine engine(matrix, config);
  const std::string out = (tmp.path / "out.jsonl").string();
  const RunSummary summary = engine.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.emitted, matrix.jobs.size());
  EXPECT_GE(summary.errors, 1u);
  EXPECT_GE(metrics.counter("scenario.jobs_timed_out").value(), 1u);

  const auto lines = lines_of(read_file(out));
  ASSERT_EQ(lines.size(), 1u + matrix.jobs.size());
  const std::string& record = lines[1 + stalled];
  EXPECT_NE(record.find("\"status\":\"error\""), std::string::npos) << record;
  EXPECT_NE(record.find("watchdog"), std::string::npos) << record;
  EXPECT_NE(record.find("\"elapsed_ms\":"), std::string::npos) << record;
  EXPECT_NE(record.find("\"stage\":\"plan\""), std::string::npos) << record;
  // The stalled worker's late real result was discarded, not emitted.
  EXPECT_EQ(record.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ScenarioEngine, WatchdogIsInertWhenNothingStalls) {
  // With the watchdog armed but no stall, the results file is
  // byte-identical to a run without it -- the deadline is pure policy.
  const TempDir tmp("watchdog_inert");
  JobMatrix matrix;
  expand(kSmallSpec, matrix);

  ScenarioEngine plain(matrix, {});
  const std::string golden_path = (tmp.path / "golden.jsonl").string();
  ASSERT_TRUE(plain.run(golden_path).ok);

  EngineConfig config;
  config.job_timeout_ms = 60000;
  ScenarioEngine guarded(matrix, config);
  const std::string out = (tmp.path / "out.jsonl").string();
  const RunSummary summary = guarded.run(out);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.errors, 0u);
  EXPECT_EQ(read_file(out), read_file(golden_path));
}

}  // namespace
}  // namespace wsn
