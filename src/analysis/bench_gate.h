#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"

/// Bench regression gate: compares a current `meshbcast.bench` /
/// `.scenario` / `.service` document against a committed baseline and
/// reports per-metric throughput ratios.  The gate is deliberately
/// one-sided and generous -- CI runners are noisy shared machines, so
/// only a large drop in a higher-is-better metric (runs/sec, jobs/sec,
/// cache hit rate) fails the gate; latency percentiles ride along in the
/// report for human eyes but never gate (they double-count the same
/// signal and their tails wobble hardest on loaded runners).
///
/// Comparison is by entry key: `name` for meshbcast.bench results,
/// `workers=N` for the scenario bench.  A baseline entry missing from the
/// current run is a note (or a regression under `strict`); a new entry in
/// the current run is always just a note -- adding benchmarks must never
/// fail the gate.
namespace wsn {

struct GateOptions {
  /// Allowed fractional drop: current >= baseline * (1 - tolerance)
  /// passes.  0.5 tolerates half the baseline throughput -- wide enough
  /// for runner noise, tight enough to catch an accidental O(n) -> O(n^2).
  double tolerance = 0.5;
  /// Treat a baseline entry missing from the current document as a
  /// regression instead of a note.
  bool strict = false;
};

struct GateMetric {
  std::string entry;   // result key ("simulate/2D-4", "workers=2")
  std::string metric;  // "runs_per_sec", "cold_jobs_per_sec", ...
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  // current / baseline (0 when baseline is 0)
  bool gated = false;  // participates in pass/fail
  bool regression = false;
};

struct GateReport {
  std::string bench;  // from the current document
  std::vector<GateMetric> metrics;
  std::vector<std::string> notes;

  [[nodiscard]] std::size_t regressions() const noexcept {
    std::size_t count = 0;
    for (const GateMetric& m : metrics) {
      if (m.regression) count += 1;
    }
    return count;
  }
  [[nodiscard]] bool passed() const noexcept { return regressions() == 0; }
};

/// True when `doc` is one of the bench documents the gate and the diff
/// compare (`meshbcast.bench`, `.scenario`, `.service`); `schema`
/// receives the document's schema string either way.
[[nodiscard]] bool is_bench_schema(const JsonValue& doc, std::string& schema);

/// Compares two parsed bench documents.  Unknown schemas produce a
/// report with a note and no metrics (the gate does not guess).
[[nodiscard]] GateReport compare_bench_docs(const JsonValue& baseline,
                                            const JsonValue& current,
                                            const GateOptions& options = {});

/// File variant; a missing or unparseable file yields a note-only report
/// (missing baselines seed the trajectory, they do not fail it) except a
/// missing CURRENT file under `strict`, which is a regression.
[[nodiscard]] GateReport gate_bench_files(const std::string& baseline_path,
                                          const std::string& current_path,
                                          const GateOptions& options = {});

/// Merges per-file reports into one (concatenating metrics and notes).
[[nodiscard]] GateReport merge_reports(std::vector<GateReport> reports);

/// `meshbcast.bench.gate` JSON diff report (the CI artifact).
void write_gate_json(std::ostream& out, const GateReport& report,
                     const GateOptions& options);

/// Human-readable table for the CI log.
[[nodiscard]] std::string gate_text(const GateReport& report);

}  // namespace wsn
