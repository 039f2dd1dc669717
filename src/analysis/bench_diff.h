#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"

/// Side-by-side bench comparison: every numeric metric of two
/// `meshbcast.bench` / `.scenario` / `.service` documents (the schemas
/// `is_bench_schema` in analysis/bench_gate.h accepts), with a
/// tolerance-aware, direction-aware verdict per metric.
///
/// Where the bench *gate* (analysis/bench_gate.h) asks one question --
/// "did a gated throughput metric collapse?" -- the diff answers the
/// development question: which metrics moved, by how much, and in which
/// direction.  Direction is inferred from the metric name: `*_per_sec`
/// and `*rate` are higher-is-better, `*_ms` / `*_ns` and the service
/// bench's `shed_rate` lower-is-better;
/// anything else (workers, jobs, runs) is neutral and only flagged when
/// it changed at all.  Nothing here fails CI by itself; `bench_diff
/// --fail-on-regression` opts in.
namespace wsn {

struct DiffOptions {
  /// Fractional band treated as noise: |b/a - 1| <= tolerance reads as
  /// "equal".  0.05 suits back-to-back runs on one machine; widen it for
  /// cross-machine comparisons.
  double tolerance = 0.05;
};

struct DiffMetric {
  std::string entry;   // result key ("simulate/2D-4", "workers=2")
  std::string metric;  // "cold_jobs_per_sec", "p95_ms", ...
  double a = 0.0;
  double b = 0.0;
  double ratio = 0.0;  // b / a (0 when a is 0)
  int direction = 0;   // +1 higher-is-better, -1 lower-is-better, 0 neutral
  /// "equal", "improved", "regressed", "changed" (neutral direction),
  /// "only-a" or "only-b" (entry or metric present on one side).
  std::string verdict;
};

struct DiffReport {
  std::string bench_a;
  std::string bench_b;
  std::vector<DiffMetric> metrics;
  std::vector<std::string> notes;

  [[nodiscard]] std::size_t count(std::string_view verdict) const noexcept {
    std::size_t n = 0;
    for (const DiffMetric& m : metrics) {
      if (m.verdict == verdict) n += 1;
    }
    return n;
  }
  [[nodiscard]] std::size_t improved() const noexcept {
    return count("improved");
  }
  [[nodiscard]] std::size_t regressed() const noexcept {
    return count("regressed");
  }
};

/// Diffs two parsed bench documents.  Schema mismatches produce a
/// note-only report.
[[nodiscard]] DiffReport diff_bench_docs(const JsonValue& a,
                                         const JsonValue& b,
                                         const DiffOptions& options = {});

/// File variant; unreadable files produce a note-only report.
[[nodiscard]] DiffReport diff_bench_files(const std::string& path_a,
                                          const std::string& path_b,
                                          const DiffOptions& options = {});

/// `meshbcast.bench.diff` v1 JSON.
void write_diff_json(std::ostream& out, const DiffReport& report,
                     const DiffOptions& options);

/// Human-readable table: one line per metric, verdict last.
[[nodiscard]] std::string diff_text(const DiffReport& report);

}  // namespace wsn
