#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// BENCH documents: the one schema every bench emitter writes, its reader
/// and writer, and the comparator that doubles as the CI regression gate.
///
///   {"schema": "meshbcast.bench", "version": 1, "bench": "<emitter>",
///    "results": [{"name": "<row key>", "<metric>": <number>, ...}, ...]}
///
/// Rows are keyed by `name`, which must be unique within a document.
/// Every other numeric member of a row is a metric; run parameters
/// (`workers`, `jobs`, `connections`, `rate`) ride along as ordinary
/// members.  A metric's direction comes from its name: `*per_sec` and
/// `*_rate` are higher-is-better, `*_ms` / `*_ns` and anything naming a
/// `shed` lower-is-better, everything else directionless.  A metric named
/// `*_count` is an exact work count (simulations per compile, say): it
/// depends on no host, so it is directionless and gates at tolerance 0 --
/// any change, up or down, reads "changed" and fails.
///
/// The comparison reads as "how did B move relative to A" -- A is the
/// baseline.  A metric moves by more than the tolerance band against its
/// direction => "regressed".  A metric *gates* when it is an exact count,
/// or higher-is-better and not a `_min` / `_max` spread column; the gate
/// fails on a gated metric that regressed, changed (an exact count) or
/// vanished from its row, and on any document
/// that cannot be compared at all (unreadable, wrong schema, duplicate
/// row names, a baseline with no current file).  Latency and shed rate
/// never gate: wall-clock tails wobble hardest on shared runners, and a
/// shed is admission control working.  A missing baseline only seeds the
/// trajectory (a note), and a row present on one side only is reported,
/// never failed -- adding or retiring a bench must not break CI.
namespace wsn {

struct BenchRow {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;  // document order

  /// The metric's value, or nullptr when the row has no such member.
  [[nodiscard]] const double* find(std::string_view metric) const noexcept;
};

struct BenchDoc {
  std::string bench;  // the emitting binary
  std::vector<BenchRow> rows;
};

/// Parses and validates one BENCH document.  On failure returns false with
/// the reason in `error` (unparseable JSON, schema other than
/// meshbcast.bench version 1, a row without a name, a duplicate name).
[[nodiscard]] bool parse_bench_doc(std::string_view text, BenchDoc& doc,
                                   std::string& error);

/// Writes `doc` to `path`; returns false (with a stderr note) on I/O
/// error.  Numbers round-trip bit-for-bit; a NaN is written as 0.
bool write_bench_doc(const std::string& path, const BenchDoc& doc);

struct DiffOptions {
  /// Fractional band treated as noise: |b/a - 1| <= tolerance reads as
  /// "equal".  0.05 suits back-to-back runs on one machine; CI gates
  /// fresh runs against committed baselines at 0.6.
  double tolerance = 0.05;
};

struct DiffMetric {
  std::string file;    // baseline file name
  std::string entry;   // row name ("simulate/2D-4", "workers=2")
  std::string metric;  // "cold_jobs_per_sec", "p95_ms", ..., "(entry)"
  double a = 0.0;
  double b = 0.0;
  double ratio = 0.0;  // b / a (0 when a is 0)
  int direction = 0;   // +1 higher-is-better, -1 lower-is-better, 0 neutral
  bool gated = false;
  /// "equal", "improved", "regressed", "changed" (neutral direction),
  /// "only-a" or "only-b" (entry or metric present on one side).
  std::string verdict;

  [[nodiscard]] bool fails_gate() const noexcept {
    return gated && (verdict == "regressed" || verdict == "changed" ||
                     verdict == "only-a");
  }
};

struct DiffReport {
  std::vector<DiffMetric> metrics;
  std::vector<std::string> failures;  // documents that could not be compared
  std::vector<std::string> notes;

  [[nodiscard]] std::size_t count(std::string_view verdict) const noexcept;
  [[nodiscard]] std::size_t improved() const noexcept {
    return count("improved");
  }
  [[nodiscard]] std::size_t regressed() const noexcept {
    return count("regressed");
  }
  [[nodiscard]] std::size_t gate_regressions() const noexcept;
  [[nodiscard]] bool passed() const noexcept {
    return failures.empty() && gate_regressions() == 0;
  }
};

/// Diffs two documents row by row, metric by metric.
[[nodiscard]] DiffReport diff_bench_docs(const BenchDoc& a, const BenchDoc& b,
                                         const DiffOptions& options = {});

/// File variant: a missing baseline `path_a` is a note; every other
/// unreadable or invalid document is a failure.
[[nodiscard]] DiffReport diff_bench_files(const std::string& path_a,
                                          const std::string& path_b,
                                          const DiffOptions& options = {});

/// Directory variant: diffs every `BENCH_*.json` found in either directory
/// against its namesake, concatenating the per-file reports.
[[nodiscard]] DiffReport diff_bench_dirs(const std::string& dir_a,
                                         const std::string& dir_b,
                                         const DiffOptions& options = {});

/// `meshbcast.bench.diff` v2 JSON (the CI artifact).
void write_diff_json(std::ostream& out, const DiffReport& report,
                     const DiffOptions& options);

/// Human-readable table: one line per metric, verdict last, then the
/// failures, the notes and the gate verdict.
[[nodiscard]] std::string diff_text(const DiffReport& report);

}  // namespace wsn
