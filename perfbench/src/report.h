#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

/// The benchmark's metric catalogue and its result lines.
///
/// Every metric the benchmark can print is declared here once, with its
/// unit: the end-to-end metrics (untraced runs), which every workload
/// reports, and the per-layer metrics (traced runs) with the end-to-end
/// metric and workload each one should move.  BENCHMARK.json
/// at the repository root lists the same names; a test holds the two
/// together.
namespace meshbench {

struct EndToEndMetric {
  std::string_view name;
  std::string_view unit;
};

struct LayerMetric {
  std::string_view name;
  std::string_view unit;
  std::string_view layer;
  std::string_view moves;      // end-to-end metric(s) and workload it moves
  std::string_view no_change;  // workloads where the prediction is no change
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();
[[nodiscard]] const std::vector<EndToEndMetric>& end_to_end_metrics();
[[nodiscard]] const std::vector<LayerMetric>& per_layer_metrics();

/// True when `name` is non-empty, starts with a letter or digit, has at
/// most 64 characters and uses only [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Operations attempted and failed, with the first few failure reasons.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // capped; failed keeps the full count

  void attempt(std::uint64_t n = 1) noexcept { attempted += n; }
  void fail(std::string why, std::uint64_t n = 1);
  void merge(Ledger other);
};

/// One run's metrics.  `set` refuses names outside the catalogue, so a
/// typo cannot invent a metric.
class Result {
 public:
  void set(std::string_view name, double value);
  /// A percentile metric; its sample count goes to the detail line.
  void set(std::string_view name, const Percentile& p);

  [[nodiscard]] bool has(std::string_view name) const;

  /// The last stdout line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string final_line(const Ledger& ledger,
                                       bool correct) const;
  /// The line before it: percentile sample counts, the per-layer map,
  /// and the first failure reasons.
  [[nodiscard]] std::string detail_line(std::string_view workload,
                                        std::uint64_t seed, bool trace,
                                        const Ledger& ledger) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::map<std::string, Percentile, std::less<>> percentiles_;
};

/// Unit of a catalogued metric; throws std::invalid_argument otherwise.
[[nodiscard]] std::string_view unit_of(std::string_view name);

}  // namespace meshbench
