#pragma once

#include <cstddef>
#include <optional>
#include <vector>

/// Sample statistics for the benchmark's own measurements.
namespace meshbench {

/// A percentile together with the sample count it was computed from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // samples the percentile was taken over
  std::size_t beyond = 0;   // samples strictly past the percentile's rank
};

/// Samples a percentile must have past its rank before it is reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples past the q-quantile's rank in `n` samples: floor((1 - q) * n).
[[nodiscard]] std::size_t samples_beyond(double q, std::size_t n) noexcept;

/// The q-quantile (q in (0, 1)) of `samples` by linear interpolation
/// between closest ranks, or nothing when fewer than kMinSamplesBeyond
/// samples lie past it -- a p90 needs at least 100 samples, a p50 20.
[[nodiscard]] std::optional<Percentile> guarded_percentile(
    std::vector<double> samples, double q);

/// Median of `values` (the mean of the middle pair for even counts).
/// Requires a non-empty vector.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace meshbench
