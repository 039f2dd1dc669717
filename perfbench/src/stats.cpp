#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace meshbench {

std::size_t samples_beyond(double q, std::size_t n) noexcept {
  // The epsilon keeps exact products such as 0.1 * 100 from flooring to 9.
  return static_cast<std::size_t>(
      std::floor((1.0 - q) * static_cast<double>(n) + 1e-9));
}

std::optional<Percentile> guarded_percentile(std::vector<double> samples,
                                             double q) {
  const std::size_t n = samples.size();
  const std::size_t beyond = samples_beyond(q, n);
  if (n == 0 || beyond < kMinSamplesBeyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return Percentile{samples[lo] + frac * (samples[hi] - samples[lo]), n,
                    beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace meshbench
