#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_doc.h"

/// Self-timing for the BENCH_*.json emitters: `measure` times a callable
/// with a fixed warmup, collects per-iteration wall times and returns one
/// row of the meshbcast.bench document (analysis/bench_doc.h, schema in
/// EXPERIMENTS.md) with runs/sec plus mean/p50/p95 -- enough to catch both
/// mean regressions and tail wobble:
///
///   {"name": "simulate/2D-4", "iterations": 64, "runs_per_sec": 10443.2,
///    "mean_ms": 0.0957, "p50_ms": 0.0951, "p95_ms": 0.0987}
namespace wsn::bench {

/// `index` in [0, 1]; linear interpolation between order statistics.
inline double percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_ms.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

/// Runs `fn` until both `min_iterations` and `min_seconds` are met
/// (after one untimed warmup call) and folds the per-iteration wall
/// times into a bench row.
template <typename Fn>
BenchRow measure(std::string name, Fn&& fn, std::size_t min_iterations = 16,
                 double min_seconds = 0.2,
                 std::size_t max_iterations = 4096) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup

  std::vector<double> times_ms;
  double total_s = 0.0;
  while ((times_ms.size() < min_iterations || total_s < min_seconds) &&
         times_ms.size() < max_iterations) {
    const auto start = clock::now();
    fn();
    const std::chrono::duration<double> elapsed = clock::now() - start;
    times_ms.push_back(elapsed.count() * 1e3);
    total_s += elapsed.count();
  }

  double sum = 0.0;
  for (double t : times_ms) sum += t;
  const auto iterations = static_cast<double>(times_ms.size());
  std::sort(times_ms.begin(), times_ms.end());
  return {std::move(name),
          {{"iterations", iterations},
           {"runs_per_sec", total_s > 0.0 ? iterations / total_s : 0.0},
           {"mean_ms", sum / iterations},
           {"p50_ms", percentile(times_ms, 0.50)},
           {"p95_ms", percentile(times_ms, 0.95)}}};
}

}  // namespace wsn::bench
