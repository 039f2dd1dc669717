#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "report.h"

/// One benchmark workload: a set of inputs generated from the seed and the
/// path through the program they are driven along.
///
/// main.cpp runs a workload in phases:
///   1. setup()          -- timed and repeated on fresh instances, before
///                          the warm-up and again after measure(): the
///                          program-side set-up a user pays before work;
///   2. prepare_checks() -- once, untimed: reference outputs to check by;
///   3. warmup()         -- one untimed pass, so no timed number includes
///                          the process's first pass;
///   4. measure()        -- untraced, for the run's seconds: end-to-end
///      or trace()       -- untraced passes, one traced pass and a
///                          single-threaded replay: per-layer metrics.
namespace meshbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // directory for result files, inside the checkout
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual void prepare_checks() = 0;
  virtual void warmup(Ledger& ledger) = 0;
  virtual void measure(double seconds, Ledger& ledger, Result& result) = 0;
  virtual void trace(double seconds, Ledger& ledger, Result& result) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_lossy_arq(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_service_mix(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_bulk_1m(const Options& options);

/// Seconds elapsed since `start` on the steady clock.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The i-th value of a splitmix64 stream seeded by `seed` -- how every
/// workload turns the benchmark seed into its inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

}  // namespace meshbench
