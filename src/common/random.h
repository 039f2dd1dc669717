#pragma once

#include <array>
#include <cstdint>

/// Deterministic pseudo-random generation for the stochastic baselines
/// (probabilistic gossip, flooding jitter, random-geometric topology).
///
/// The paper's own protocols are fully deterministic; randomness only enters
/// through the comparison baselines, and those must be reproducible across
/// runs and platforms.  We therefore ship our own xoshiro256** instead of
/// relying on the unspecified std::default_random_engine, and our own
/// bounded-int / canonical-double mappings instead of std distributions
/// (whose outputs are implementation-defined).
namespace wsn {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` using splitmix64, so nearby
  /// seeds still produce decorrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  result_type operator()() noexcept;

  /// Advances the state by 2^128 steps; hands independent subsequences to
  /// parallel workers (one jump per worker) without shared state.
  void jump() noexcept;

  /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
  /// `bound` must be nonzero.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in `[0, 1)` with 53 random bits.
  double canonical() noexcept;

  /// Bernoulli trial with probability `p` (clamped to [0, 1]).
  bool chance(double p) noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
};

/// splitmix64's state increment (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9e3779b97f4a7c15ull;

/// splitmix64's output finaliser: a bijective avalanche of one word.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// splitmix64 single step.  Inline: the counter-mode fault models
/// (fault/models.cpp) call it on every draw.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += kSplitmix64Gamma;
  return splitmix64_mix(state);
}

}  // namespace wsn
