#pragma once

#include <cstddef>
#include <cstdint>

#include "common/random.h"

/// The counter-mode fault draw shared by every seeded fault model.
///
/// One draw is a uniform u in [0, 1) hashed from (seed, link, slot, salt):
/// splitmix64 absorbs the tuple one word per round and the final state
/// maps to a 53-bit mantissa m exactly like Xoshiro256::canonical, so
/// u = m * 2^-53.  `link` is the same for every draw on one directed link,
/// so the rounds are split: `absorb_link` runs the seed and link rounds
/// plus the slot round's mix once per link, and a draw finishes in two
/// mixes.  Bit for bit the four-round original, which
/// tests/test_fault_models.cpp keeps as its oracle.
///
/// Batches: `draw_mantissas` fills the mantissas of one link's slots
/// first, first + stride, ... in one call.  It has two bodies, picked once
/// per process:
///
///   * `draw_mantissas_scalar` -- the single draw in a loop; every build
///     has it.
///   * `draw_mantissas_avx512` -- eight draws per step in GCC vector
///     extensions, compiled for x86-64-v4 (AVX-512 F/BW/CD/DQ/VL) by a
///     function attribute, so the rest of the build keeps its own target.
///     Only GCC builds for x86-64 have it (`WSN_FAULT_DRAW_AVX512` is 1);
///     it runs only when `__builtin_cpu_supports("x86-64-v4")` says the
///     CPU can.  The same body compiled for the default target is slower
///     than the scalar loop, which is why the scalar version is its own
///     function and not a clone.
///
/// Both bodies return identical mantissas; the tests pin each against the
/// oracle.  Comparisons against a probability go through integer
/// thresholds: u >= p exactly when m >= `mantissa_threshold(p)`.
///
/// Chain words: `step_words` runs a two-state (Good/Bad) Markov chain on
/// one link 64 slots at a time.  Word w holds the chain's states at slots
/// 64w ... 64w + 63, bit j set when slot 64w + j is Bad.  For each word it
/// draws the 64 step mantissas and compares them with the two thresholds
/// into masks T (m < enter_bad: a Good chain turns Bad) and S
/// (m >= leave_bad: a Bad chain stays Bad).  Slot j's step is then the
/// map x -> T_j ^ (C_j & x) with C = S ^ T, and a six-round prefix over
/// those maps gives every bit of the word from the state before it.  Slot
/// 0 has no step: a chain starts Good there.  The last word of a call may
/// stop after any group of 8 slots, so a chain read at an early slot
/// draws only the groups up to it.  The same two bodies exist: the AVX-512
/// one compares eight draws into a mask register at once, the scalar one
/// builds each group's masks in a byte.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define WSN_FAULT_DRAW_AVX512 1
#else
#define WSN_FAULT_DRAW_AVX512 0
#endif

namespace wsn {

/// The (seed, link) half of a counter-mode fault draw: the same for every
/// draw on one directed link, so it is absorbed once per link and each
/// draw pays only its (slot, salt) half.
struct LinkHash {
  std::uint64_t state = 0;
  std::uint64_t mixed = 0;
};

/// Runs the seed and `link` rounds of the draw, plus the slot round's mix.
inline LinkHash absorb_link(std::uint64_t seed, std::uint64_t link) noexcept {
  std::uint64_t state = seed;
  state ^= splitmix64(state) + link;
  state += kSplitmix64Gamma;
  return {state, splitmix64_mix(state)};
}

/// The 53-bit mantissa of the draw for (`slot`, `salt`) on `link`.
inline std::uint64_t draw_mantissa(const LinkHash& link, std::uint64_t slot,
                                   std::uint64_t salt) noexcept {
  std::uint64_t state = link.state ^ (link.mixed + slot);
  state ^= splitmix64(state) + salt;
  return splitmix64(state) >> 11;
}

/// The least mantissa whose uniform is >= p: ceil(p * 2^53), so that
/// u >= p exactly when m >= T(p), and u < p exactly when m < T(p).  The
/// scaling by a power of two is exact, subnormals included.  p <= 0 gives
/// 0, which every mantissa meets; p >= 1 (or NaN, which no u is >= to)
/// gives 2^53, which none does.
[[nodiscard]] std::uint64_t mantissa_threshold(double p) noexcept;

/// out[i] = draw_mantissa(link, first + i * stride, salt) for i < n.
void draw_mantissas_scalar(const LinkHash& link, std::uint64_t first,
                           std::uint64_t stride, std::uint64_t salt,
                           std::size_t n, std::uint64_t* out) noexcept;

#if WSN_FAULT_DRAW_AVX512
/// The same as `draw_mantissas_scalar`, eight lanes at a time.  Call it
/// only when `draw_avx512_supported()`.
void draw_mantissas_avx512(const LinkHash& link, std::uint64_t first,
                           std::uint64_t stride, std::uint64_t salt,
                           std::size_t n, std::uint64_t* out) noexcept;
#endif

/// True when this build has the AVX-512 body and the CPU can run it.
[[nodiscard]] bool draw_avx512_supported() noexcept;

/// The batch draw through whichever body the process picked.
void draw_mantissas(const LinkHash& link, std::uint64_t first,
                    std::uint64_t stride, std::uint64_t salt, std::size_t n,
                    std::uint64_t* out) noexcept;

/// The step of a Good/Bad chain: slot s draws m with `salt`; a Good chain
/// turns Bad when m < enter_bad, a Bad one stays Bad when m >= leave_bad.
struct ChainStep {
  std::uint64_t salt = 0;
  std::uint64_t enter_bad = 0;
  std::uint64_t leave_bad = 0;
};

/// out[i] = the chain word first_word + i for i < n.  `bad_before` is the
/// state at slot 64 * first_word - 1; it is ignored when first_word is 0.
/// The last word steps only its first `last_slots` slots (1 to 64) rounded
/// up to a multiple of 8; its bits past those read Good and are no state.
void step_words_scalar(const LinkHash& link, const ChainStep& step,
                       std::uint64_t first_word, std::size_t n,
                       unsigned last_slots, bool bad_before,
                       std::uint64_t* out) noexcept;

#if WSN_FAULT_DRAW_AVX512
/// The same as `step_words_scalar`, each eight draws compared into a mask
/// register.  Call it only when `draw_avx512_supported()`.
void step_words_avx512(const LinkHash& link, const ChainStep& step,
                       std::uint64_t first_word, std::size_t n,
                       unsigned last_slots, bool bad_before,
                       std::uint64_t* out) noexcept;
#endif

/// The chain words through whichever body the process picked.
void step_words(const LinkHash& link, const ChainStep& step,
                std::uint64_t first_word, std::size_t n, unsigned last_slots,
                bool bad_before, std::uint64_t* out) noexcept;

}  // namespace wsn
