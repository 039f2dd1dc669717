#include "fault/fault_draw.h"

#include <bit>
#include <cmath>
#include <cstring>

#if WSN_FAULT_DRAW_AVX512
#include <immintrin.h>
#endif

namespace wsn {

namespace {

constexpr unsigned kWordSlots = 64;
constexpr unsigned kLanes = 8;  // slots per AVX-512 draw, and per group

// The slots a word steps when asked for its first `slots`: whole groups.
constexpr unsigned group_end(unsigned slots) noexcept {
  return (slots + kLanes - 1) / kLanes * kLanes;
}

// Chain word `word` from its step masks: bit j solves
// x_j = T_j ^ (C_j & x_{j-1}) with C = S ^ T and x_{-1} = `bad_before`.
// After the round of shift k each bit holds its own map composed with the
// 2k - 1 before it as (set, keep): x -> set ^ (keep & x); a map before
// slot 0 of the word is the identity (0, 1).
inline std::uint64_t chain_bits(std::uint64_t turns, std::uint64_t stays,
                                std::uint64_t word, bool bad_before) noexcept {
  if (word == 0) {  // slot 0 is Good whatever came before: x -> 0
    turns &= ~std::uint64_t{1};
    stays &= ~std::uint64_t{1};
  }
  std::uint64_t set = turns;
  std::uint64_t keep = stays ^ turns;
  for (unsigned shift = 1; shift < kWordSlots; shift <<= 1) {
    set ^= keep & (set << shift);
    keep &= (keep << shift) | ((std::uint64_t{1} << shift) - 1);
  }
  return bad_before ? set ^ keep : set;
}

}  // namespace

std::uint64_t mantissa_threshold(double p) noexcept {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  if (!(p < 1.0)) return kOne;
  if (p <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

void draw_mantissas_scalar(const LinkHash& link, std::uint64_t first,
                           std::uint64_t stride, std::uint64_t salt,
                           std::size_t n, std::uint64_t* out) noexcept {
  const LinkHash hash = link;  // a copy `out` cannot alias
  std::uint64_t slot = first;
  for (std::size_t i = 0; i < n; ++i, slot += stride) {
    out[i] = draw_mantissa(hash, slot, salt);
  }
}

void step_words_scalar(const LinkHash& link, const ChainStep& step,
                       std::uint64_t first_word, std::size_t n,
                       unsigned last_slots, bool bad_before,
                       std::uint64_t* out) noexcept {
  const LinkHash hash = link;  // copies `out` cannot alias
  const ChainStep chain = step;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = first_word + i;
    const unsigned slots = i + 1 < n ? kWordSlots : group_end(last_slots);
    std::uint64_t turns = 0;
    std::uint64_t stays = 0;
    // A group's masks are built in a byte first: the shifts are constants
    // and the eight draws of a group overlap.
    for (unsigned g = 0; g < slots; g += kLanes) {
      std::uint64_t group_turns = 0;
      std::uint64_t group_stays = 0;
      for (unsigned k = 0; k < kLanes; ++k) {
        const std::uint64_t m =
            draw_mantissa(hash, word * kWordSlots + g + k, chain.salt);
        group_turns |= std::uint64_t{m < chain.enter_bad} << k;
        group_stays |= std::uint64_t{m >= chain.leave_bad} << k;
      }
      turns |= group_turns << g;
      stays |= group_stays << g;
    }
    out[i] = chain_bits(turns, stays, word, bad_before);
    bad_before = (out[i] >> (kWordSlots - 1)) != 0;
  }
}

#if WSN_FAULT_DRAW_AVX512

namespace {

using U64x8 = std::uint64_t __attribute__((vector_size(64)));

__attribute__((target("arch=x86-64-v4"))) U64x8 mix8(U64x8 z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// draw_mantissa on eight slots at once.
__attribute__((target("arch=x86-64-v4"))) U64x8 draw8(
    const LinkHash& link, U64x8 slot, std::uint64_t salt) noexcept {
  U64x8 state = link.state ^ (link.mixed + slot);
  state += kSplitmix64Gamma;
  state ^= mix8(state) + salt;
  state += kSplitmix64Gamma;
  return mix8(state) >> 11;
}

}  // namespace

__attribute__((target("arch=x86-64-v4"))) void draw_mantissas_avx512(
    const LinkHash& link, std::uint64_t first, std::uint64_t stride,
    std::uint64_t salt, std::size_t n, std::uint64_t* out) noexcept {
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  U64x8 slot = first + lane * stride;
  const std::uint64_t step = stride * kLanes;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes, slot += step) {
    const U64x8 bits = draw8(link, slot, salt);
    std::memcpy(out + i, &bits, sizeof bits);
  }
  if (i < n) {
    const U64x8 bits = draw8(link, slot, salt);
    std::memcpy(out + i, &bits, (n - i) * sizeof(std::uint64_t));
  }
}

namespace {

// The eight group masks of a word as one 64-bit mask, joined in mask
// registers: group g lands in bits 8g ... 8g + 7.
__attribute__((target("arch=x86-64-v4"))) std::uint64_t join_groups(
    const __mmask8 (&group)[8]) noexcept {
  const __mmask32 low = _mm512_kunpackw(_mm512_kunpackb(group[3], group[2]),
                                        _mm512_kunpackb(group[1], group[0]));
  const __mmask32 high = _mm512_kunpackw(_mm512_kunpackb(group[7], group[6]),
                                         _mm512_kunpackb(group[5], group[4]));
  return _mm512_kunpackd(high, low);
}

}  // namespace

__attribute__((target("arch=x86-64-v4"))) void step_words_avx512(
    const LinkHash& link, const ChainStep& step, std::uint64_t first_word,
    std::size_t n, unsigned last_slots, bool bad_before,
    std::uint64_t* out) noexcept {
  const LinkHash hash = link;  // copies `out` cannot alias
  const std::uint64_t salt = step.salt;
  const __m512i enter =
      _mm512_set1_epi64(std::bit_cast<long long>(step.enter_bad));
  const __m512i leave =
      _mm512_set1_epi64(std::bit_cast<long long>(step.leave_bad));
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = first_word + i;
    const unsigned slots = i + 1 < n ? kWordSlots : group_end(last_slots);
    U64x8 slot = word * kWordSlots + lane;
    __mmask8 turns[kLanes] = {};
    __mmask8 stays[kLanes] = {};
    for (unsigned g = 0; g < kLanes; ++g, slot += kLanes) {
      if (g * kLanes >= slots) continue;
      const __m512i m = __builtin_bit_cast(__m512i, draw8(hash, slot, salt));
      turns[g] = _mm512_cmplt_epu64_mask(m, enter);
      stays[g] = _mm512_cmpge_epu64_mask(m, leave);
    }
    out[i] = chain_bits(join_groups(turns), join_groups(stays), word,
                        bad_before);
    bad_before = (out[i] >> (kWordSlots - 1)) != 0;
  }
}

#endif  // WSN_FAULT_DRAW_AVX512

bool draw_avx512_supported() noexcept {
#if WSN_FAULT_DRAW_AVX512
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") != 0;
#else
  return false;
#endif
}

void draw_mantissas(const LinkHash& link, std::uint64_t first,
                    std::uint64_t stride, std::uint64_t salt, std::size_t n,
                    std::uint64_t* out) noexcept {
  using DrawFn = void (*)(const LinkHash&, std::uint64_t, std::uint64_t,
                          std::uint64_t, std::size_t, std::uint64_t*) noexcept;
  static const DrawFn draw = [] {
#if WSN_FAULT_DRAW_AVX512
    if (draw_avx512_supported()) return DrawFn{&draw_mantissas_avx512};
#endif
    return DrawFn{&draw_mantissas_scalar};
  }();
  draw(link, first, stride, salt, n, out);
}

void step_words(const LinkHash& link, const ChainStep& step,
                std::uint64_t first_word, std::size_t n, unsigned last_slots,
                bool bad_before, std::uint64_t* out) noexcept {
  using StepFn = void (*)(const LinkHash&, const ChainStep&, std::uint64_t,
                          std::size_t, unsigned, bool,
                          std::uint64_t*) noexcept;
  static const StepFn body = [] {
#if WSN_FAULT_DRAW_AVX512
    if (draw_avx512_supported()) return StepFn{&step_words_avx512};
#endif
    return StepFn{&step_words_scalar};
  }();
  body(link, step, first_word, n, last_slots, bad_before, out);
}

}  // namespace wsn
