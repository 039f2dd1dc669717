#include "fault/fault_draw.h"

#include <cmath>
#include <cstring>

namespace wsn {

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
  constexpr std::size_t kLanes = 8;
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

}  // namespace wsn
