#include "util/crc32.hpp"

#include <array>
#include <cstddef>

#include "util/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mloc {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? kPoly ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if defined(__x86_64__)

// Carry-less-multiply fold (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction"), in the bit-reflected domain.
// Constants are x^n mod P(x), bit-reflected and shifted left by one:
//   k1/k2 move each 128-bit lane 512 bits forward (four lanes in flight),
//   k3/k4 move 128 bits forward (lanes into one, then 16-byte blocks),
//   k4 and k5 reduce 128 bits to 64, and μ/P′ drive the Barrett reduction
//   from 64 bits to the 32-bit remainder.
// _mm_set_epi64x takes (high, low), so k1 and k3 sit in the low halves.

inline __m128i load16(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit fold step: hi(x)·hi(k) ^ lo(x)·lo(k) ^ next. A function, not
/// a lambda: lambdas do not inherit fold_pclmul's target attribute.
__attribute__((target("pclmul"))) inline __m128i fold16(
    __m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// `state` is the inverted running CRC; `n` is a multiple of 16, >= 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k1k2, load16(p));
    x1 = fold16(x1, k1k2, load16(p + 16));
    x2 = fold16(x2, k1k2, load16(p + 32));
    x3 = fold16(x3, k1k2, load16(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  __m128i x = fold16(x0, k3k4, x1);
  x = fold16(x, k3k4, x2);
  x = fold16(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold16(x, k3k4, load16(p));

  // 128 -> 96 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
#if defined(__x86_64__)
  if (bytes.size() >= 64 && cpu::has_pclmul()) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    crc = ~fold_pclmul(~crc, bytes.data(), folded);
    bytes = bytes.subspan(folded);
  }
#endif
  return detail::scalar::crc32(bytes, crc);
}

namespace detail::scalar {

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) {
    c = kTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail::scalar

}  // namespace mloc
