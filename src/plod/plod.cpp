#include "plod/plod.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/assert.hpp"

// The hot shred/assemble paths below come in three tiers, best first:
//   1. A byte-interleave (punpck) tree using the compiler's portable vector
//      extensions — clang or GCC >= 12, little-endian only. Sixteen values
//      per iteration, four interleave stages; compiles to SSE2 punpck
//      instructions on x86-64 with no intrinsics headers.
//   2. Portable C++ fallback: an unrolled SWAR 8x8 delta-swap transpose for
//      shred, and a level-templated word-build loop for assemble
//      (little-endian only).
//   3. The per-value scalar loop (any endianness) — also retained verbatim
//      under mloc::detail::scalar for differential tests and bench A/B.
// All tiers produce byte-identical planes/values.
#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)
#define MLOC_PLOD_SHUFFLE 1
#else
#define MLOC_PLOD_SHUFFLE 0
#endif

namespace mloc::plod {
namespace {

/// Dummy fill for absent low-order bytes: first missing byte 0x7F, rest
/// 0xFF — the midpoint of the unknown interval (paper §III-D-3).
std::uint64_t fill_for_level(int level) noexcept {
  std::uint64_t fill = 0;
  if (level < kNumGroups) {
    const int missing = kNumGroups - level;  // missing groups, 1 byte each
    fill = 0x7Full << (8 * (missing - 1));
    for (int b = 0; b < missing - 1; ++b) {
      fill |= 0xFFull << (8 * b);
    }
  }
  return fill;
}

// ---------------------------------------------------------------------------
// SWAR 8×8 byte-matrix transpose (DESIGN.md §11). Rows are uint64 words:
// byte k of x[i] is matrix element (i, k). Three rounds of delta-swaps
// exchange row/column index bits at 4-, 2-, and 1-byte granularity; the
// function computes a true transpose, so it is its own inverse. Fully
// unrolled — plain shifts and masks, no intrinsics.

#define MLOC_DSWAP(a, b, sh, m)                           \
  do {                                                    \
    const std::uint64_t t_ = (((a) >> (sh)) ^ (b)) & (m); \
    (b) ^= t_;                                            \
    (a) ^= t_ << (sh);                                    \
  } while (0)

inline void transpose8x8(std::uint64_t x[8]) noexcept {
  MLOC_DSWAP(x[0], x[4], 32, 0x00000000FFFFFFFFull);
  MLOC_DSWAP(x[1], x[5], 32, 0x00000000FFFFFFFFull);
  MLOC_DSWAP(x[2], x[6], 32, 0x00000000FFFFFFFFull);
  MLOC_DSWAP(x[3], x[7], 32, 0x00000000FFFFFFFFull);
  MLOC_DSWAP(x[0], x[2], 16, 0x0000FFFF0000FFFFull);
  MLOC_DSWAP(x[1], x[3], 16, 0x0000FFFF0000FFFFull);
  MLOC_DSWAP(x[4], x[6], 16, 0x0000FFFF0000FFFFull);
  MLOC_DSWAP(x[5], x[7], 16, 0x0000FFFF0000FFFFull);
  MLOC_DSWAP(x[0], x[1], 8, 0x00FF00FF00FF00FFull);
  MLOC_DSWAP(x[2], x[3], 8, 0x00FF00FF00FF00FFull);
  MLOC_DSWAP(x[4], x[5], 8, 0x00FF00FF00FF00FFull);
  MLOC_DSWAP(x[6], x[7], 8, 0x00FF00FF00FF00FFull);
}

#undef MLOC_DSWAP

/// Spread the low 4 bytes of v to the even byte positions of the result.
inline std::uint64_t spread_bytes(std::uint64_t v) noexcept {
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
  return v;
}

void check_plane_sizes(const PlaneSpans& planes, std::size_t count) {
  for (int g = 0; g < kNumGroups; ++g) {
    MLOC_CHECK(planes[g].size() ==
               count * static_cast<std::size_t>(group_bytes(g)));
  }
}

// ---------------------------------------------------------------------------
// Byte-interleave tree (DESIGN.md §11). A 16-value × 8-byte block is a byte
// matrix; four rounds of pairwise byte interleaves (x86 punpcklbw/punpckhbw)
// transpose it between value order and plane order. Group 0's on-disk layout
// — [byte7, byte6] pairs per value — is itself one interleave stage, so the
// fast paths get it for free (shred) or for one word-lane byte swap
// (assemble). Expressed with GNU vector extensions + __builtin_shufflevector
// so the compiler schedules registers; little-endian only (memory byte p of
// a double is value byte p).

#if MLOC_PLOD_SHUFFLE

typedef std::uint8_t V16qu __attribute__((vector_size(16)));
typedef std::uint16_t V8hu __attribute__((vector_size(16)));

// Interleave helpers named for the x86 instructions they compile to (the
// patterns are equally vectorizable on other ISAs). Inline functions rather
// than macros so operands count as uses (-Wunused-but-set-variable).
inline V16qu unpack_lo8(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                 21, 6, 22, 7, 23);
}
inline V16qu unpack_hi8(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28,
                                 13, 29, 14, 30, 15, 31);
}
inline V16qu unpack_lo16(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 0, 1, 16, 17, 2, 3, 18, 19, 4, 5, 20,
                                 21, 6, 7, 22, 23);
}
inline V16qu unpack_hi16(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 8, 9, 24, 25, 10, 11, 26, 27, 12, 13,
                                 28, 29, 14, 15, 30, 31);
}
inline V16qu unpack_lo32(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7,
                                 20, 21, 22, 23);
}
inline V16qu unpack_hi32(V16qu a, V16qu b) noexcept {
  return __builtin_shufflevector(a, b, 8, 9, 10, 11, 24, 25, 26, 27, 12, 13,
                                 14, 15, 28, 29, 30, 31);
}

inline V16qu splat16(std::uint8_t b) noexcept {
  return V16qu{b, b, b, b, b, b, b, b, b, b, b, b, b, b, b, b};
}

inline V16qu load16(const std::uint8_t* p) noexcept {
  V16qu r;
  std::memcpy(&r, p, 16);
  return r;
}

/// Swap adjacent bytes within each 16-bit lane (SSE2-expressible).
inline V16qu swap_byte_pairs(V16qu x) noexcept {
  V8hu w;
  std::memcpy(&w, &x, 16);
  w = (V8hu)((w << 8) | (w >> 8));
  std::memcpy(&x, &w, 16);
  return x;
}

/// Shred 16 values per iteration: four punpck stages turn 16 rows (values)
/// of 8 bytes into 8 planes of 16 bytes; group 0 is one more interleave of
/// the byte-7 and byte-6 planes. Returns the blocked prefix length.
std::size_t shred_shuffle(const double* values, std::size_t n,
                          std::uint8_t* g0,
                          std::uint8_t* const gp[kNumGroups]) noexcept {
  // Local pointer copies: the byte-typed stores below would otherwise be
  // assumed to alias the caller's pointer array, forcing reloads per
  // iteration.
  std::uint8_t* const q1 = gp[1];
  std::uint8_t* const q2 = gp[2];
  std::uint8_t* const q3 = gp[3];
  std::uint8_t* const q4 = gp[4];
  std::uint8_t* const q5 = gp[5];
  std::uint8_t* const q6 = gp[6];
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    V16qu in[8];
    std::memcpy(in, values + i, 128);
    // Stage 1 pairs values {2k, 2k+8} (low) and {2k+1, 2k+9} (high).
    const V16qu jl0 = unpack_lo8(in[0], in[4]);
    const V16qu jh0 = unpack_hi8(in[0], in[4]);
    const V16qu jl1 = unpack_lo8(in[1], in[5]);
    const V16qu jh1 = unpack_hi8(in[1], in[5]);
    const V16qu jl2 = unpack_lo8(in[2], in[6]);
    const V16qu jh2 = unpack_hi8(in[2], in[6]);
    const V16qu jl3 = unpack_lo8(in[3], in[7]);
    const V16qu jh3 = unpack_hi8(in[3], in[7]);
    // Stage 2: value groups of four, two planes per register.
    const V16qu ka = unpack_lo8(jl0, jl2);
    const V16qu kb = unpack_hi8(jl0, jl2);
    const V16qu kc = unpack_lo8(jl1, jl3);
    const V16qu kd = unpack_hi8(jl1, jl3);
    const V16qu ke = unpack_lo8(jh0, jh2);
    const V16qu kf = unpack_hi8(jh0, jh2);
    const V16qu kg = unpack_lo8(jh1, jh3);
    const V16qu kh = unpack_hi8(jh1, jh3);
    // Stage 3: even values / odd values, one plane pair per register.
    const V16qu ma = unpack_lo8(ka, kc);
    const V16qu mb = unpack_hi8(ka, kc);
    const V16qu mc = unpack_lo8(kb, kd);
    const V16qu md = unpack_hi8(kb, kd);
    const V16qu me = unpack_lo8(ke, kg);
    const V16qu mf = unpack_hi8(ke, kg);
    const V16qu mg = unpack_lo8(kf, kh);
    const V16qu mh = unpack_hi8(kf, kh);
    // Stage 4: complete planes p0..p7 (memory byte position, LSB first).
    const V16qu p0 = unpack_lo8(ma, me);
    const V16qu p1 = unpack_hi8(ma, me);
    const V16qu p2 = unpack_lo8(mb, mf);
    const V16qu p3 = unpack_hi8(mb, mf);
    const V16qu p4 = unpack_lo8(mc, mg);
    const V16qu p5 = unpack_hi8(mc, mg);
    const V16qu p6 = unpack_lo8(md, mh);
    const V16qu p7 = unpack_hi8(md, mh);
    const V16qu g0lo = unpack_lo8(p7, p6);
    const V16qu g0hi = unpack_hi8(p7, p6);
    std::memcpy(g0 + 2 * i, &g0lo, 16);
    std::memcpy(g0 + 2 * i + 16, &g0hi, 16);
    std::memcpy(q1 + i, &p5, 16);
    std::memcpy(q2 + i, &p4, 16);
    std::memcpy(q3 + i, &p3, 16);
    std::memcpy(q4 + i, &p2, 16);
    std::memcpy(q5 + i, &p1, 16);
    std::memcpy(q6 + i, &p0, 16);
  }
  return i;
}

/// Assemble 16 values per iteration by running the interleave tree in the
/// plane→value direction. Group 0 loads already hold the (byte7, byte6)
/// stage-1 interleave — a byte-pair swap puts them in tree order. Absent
/// planes are constant fill splats, folded per Level.
template <int Level>
std::size_t assemble_shuffle(const std::uint8_t* g0,
                             const std::uint8_t* const gp[kNumGroups],
                             std::uint64_t fill, std::size_t count,
                             double* out) noexcept {
  const V16qu f0 = splat16(static_cast<std::uint8_t>(fill));
  const V16qu f1 = splat16(static_cast<std::uint8_t>(fill >> 8));
  const V16qu f2 = splat16(static_cast<std::uint8_t>(fill >> 16));
  const V16qu f3 = splat16(static_cast<std::uint8_t>(fill >> 24));
  const V16qu f4 = splat16(static_cast<std::uint8_t>(fill >> 32));
  const V16qu f5 = splat16(static_cast<std::uint8_t>(fill >> 40));
  // Local pointer copies so the memcpy stores into `out` are not assumed to
  // alias the caller's pointer array (see shred_shuffle).
  const std::uint8_t* const q1 = gp[1];
  const std::uint8_t* const q2 = gp[2];
  const std::uint8_t* const q3 = gp[3];
  const std::uint8_t* const q4 = gp[4];
  const std::uint8_t* const q5 = gp[5];
  const std::uint8_t* const q6 = gp[6];
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    // Plane p (memory byte position) comes from group 6-p for p in [1,6].
    const V16qu p0 = (Level > 6) ? load16(q6 + i) : f0;
    const V16qu p1 = (Level > 5) ? load16(q5 + i) : f1;
    const V16qu p2 = (Level > 4) ? load16(q4 + i) : f2;
    const V16qu p3 = (Level > 3) ? load16(q3 + i) : f3;
    const V16qu p4 = (Level > 2) ? load16(q2 + i) : f4;
    const V16qu p5 = (Level > 1) ? load16(q1 + i) : f5;
    const V16qu a_lo = unpack_lo8(p0, p1);
    const V16qu a_hi = unpack_hi8(p0, p1);
    const V16qu b_lo = unpack_lo8(p2, p3);
    const V16qu b_hi = unpack_hi8(p2, p3);
    const V16qu c_lo = unpack_lo8(p4, p5);
    const V16qu c_hi = unpack_hi8(p4, p5);
    const V16qu d_lo = swap_byte_pairs(load16(g0 + 2 * i));
    const V16qu d_hi = swap_byte_pairs(load16(g0 + 2 * i + 16));
    const V16qu e_lo = unpack_lo16(a_lo, b_lo);
    const V16qu e_hi = unpack_hi16(a_lo, b_lo);
    const V16qu f_lo = unpack_lo16(a_hi, b_hi);
    const V16qu f_hi = unpack_hi16(a_hi, b_hi);
    const V16qu g_lo = unpack_lo16(c_lo, d_lo);
    const V16qu g_hi = unpack_hi16(c_lo, d_lo);
    const V16qu h_lo = unpack_lo16(c_hi, d_hi);
    const V16qu h_hi = unpack_hi16(c_hi, d_hi);
    V16qu o[8];
    o[0] = unpack_lo32(e_lo, g_lo);
    o[1] = unpack_hi32(e_lo, g_lo);
    o[2] = unpack_lo32(e_hi, g_hi);
    o[3] = unpack_hi32(e_hi, g_hi);
    o[4] = unpack_lo32(f_lo, h_lo);
    o[5] = unpack_hi32(f_lo, h_lo);
    o[6] = unpack_lo32(f_hi, h_hi);
    o[7] = unpack_hi32(f_hi, h_hi);
    std::memcpy(out + i, o, 128);
  }
  return i;
}

#endif  // MLOC_PLOD_SHUFFLE

/// Assemble dispatch target for one compile-time level: shuffle-tree bulk
/// (when available) plus a word-build loop with the group accesses unrolled
/// at compile time — the runtime-bound inner loop of the scalar reference
/// defeats vectorization; this version the compiler vectorizes well.
template <int Level>
void assemble_fast(const std::uint8_t* g0,
                   const std::uint8_t* const gp[kNumGroups],
                   std::uint64_t fill, std::size_t count, double* out) {
  std::size_t i = 0;
#if MLOC_PLOD_SHUFFLE
  i = assemble_shuffle<Level>(g0, gp, fill, count, out);
#endif
  // Word-build tail (the whole range when the shuffle tier is absent).
  // Local pointer copies for the same aliasing reason as the bulk tiers.
  const std::uint8_t* const q1 = gp[1];
  const std::uint8_t* const q2 = gp[2];
  const std::uint8_t* const q3 = gp[3];
  const std::uint8_t* const q4 = gp[4];
  const std::uint8_t* const q5 = gp[5];
  const std::uint8_t* const q6 = gp[6];
  for (; i < count; ++i) {
    std::uint64_t bits = (static_cast<std::uint64_t>(g0[2 * i]) << 56) |
                         (static_cast<std::uint64_t>(g0[2 * i + 1]) << 48) |
                         fill;
    if constexpr (Level > 1) bits |= static_cast<std::uint64_t>(q1[i]) << 40;
    if constexpr (Level > 2) bits |= static_cast<std::uint64_t>(q2[i]) << 32;
    if constexpr (Level > 3) bits |= static_cast<std::uint64_t>(q3[i]) << 24;
    if constexpr (Level > 4) bits |= static_cast<std::uint64_t>(q4[i]) << 16;
    if constexpr (Level > 5) bits |= static_cast<std::uint64_t>(q5[i]) << 8;
    if constexpr (Level > 6) bits |= static_cast<std::uint64_t>(q6[i]);
    std::memcpy(out + i, &bits, sizeof bits);
  }
}

}  // namespace

double level_max_relative_error(int level) noexcept {
  MLOC_CHECK(level >= 1 && level <= kNumGroups);
  if (level == kNumGroups) return 0.0;
  // level L keeps the top (L+1) bytes = 12 header bits + (8(L+1)-12)
  // mantissa bits; 8*(7-L) mantissa bits are unknown. Midpoint fill makes
  // the worst-case error half the unknown span:
  //   2^(missing_bits - 1) ulps = 2^(missing_bits - 1 - 52) relative
  // (relative to a mantissa of at least 1.0).
  const int missing_bits = 8 * (kNumGroups - level);
  return std::ldexp(1.0, missing_bits - 1 - 52);
}

void shred_into(std::span<const double> values, const PlaneSpans& planes) {
  const std::size_t n = values.size();
  check_plane_sizes(planes, n);
  std::uint8_t* g0 = planes[0].data();
  std::uint8_t* gp[kNumGroups] = {};
  for (int g = 1; g < kNumGroups; ++g) gp[g] = planes[g].data();

  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
#if MLOC_PLOD_SHUFFLE
    i = shred_shuffle(values.data(), n, g0, gp);
#else
    // Unrolled SWAR transpose, 8 values per iteration: one 8-byte store per
    // plane, group 0 interleaved via byte spreads.
    for (; i + 8 <= n; i += 8) {
      std::uint64_t x[8];
      std::memcpy(x, values.data() + i, 64);
      transpose8x8(x);
      const std::uint64_t a = x[7];  // byte-7 plane (sign/exponent)
      const std::uint64_t b = x[6];
      const std::uint64_t lo = spread_bytes(a & 0xFFFFFFFFull) |
                               (spread_bytes(b & 0xFFFFFFFFull) << 8);
      const std::uint64_t hi =
          spread_bytes(a >> 32) | (spread_bytes(b >> 32) << 8);
      std::memcpy(g0 + 2 * i, &lo, 8);
      std::memcpy(g0 + 2 * i + 8, &hi, 8);
      std::memcpy(gp[1] + i, &x[5], 8);
      std::memcpy(gp[2] + i, &x[4], 8);
      std::memcpy(gp[3] + i, &x[3], 8);
      std::memcpy(gp[4] + i, &x[2], 8);
      std::memcpy(gp[5] + i, &x[1], 8);
      std::memcpy(gp[6] + i, &x[0], 8);
    }
#endif
  }
  // Per-value tail (full range on big-endian), identical to the scalar
  // reference.
  for (; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    g0[2 * i] = static_cast<std::uint8_t>(bits >> 56);
    g0[2 * i + 1] = static_cast<std::uint8_t>(bits >> 48);
    for (int g = 1; g < kNumGroups; ++g) {
      gp[g][i] = static_cast<std::uint8_t>(bits >> (8 * (6 - g)));
    }
  }
}

Shredded shred(std::span<const double> values) {
  Shredded out;
  out.count = values.size();
  PlaneSpans planes;
  for (int g = 0; g < kNumGroups; ++g) {
    out.groups[g].resize(values.size() *
                         static_cast<std::size_t>(group_bytes(g)));
    planes[g] = out.groups[g];
  }
  shred_into(values, planes);
  return out;
}

Status assemble_into(std::span<const std::span<const std::uint8_t>> groups,
                     int level, std::span<double> out) {
  if (level < 1 || level > kNumGroups) {
    return invalid_argument("PLoD level must be in [1,7]");
  }
  if (groups.size() < static_cast<std::size_t>(level)) {
    return invalid_argument("fewer byte groups than requested level");
  }
  const std::size_t count = out.size();
  for (int g = 0; g < level; ++g) {
    if (groups[g].size() != count * static_cast<std::size_t>(group_bytes(g))) {
      return corrupt_data("PLoD group size mismatches value count");
    }
  }

  const std::uint64_t fill = fill_for_level(level);
  const std::uint8_t* g0 = groups[0].data();
  const std::uint8_t* gp[kNumGroups] = {};
  for (int g = 1; g < level; ++g) gp[g] = groups[g].data();

  if constexpr (std::endian::native == std::endian::little) {
    switch (level) {
      case 1: assemble_fast<1>(g0, gp, fill, count, out.data()); break;
      case 2: assemble_fast<2>(g0, gp, fill, count, out.data()); break;
      case 3: assemble_fast<3>(g0, gp, fill, count, out.data()); break;
      case 4: assemble_fast<4>(g0, gp, fill, count, out.data()); break;
      case 5: assemble_fast<5>(g0, gp, fill, count, out.data()); break;
      case 6: assemble_fast<6>(g0, gp, fill, count, out.data()); break;
      default: assemble_fast<7>(g0, gp, fill, count, out.data()); break;
    }
    return Status::ok();
  }

  // Big-endian: per-value loop, identical to the scalar reference.
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = (static_cast<std::uint64_t>(g0[2 * i]) << 56) |
                         (static_cast<std::uint64_t>(g0[2 * i + 1]) << 48);
    for (int g = 1; g < level; ++g) {
      bits |= static_cast<std::uint64_t>(gp[g][i]) << (8 * (6 - g));
    }
    bits |= fill;
    std::memcpy(&out[i], &bits, sizeof bits);
  }
  return Status::ok();
}

Result<std::vector<double>> assemble(
    std::span<const std::span<const std::uint8_t>> groups, int level,
    std::size_t count) {
  std::vector<double> out(count);
  MLOC_RETURN_IF_ERROR(assemble_into(groups, level, out));
  return out;
}

Result<std::vector<double>> assemble(const Shredded& shredded, int level) {
  std::array<std::span<const std::uint8_t>, kNumGroups> spans;
  for (int g = 0; g < kNumGroups; ++g) {
    spans[g] = shredded.groups[g];
  }
  return assemble(std::span<const std::span<const std::uint8_t>>(
                      spans.data(), spans.size()),
                  level, shredded.count);
}

void degrade_into(std::span<const double> values, int level,
                  std::span<double> out) {
  MLOC_CHECK(level >= 1 && level <= kNumGroups);
  MLOC_CHECK(out.size() == values.size());
  if (level == kNumGroups) {
    if (out.data() != values.data()) {
      std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
    }
    return;
  }
  // Keeping the top level+1 bytes and OR-ing the midpoint fill is exactly
  // assemble(shred(values), level), skipping the byte planes entirely.
  const DegradeMasks m = degrade_masks(level);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    bits = (bits & m.keep) | m.fill;
    std::memcpy(&out[i], &bits, sizeof bits);
  }
}

DegradeMasks degrade_masks(int level) noexcept {
  MLOC_DCHECK(level >= 1 && level <= kNumGroups);
  return {~0ull << (8 * (kNumGroups - level)), fill_for_level(level)};
}

}  // namespace mloc::plod

namespace mloc::detail::scalar {

void plod_shred_into(std::span<const double> values,
                     const plod::PlaneSpans& planes) {
  using plod::kNumGroups;
  for (int g = 0; g < kNumGroups; ++g) {
    MLOC_CHECK(planes[g].size() ==
               values.size() * static_cast<std::size_t>(plod::group_bytes(g)));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    // Big-endian byte order: byte 0 = sign/exponent-high.
    planes[0][2 * i] = static_cast<std::uint8_t>(bits >> 56);
    planes[0][2 * i + 1] = static_cast<std::uint8_t>(bits >> 48);
    for (int g = 1; g < kNumGroups; ++g) {
      planes[g][i] = static_cast<std::uint8_t>(bits >> (8 * (6 - g)));
    }
  }
}

Status plod_assemble_into(
    std::span<const std::span<const std::uint8_t>> groups, int level,
    std::span<double> out) {
  using plod::kNumGroups;
  if (level < 1 || level > kNumGroups) {
    return invalid_argument("PLoD level must be in [1,7]");
  }
  if (groups.size() < static_cast<std::size_t>(level)) {
    return invalid_argument("fewer byte groups than requested level");
  }
  const std::size_t count = out.size();
  for (int g = 0; g < level; ++g) {
    if (groups[g].size() !=
        count * static_cast<std::size_t>(plod::group_bytes(g))) {
      return corrupt_data("PLoD group size mismatches value count");
    }
  }

  std::uint64_t fill = 0;
  if (level < kNumGroups) {
    const int missing = kNumGroups - level;
    fill = 0x7Full << (8 * (missing - 1));
    for (int b = 0; b < missing - 1; ++b) {
      fill |= 0xFFull << (8 * b);
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    MLOC_DCHECK(2 * i + 1 < groups[0].size());
    std::uint64_t bits =
        (static_cast<std::uint64_t>(groups[0][2 * i]) << 56) |
        (static_cast<std::uint64_t>(groups[0][2 * i + 1]) << 48);
    for (int g = 1; g < level; ++g) {
      MLOC_DCHECK(i < groups[g].size());
      bits |= static_cast<std::uint64_t>(groups[g][i]) << (8 * (6 - g));
    }
    bits |= fill;
    std::memcpy(&out[i], &bits, sizeof bits);
  }
  return Status::ok();
}

}  // namespace mloc::detail::scalar
