// CPU features the kernels dispatch on (DESIGN.md §11). The build sets no
// -march, so baseline x86-64 code has neither PCLMULQDQ nor POPCNT: an
// accelerated kernel is compiled for its extension with a target attribute
// and chosen at run time through these checks, which read the CPU once.
// Other architectures report no feature and take the portable code.
#pragma once

namespace mloc::cpu {

/// PCLMULQDQ and SSE4.1: CRC-32's carry-less fold (util/crc32.cpp).
[[nodiscard]] bool has_pclmul() noexcept;

/// POPCNT: Bitmap::count, WahBitmap::count and the gather's dense
/// placement (exec/gather.cpp).
[[nodiscard]] bool has_popcnt() noexcept;

}  // namespace mloc::cpu

/// Compiles a function for POPCNT, so std::popcount inside it (and inside
/// the always-inline helpers it calls) is one instruction instead of a
/// call to libgcc's __popcountdi2. Call it only when cpu::has_popcnt().
#if defined(__x86_64__)
#define MLOC_TARGET_POPCNT __attribute__((target("popcnt")))
#else
#define MLOC_TARGET_POPCNT
#endif
