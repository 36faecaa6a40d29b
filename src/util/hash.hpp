// FNV-1a 64-bit hashing: FragmentCache's key hash, and the segment and
// .hbx node checksum of variables written before meta v6 (ChecksumKind::
// kFnv1a64 in core/layout.hpp), which stay readable. One multiply per
// byte, so it runs well under 1 GB/s; new variables checksum with the
// folded CRC-32 (crc32.hpp) instead. Not cryptographic.
#pragma once

#include <cstdint>
#include <span>

namespace mloc {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

constexpr std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                                std::uint64_t seed = kFnvOffsetBasis) noexcept {
  std::uint64_t h = seed;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace mloc
