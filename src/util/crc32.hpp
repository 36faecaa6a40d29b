// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the subfile
// footer checksum, the wire frame checksum and, since meta v6, the
// checksum of every segment and .hbx node ingest writes (zero-extended
// into their 64-bit fields; segment_checksum in core/layout.hpp). The
// per-segment checksum is verified before each segment is decoded; the
// footer covers a subfile's entire payload, so truncation, extension, and
// damage to the fragment-table bytes themselves (which no segment checksum
// covers) are caught too.
#pragma once

#include <cstdint>
#include <span>

namespace mloc {

/// CRC-32 of `bytes`, optionally continuing from a previous value (pass the
/// prior return value to checksum a file in pieces). On x86-64 hosts with
/// PCLMULQDQ, runs of 64 bytes or more are folded with carry-less
/// multiplies (DESIGN.md §11); the result always equals
/// detail::scalar::crc32.
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc = 0) noexcept;

namespace detail::scalar {
/// Retained byte-at-a-time table loop: the reference for differential
/// tests and bench_kernels A/B runs, and the path crc32 takes for short
/// inputs, the fold's tail, and hosts without PCLMULQDQ.
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc = 0) noexcept;
}  // namespace detail::scalar

}  // namespace mloc
