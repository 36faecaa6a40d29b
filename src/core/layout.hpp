// On-PFS layout metadata for one MLOC variable.
//
// Each bin owns two subfiles (paper Fig. 4):
//   <store>/<var>.bin<k>.idx — fragment table + positional index blobs;
//   <store>/<var>.bin<k>.dat — compressed value payload segments.
//
// A *fragment* is the set of points of one chunk that fall into one bin —
// the smallest unit MLOC relocates ("certain bytes of values inside a block
// within a bin", §III-B-5). Fragments appear in Hilbert-curve chunk order.
// The fragment table records, per fragment, the chunk id, point count, the
// positional-index blob extent (in .idx, relative to the end of the
// table), and one payload segment per byte group (in .dat).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "array/chunking.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/status.hpp"

namespace mloc {

/// How a variable's segment and .hbx node checksums were computed. Recorded
/// per variable in meta v6 (a store may hold both kinds: a variable keeps
/// the kind it was written with until it is re-ingested); every variable
/// of a v2–v5 store reads as kFnv1a64. The numbers are the on-disk byte.
enum class ChecksumKind : std::uint8_t {
  kFnv1a64 = 0,  ///< 64-bit FNV-1a (util/hash.hpp), written before meta v6
  kCrc32 = 1,    ///< CRC-32 (util/crc32.hpp), zero-extended; ingest writes it
};

/// "fnv1a64" / "crc32" (fsck's JSON report).
[[nodiscard]] std::string_view checksum_kind_name(ChecksumKind kind) noexcept;

/// The checksum of one segment or .hbx node payload, as stored in the
/// 64-bit Segment::checksum / HbxNode::checksum fields. A CRC-32 is
/// zero-extended, so a stored value with any of its high 32 bits set never
/// matches.
[[nodiscard]] inline std::uint64_t segment_checksum(
    ChecksumKind kind, std::span<const std::uint8_t> bytes) noexcept {
  return kind == ChecksumKind::kCrc32 ? std::uint64_t{crc32(bytes)}
                                      : fnv1a64(bytes);
}

/// Extent within a subfile, with an integrity checksum of its (compressed)
/// bytes (segment_checksum, under the variable's ChecksumKind) — verified
/// on every read before decode.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;

  [[nodiscard]] bool operator==(const Segment&) const = default;
};

struct FragmentInfo {
  ChunkId chunk = 0;          ///< row-major chunk id
  std::uint64_t count = 0;    ///< points of this chunk in this bin
  Segment positions;          ///< delta-varint local offsets, in .idx
                              ///< (offset relative to the blob section)
  std::vector<Segment> groups;///< payload per byte group, in .dat
  /// Zone map: value range of the fragment's points (closed interval on
  /// the original values). Extends the paper's aligned-*bin* fast path to
  /// fragment granularity: a VC containing [min,max] qualifies the whole
  /// fragment without decompression; a disjoint VC skips it outright.
  double min_value = 0.0;
  double max_value = 0.0;

  [[nodiscard]] bool operator==(const FragmentInfo&) const = default;
};

/// Fragment table of one bin, Hilbert order.
struct BinLayout {
  std::vector<FragmentInfo> fragments;

  [[nodiscard]] std::uint64_t total_points() const noexcept {
    std::uint64_t n = 0;
    for (const auto& f : fragments) n += f.count;
    return n;
  }

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<BinLayout> deserialize(ByteReader& r);

  [[nodiscard]] bool operator==(const BinLayout&) const = default;
};

// --- Subfile footer -------------------------------------------------------
//
// Every subfile MlocStore writes (.meta, .idx, .dat) ends with a fixed
// 8-byte footer: CRC-32 of the payload (all preceding bytes, little-endian
// u32) followed by the magic "MLCF". Per-segment checksums only cover
// extents a query happens to read; the footer covers the whole file — in
// particular the fragment-table header bytes — so fsck and first-read
// verification catch truncation, extension, and header damage too.

inline constexpr std::uint32_t kSubfileFooterMagic = 0x4643'4C4Du;  // "MLCF"
inline constexpr std::size_t kSubfileFooterSize = 8;

/// Append the CRC footer to a finished subfile image.
void append_subfile_footer(Bytes& file);

/// Validate the footer of a subfile image; returns the payload length
/// (file size minus footer) or CorruptData on a missing/mismatched footer.
[[nodiscard]] Result<std::uint64_t> verify_subfile_footer(
    std::span<const std::uint8_t> file);

/// Encode ascending local offsets as delta varints (first absolute).
Bytes encode_positions(std::span<const std::uint32_t> local_offsets);

/// Inverse of encode_positions; `count` values expected. Fails with
/// CorruptData on a truncated or over-long varint, a count above the blob
/// size, offsets that do not strictly ascend or exceed 32 bits, and
/// trailing bytes.
[[nodiscard]] Result<std::vector<std::uint32_t>> decode_positions(
    std::span<const std::uint8_t> blob, std::uint64_t count);

/// decode_positions into `out` (resized to `count`; its contents are
/// unspecified on error), so a caller can decode straight into the vector
/// it keeps. Same verdicts and messages.
[[nodiscard]] Status decode_positions_into(std::span<const std::uint8_t> blob,
                                           std::uint64_t count,
                                           std::vector<std::uint32_t>& out);

}  // namespace mloc
