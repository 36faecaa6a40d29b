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
#include <vector>

#include "array/chunking.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc {

/// Extent within a subfile, with an FNV-1a integrity checksum of its
/// (compressed) bytes — verified on every read before decode.
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
// u32) followed by the magic "MLCF". Per-segment FNV checksums only cover
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

/// Inverse of encode_positions; `count` values expected.
[[nodiscard]] Result<std::vector<std::uint32_t>> decode_positions(
    std::span<const std::uint8_t> blob, std::uint64_t count);

}  // namespace mloc
