// Hierarchical bitmap index (".hbx" subfile).
//
// A per-variable tree of coarse-to-fine WAH bitmaps over the bin
// hierarchy (the multi-level scheme of "Hierarchical Bitmap Indexing for
// Range and Membership Queries on Multidimensional Arrays"). Level 0
// holds one leaf bitmap per bin — the set of grid positions whose value
// falls in that bin — and every level-k node is the OR of `fanout`
// consecutive level-(k-1) children, up to a root level with a single
// node. A value-range predicate then resolves top-down: subtrees fully
// inside the range contribute their aggregate bitmap with zero .idx
// reads, subtrees fully outside are pruned, and only the (at most two)
// boundary bins fall through to the positional-index path.
//
// On disk the index is one CRC-sealed subfile per variable,
// `<store>/<var>.hbx`:
//
//   header:  magic "MHBX", version, fanout, num_bins, nbits, level table,
//            node table (level-major, leaves first; each node records its
//            bin span, payload extent, checksum and popcount; the checksum
//            is the variable's segment_checksum kind, core/layout.hpp)
//   payload: concatenated serialized WahBitmaps in node order
//   footer:  CRC-32 + "MLCF" (core/layout.hpp), like .meta/.idx/.dat
//
// The header is small (tens of bytes per node) and read once per store
// open; individual node bitmaps are fetched on demand by the query
// engine and cached in the FragmentCache keyed by epoch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "core/layout.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc::index {

inline constexpr std::uint32_t kHbxMagic = 0x5842'484Du;  // "MHBX"
inline constexpr std::uint32_t kHbxVersion = 1;

/// One tree node: an aggregate bitmap over a contiguous span of bins.
struct HbxNode {
  int level = 0;               ///< 0 = leaf (single bin).
  int first_bin = 0;           ///< First bin covered (inclusive).
  int bin_count = 0;           ///< Number of bins covered.
  std::uint64_t offset = 0;    ///< Payload-relative byte offset.
  std::uint64_t length = 0;    ///< Serialized WahBitmap length in bytes.
  /// segment_checksum of the serialized payload, under the variable's
  /// ChecksumKind (core/layout.hpp): the meta records the kind, not the
  /// .hbx, so the node table reads the same either way.
  std::uint64_t checksum = 0;
  std::uint64_t popcount = 0;  ///< Set bits (exact selectivity for planning).

  [[nodiscard]] int last_bin() const noexcept {
    return first_bin + bin_count - 1;
  }
};

/// Parsed .hbx header: the node table plus level structure. Immutable
/// after parse; shared across queries through the .hbx subfile's header
/// slot (Subfile in core/store.hpp).
struct HbxHeader {
  int fanout = 0;
  int num_bins = 0;
  std::uint64_t nbits = 0;      ///< Domain size every bitmap spans.
  std::uint64_t header_len = 0; ///< Serialized header size in bytes.
  /// Level-major, leaves first: nodes[level_begin[k]..level_begin[k+1]).
  std::vector<HbxNode> nodes;
  std::vector<std::size_t> level_begin;  ///< num_levels()+1 entries.

  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(level_begin.size()) - 1;
  }
  [[nodiscard]] std::span<const HbxNode> level(int k) const noexcept {
    return {nodes.data() + level_begin[static_cast<std::size_t>(k)],
            nodes.data() + level_begin[static_cast<std::size_t>(k) + 1]};
  }

  /// Serialized header image (magic through node table, no payload).
  [[nodiscard]] Bytes serialize() const;
  static Result<HbxHeader> deserialize(std::span<const std::uint8_t> bytes);
};

/// A freshly built index: the parsed header, the node bitmaps (level-major,
/// same order as header.nodes) and the sealed on-disk file image.
struct HbxBuild {
  HbxHeader header;
  std::vector<WahBitmap> bitmaps;
  Bytes file;
};

/// Build the tree from per-bin leaf bitmaps (all spanning `nbits`
/// positions), checksumming each node payload under `checksum`.
/// Precondition: fanout >= 2, leaves non-empty.
HbxBuild build_index(const std::vector<WahBitmap>& leaves,
                     std::uint64_t nbits, int fanout, ChecksumKind checksum);

/// Minimal top-down cover of the aligned bin span [first_bin, last_bin]
/// (inclusive): node ids whose aggregate bitmaps OR to exactly the union
/// of those bins' leaves. Fully-covered subtrees are taken whole;
/// partially-covered ones descend; disjoint ones are pruned. Returns
/// nodes in (level descending, bin ascending) order; empty when the span
/// is empty or out of range.
std::vector<std::size_t> cover(const HbxHeader& h, int first_bin,
                               int last_bin);

}  // namespace mloc::index
