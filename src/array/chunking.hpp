// Chunk lattice over an N-D array.
//
// MLOC splits every variable into fixed-size chunks (paper: 2048x2048 for
// GTS, 128^3 for S3D). Chunks are the unit of Hilbert-curve reordering,
// binning statistics, compression, and rank assignment. ChunkGrid maps
// between chunk ids (row-major over the chunk lattice), chunk coordinates,
// and element regions; ragged right/bottom edges are clipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "array/region.hpp"
#include "array/shape.hpp"

namespace mloc {

using ChunkId = std::uint32_t;

class ChunkGrid {
 public:
  ChunkGrid() = default;

  /// Lattice of `chunk_shape`-sized tiles covering `array_shape`.
  ChunkGrid(NDShape array_shape, NDShape chunk_shape);

  [[nodiscard]] const NDShape& array_shape() const noexcept { return array_; }
  [[nodiscard]] const NDShape& chunk_shape() const noexcept { return chunk_; }
  /// Shape of the chunk lattice itself (#chunks per dimension).
  [[nodiscard]] const NDShape& lattice_shape() const noexcept { return lattice_; }
  [[nodiscard]] std::uint32_t num_chunks() const noexcept {
    return static_cast<std::uint32_t>(lattice_.volume());
  }

  /// Chunk-lattice coordinate of a chunk id.
  [[nodiscard]] Coord chunk_coord(ChunkId id) const noexcept {
    return lattice_.delinearize(id);
  }
  [[nodiscard]] ChunkId chunk_id(const Coord& chunk_coord) const noexcept {
    return static_cast<ChunkId>(lattice_.linearize(chunk_coord));
  }

  /// Element region covered by a chunk (clipped at array bounds).
  [[nodiscard]] Region chunk_region(ChunkId id) const noexcept;

  /// Chunk containing an element coordinate.
  [[nodiscard]] ChunkId chunk_of(const Coord& element) const noexcept;

  /// Call f(offset) with the array row-major offset of each chunk-local
  /// row-major offset in `locals`, in order. Every local offset must lie
  /// below the chunk region's volume.
  template <class F>
  void for_each_array_offset(ChunkId id, std::span<const std::uint32_t> locals,
                             F&& f) const {
    const Region region = chunk_region(id);
    Coord extents{};
    for (int d = 0; d < region.ndims(); ++d) extents[d] = region.extent(d);
    const NDShape local_shape(region.ndims(), extents);
    for (const std::uint32_t local : locals) {
      Coord c = local_shape.delinearize(local);
      for (int d = 0; d < region.ndims(); ++d) c[d] += region.lo(d);
      f(array_.linearize(c));
    }
  }

  /// Ids of all chunks whose region intersects `query`, ascending id order.
  [[nodiscard]] std::vector<ChunkId> chunks_overlapping(const Region& query) const;

  /// Max number of elements any chunk holds (= chunk_shape volume).
  [[nodiscard]] std::uint64_t max_chunk_elements() const noexcept {
    return chunk_.volume();
  }

 private:
  NDShape array_;
  NDShape chunk_;
  NDShape lattice_;
};

}  // namespace mloc
