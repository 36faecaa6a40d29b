// FastBit-like baseline: binned bitmap index with WAH compression.
//
// Mechanism-faithful reimplementation of the comparator in paper §IV-A-2:
// values are binned (precision-style fine binning, default 1000 bins —
// FastBit's per-pattern binning yields indices of 30–200% of the raw data,
// Table I shows 125%), each bin owning a WAH-compressed bitmap of the
// positions it contains. The raw data file is kept alongside (FastBit
// indexes, it does not re-encode).
//
// The performance-critical behaviour the paper observes: FastBit assumes
// the index resides in memory; on disk-resident datasets the *entire*
// index must be loaded per query before any bitmap work happens, which
// dominates response time for both region and value queries.
#pragma once

#include <string>
#include <vector>

#include "array/grid.hpp"
#include "binning/binning.hpp"
#include "bitmap/bitmap.hpp"
#include "pfs/pfs.hpp"
#include "query/query.hpp"

namespace mloc::baselines {

class FastBitStore {
 public:
  /// Build index (`<name>.fbidx`) and raw data (`<name>.fbraw`) files.
  static Result<FastBitStore> create(pfs::PfsStorage* fs, std::string name,
                                     const Grid& grid, int num_bins = 1000);
  static Result<FastBitStore> open(pfs::PfsStorage* fs,
                                   const std::string& name, NDShape shape);

  /// Region query (VC): load index, OR covered bins' bitmaps; candidate
  /// (edge) bins are verified against the raw data.
  [[nodiscard]] Result<QueryResult> region_query(ValueConstraint vc,
                                                 bool values_needed) const;

  /// Value query (SC): FastBit has no spatial structure — the index is
  /// still loaded (its operating assumption), then qualifying cells are
  /// fetched from the raw file by computed offsets.
  [[nodiscard]] Result<QueryResult> value_query(const Region& sc) const;

  [[nodiscard]] std::uint64_t data_bytes() const;
  [[nodiscard]] std::uint64_t index_bytes() const;

 private:
  FastBitStore() = default;

  /// Read the full index file (the per-query load) into bin bitmaps.
  Result<std::vector<WahBitmap>> load_index(pfs::IoLog* log,
                                            ComponentTimes* times) const;

  /// Fetch raw values at ascending positions via 1 MiB page reads
  /// (FastBit's sequential candidate-check access pattern).
  Result<std::vector<double>> read_values_paged(
      std::span<const std::uint64_t> positions, pfs::IoLog* io) const;

  pfs::PfsStorage* fs_ = nullptr;
  pfs::FileId index_file_ = 0;
  pfs::FileId raw_file_ = 0;
  NDShape shape_;
  BinningScheme scheme_;
};

}  // namespace mloc::baselines
