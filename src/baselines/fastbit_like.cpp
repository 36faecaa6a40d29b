#include "baselines/fastbit_like.hpp"

#include <algorithm>

#include "parallel/runtime.hpp"
#include "util/timer.hpp"

namespace mloc::baselines {

Result<FastBitStore> FastBitStore::create(pfs::PfsStorage* fs,
                                          std::string name, const Grid& grid,
                                          int num_bins) {
  MLOC_CHECK(fs != nullptr);
  FastBitStore store;
  store.fs_ = fs;
  store.shape_ = grid.shape();

  // Precision-style fine binning over a sample.
  std::vector<double> sample;
  const std::uint64_t stride = std::max<std::uint64_t>(1, grid.size() / 100000);
  for (std::uint64_t i = 0; i < grid.size(); i += stride) {
    sample.push_back(grid.at_linear(i));
  }
  store.scheme_ = BinningScheme::equal_frequency(sample, num_bins);
  const int nbins = store.scheme_.num_bins();

  // One bitmap per bin.
  std::vector<Bitmap> bitmaps(nbins, Bitmap(grid.size()));
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    bitmaps[store.scheme_.bin_of(grid.at_linear(i))].set(i);
  }

  // Index file: binning scheme + WAH bitmaps.
  ByteWriter w;
  store.scheme_.serialize(w);
  w.put_varint(static_cast<std::uint64_t>(nbins));
  for (const auto& b : bitmaps) {
    WahBitmap::compress(b).serialize(w);
  }
  MLOC_ASSIGN_OR_RETURN(store.index_file_, fs->create(name + ".fbidx"));
  MLOC_RETURN_IF_ERROR(fs->append(store.index_file_, w.bytes()));

  MLOC_ASSIGN_OR_RETURN(store.raw_file_, fs->create(name + ".fbraw"));
  MLOC_RETURN_IF_ERROR(
      fs->append(store.raw_file_, doubles_to_bytes(grid.values())));
  return store;
}

Result<FastBitStore> FastBitStore::open(pfs::PfsStorage* fs,
                                        const std::string& name,
                                        NDShape shape) {
  MLOC_CHECK(fs != nullptr);
  FastBitStore store;
  store.fs_ = fs;
  store.shape_ = shape;
  MLOC_ASSIGN_OR_RETURN(store.index_file_, fs->open(name + ".fbidx"));
  MLOC_ASSIGN_OR_RETURN(store.raw_file_, fs->open(name + ".fbraw"));
  // The scheme is re-read on each query load; read it once here for bin
  // bound queries (cheap, cached in memory thereafter).
  MLOC_ASSIGN_OR_RETURN(std::uint64_t idx_size,
                        fs->file_size(store.index_file_));
  MLOC_ASSIGN_OR_RETURN(Bytes idx, fs->read(store.index_file_, 0, idx_size));
  ByteReader r(idx);
  MLOC_ASSIGN_OR_RETURN(store.scheme_, BinningScheme::deserialize(r));
  return store;
}

std::uint64_t FastBitStore::data_bytes() const {
  return fs_->file_size(raw_file_).value_or(0);
}

std::uint64_t FastBitStore::index_bytes() const {
  return fs_->file_size(index_file_).value_or(0);
}

Result<std::vector<WahBitmap>> FastBitStore::load_index(
    pfs::IoLog* log, ComponentTimes* times) const {
  // The whole index file is fetched from storage — FastBit's in-memory
  // operating assumption, charged to I/O per query (paper §IV-C-2).
  MLOC_ASSIGN_OR_RETURN(std::uint64_t idx_size, fs_->file_size(index_file_));
  MLOC_ASSIGN_OR_RETURN(Bytes idx,
                        fs_->read(index_file_, 0, idx_size, log, 0));
  Stopwatch sw;
  ByteReader r(idx);
  MLOC_ASSIGN_OR_RETURN(BinningScheme scheme, BinningScheme::deserialize(r));
  (void)scheme;
  MLOC_ASSIGN_OR_RETURN(std::uint64_t nbins, r.get_varint());
  if (nbins > (1ull << 24)) return corrupt_data("fastbit: bin count");
  std::vector<WahBitmap> bitmaps;
  bitmaps.reserve(nbins);
  for (std::uint64_t b = 0; b < nbins; ++b) {
    MLOC_ASSIGN_OR_RETURN(WahBitmap bm, WahBitmap::deserialize(r));
    bitmaps.push_back(std::move(bm));
  }
  times->decompress += sw.seconds();
  return bitmaps;
}

Result<std::vector<double>> FastBitStore::read_values_paged(
    std::span<const std::uint64_t> positions, pfs::IoLog* io) const {
  constexpr std::uint64_t kPageBytes = 1 << 20;
  constexpr std::uint64_t kPerPage = kPageBytes / sizeof(double);
  MLOC_ASSIGN_OR_RETURN(std::uint64_t file_bytes, fs_->file_size(raw_file_));
  std::vector<double> out(positions.size());
  Bytes page;
  std::uint64_t loaded_page = ~0ull;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint64_t p = positions[i];
    const std::uint64_t page_idx = p / kPerPage;
    if (page_idx != loaded_page) {
      const std::uint64_t off = page_idx * kPageBytes;
      const std::uint64_t len = std::min(kPageBytes, file_bytes - off);
      MLOC_ASSIGN_OR_RETURN(page, fs_->read(raw_file_, off, len, io, 0));
      loaded_page = page_idx;
    }
    std::memcpy(&out[i], page.data() + (p % kPerPage) * sizeof(double),
                sizeof(double));
  }
  return out;
}

// Both queries run as one rank: FastBit's query path — index load, bitmap
// work and raw-value fetches — is serial, and is charged that way
// (DESIGN.md, modeling substitutions).
Result<QueryResult> FastBitStore::region_query(ValueConstraint vc,
                                               bool values_needed) const {
  QueryResult result;
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), 1,
      [&](parallel::RankContext& ctx) -> Status {
        MLOC_ASSIGN_OR_RETURN(auto bitmaps,
                              load_index(&ctx.io_log, &ctx.times));
        const auto span = scheme_.bins_overlapping(vc.lo, vc.hi);
        if (span.empty()) return Status::ok();

        Stopwatch sw;
        // OR together aligned bins; collect candidate (edge) bins for checks.
        WahBitmap matched;
        bool have = false;
        std::vector<int> candidates;
        for (int b = span.first; b <= span.last; ++b) {
          if (scheme_.aligned(b, vc.lo, vc.hi)) {
            matched = have ? WahBitmap::logical_or(matched, bitmaps[b])
                           : bitmaps[b];
            have = true;
          } else {
            candidates.push_back(b);
          }
        }
        Bitmap plain = have ? matched.decompress() : Bitmap(shape_.volume());
        ctx.times.reconstruct += sw.seconds();
        result.bins_touched =
            static_cast<std::uint64_t>(span.last - span.first + 1);
        result.aligned_bins =
            result.bins_touched - static_cast<std::uint64_t>(candidates.size());

        // Candidate check: fetch raw values page-wise (FastBit reads the raw
        // column in large sequential pages, not per point).
        for (int b : candidates) {
          Bitmap cand = bitmaps[b].decompress();
          std::vector<std::uint64_t> cand_pos;
          cand.for_each_set(
              [&](std::uint64_t pos) { cand_pos.push_back(pos); });
          MLOC_ASSIGN_OR_RETURN(auto vals,
                                read_values_paged(cand_pos, &ctx.io_log));
          Stopwatch sw_check;
          for (std::size_t i = 0; i < cand_pos.size(); ++i) {
            if (vc.matches(vals[i])) plain.set(cand_pos[i]);
          }
          ctx.times.reconstruct += sw_check.seconds();
        }

        Stopwatch sw2;
        plain.for_each_set([&](std::uint64_t pos) {
          result.positions.push_back(pos);
        });
        ctx.times.reconstruct += sw2.seconds();
        if (values_needed) {
          MLOC_ASSIGN_OR_RETURN(
              result.values, read_values_paged(result.positions, &ctx.io_log));
        }
        return Status::ok();
      },
      &result));
  return result;
}

Result<QueryResult> FastBitStore::value_query(const Region& sc) const {
  if (sc.ndims() != shape_.ndims()) {
    return invalid_argument("fastbit: SC dimensionality mismatch");
  }
  QueryResult result;
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), 1,
      [&](parallel::RankContext& ctx) -> Status {
        // FastBit still pays the full index load before query processing.
        MLOC_RETURN_IF_ERROR(load_index(&ctx.io_log, &ctx.times).status());
        if (sc.empty()) return Status::ok();

        // Fetch the SC's rows from the raw file.
        const int last = shape_.ndims() - 1;
        Coord hi = sc.hi();
        hi[last] = sc.lo(last) + 1;
        const Region outer(sc.ndims(), sc.lo(), hi);
        const std::uint32_t run = sc.extent(last);
        std::vector<std::uint64_t> run_starts;  // linear offsets
        outer.for_each([&](const Coord& c) {
          run_starts.push_back(shape_.linearize(c));
        });
        for (const std::uint64_t start : run_starts) {
          MLOC_ASSIGN_OR_RETURN(
              const Bytes raw,
              fs_->read(raw_file_, start * sizeof(double),
                        static_cast<std::uint64_t>(run) * sizeof(double),
                        &ctx.io_log, 0));
          Stopwatch sw;
          MLOC_ASSIGN_OR_RETURN(const std::vector<double> vals,
                                bytes_to_doubles(raw));
          for (std::uint32_t i = 0; i < run; ++i) {
            result.positions.push_back(start + i);
            result.values.push_back(vals[i]);
          }
          ctx.times.reconstruct += sw.seconds();
        }
        return Status::ok();
      },
      &result));
  return result;
}

}  // namespace mloc::baselines
