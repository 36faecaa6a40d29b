#include "baselines/scidb_like.hpp"

#include <algorithm>

#include "parallel/runtime.hpp"
#include "util/timer.hpp"

namespace mloc::baselines {

Region SciDbStore::stored_region(ChunkId id) const {
  const Region base = chunks_.chunk_region(id);
  Coord lo{}, hi{};
  for (int d = 0; d < shape_.ndims(); ++d) {
    lo[d] = base.lo(d) >= opts_.overlap ? base.lo(d) - opts_.overlap : 0;
    hi[d] = std::min<std::uint32_t>(base.hi(d) + opts_.overlap,
                                    shape_.extent(d));
  }
  return {shape_.ndims(), lo, hi};
}

Result<SciDbStore> SciDbStore::create(pfs::PfsStorage* fs, std::string name,
                                      const Grid& grid, Options opts) {
  MLOC_CHECK(fs != nullptr);
  SciDbStore store;
  store.fs_ = fs;
  store.shape_ = grid.shape();
  store.opts_ = opts;
  store.chunks_ = ChunkGrid(grid.shape(), opts.chunk_shape);
  MLOC_ASSIGN_OR_RETURN(store.file_, fs->create(name + ".scidb"));

  store.chunk_offsets_.resize(store.chunks_.num_chunks());
  store.chunk_lengths_.resize(store.chunks_.num_chunks());
  std::uint64_t offset = 0;
  for (ChunkId c = 0; c < store.chunks_.num_chunks(); ++c) {
    const Region wide = store.stored_region(c);
    const std::vector<double> vals = grid.extract(wide);
    const Bytes raw = doubles_to_bytes(vals);
    store.chunk_offsets_[c] = offset;
    store.chunk_lengths_[c] = raw.size();
    MLOC_RETURN_IF_ERROR(fs->append(store.file_, raw));
    offset += raw.size();
  }
  return store;
}

std::uint64_t SciDbStore::data_bytes() const {
  return fs_->file_size(file_).value_or(0);
}

Result<QueryResult> SciDbStore::value_query(const Region& sc,
                                            int num_ranks) const {
  if (num_ranks < 1) return invalid_argument("num_ranks must be >= 1");
  if (sc.ndims() != shape_.ndims()) {
    return invalid_argument("scidb: SC dimensionality mismatch");
  }
  QueryResult result;
  if (sc.empty()) return result;
  const auto covering = chunks_.chunks_overlapping(sc);

  struct RankOut {
    std::vector<std::pair<std::uint64_t, double>> hits;
    double overhead_s = 0;
  };
  std::vector<RankOut> outs(num_ranks);
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), num_ranks,
      [&](parallel::RankContext& ctx) -> Status {
        const auto ranges =
            parallel::split_even(covering.size(), ctx.num_ranks);
        for (std::size_t i = ranges[ctx.rank].first;
             i < ranges[ctx.rank].second; ++i) {
          const ChunkId c = covering[i];
          MLOC_ASSIGN_OR_RETURN(
              const Bytes raw,
              fs_->read(file_, chunk_offsets_[c], chunk_lengths_[c],
                        &ctx.io_log, static_cast<std::uint32_t>(ctx.rank)));
          Stopwatch sw;
          MLOC_ASSIGN_OR_RETURN(const std::vector<double> vals,
                                bytes_to_doubles(raw));
          const Region wide = stored_region(c);
          const Region core = chunks_.chunk_region(c);  // avoid overlap dupes
          std::size_t k = 0;
          wide.for_each([&](const Coord& coord) {
            const double v = vals[k++];
            if (core.contains(coord) && sc.contains(coord)) {
              outs[ctx.rank].hits.emplace_back(shape_.linearize(coord), v);
            }
          });
          ctx.times.reconstruct += sw.seconds();
          outs[ctx.rank].overhead_s +=
              opts_.per_chunk_overhead_s +
              static_cast<double>(chunk_lengths_[c]) / opts_.executor_bps;
        }
        return Status::ok();
      },
      &result));

  std::vector<std::pair<std::uint64_t, double>> merged;
  double max_overhead = 0;
  for (auto& o : outs) {
    merged.insert(merged.end(), o.hits.begin(), o.hits.end());
    max_overhead = std::max(max_overhead, o.overhead_s);
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [pos, val] : merged) {
    result.positions.push_back(pos);
    result.values.push_back(val);
  }
  result.times.reconstruct += max_overhead;
  return result;
}

Result<QueryResult> SciDbStore::region_query(ValueConstraint vc,
                                             bool values_needed,
                                             int num_ranks) const {
  if (num_ranks < 1) return invalid_argument("num_ranks must be >= 1");
  QueryResult result;

  struct RankOut {
    std::vector<std::pair<std::uint64_t, double>> hits;
    double overhead_s = 0;
  };
  std::vector<RankOut> outs(num_ranks);
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), num_ranks,
      [&](parallel::RankContext& ctx) -> Status {
        const auto ranges =
            parallel::split_even(chunks_.num_chunks(), ctx.num_ranks);
        for (std::size_t i = ranges[ctx.rank].first;
             i < ranges[ctx.rank].second; ++i) {
          const ChunkId c = static_cast<ChunkId>(i);
          MLOC_ASSIGN_OR_RETURN(
              const Bytes raw,
              fs_->read(file_, chunk_offsets_[c], chunk_lengths_[c],
                        &ctx.io_log, static_cast<std::uint32_t>(ctx.rank)));
          Stopwatch sw;
          MLOC_ASSIGN_OR_RETURN(const std::vector<double> vals,
                                bytes_to_doubles(raw));
          const Region wide = stored_region(c);
          const Region core = chunks_.chunk_region(c);  // avoid overlap dupes
          std::size_t k = 0;
          wide.for_each([&](const Coord& coord) {
            const double v = vals[k++];
            if (core.contains(coord) && vc.matches(v)) {
              outs[ctx.rank].hits.emplace_back(shape_.linearize(coord), v);
            }
          });
          ctx.times.reconstruct += sw.seconds();
          outs[ctx.rank].overhead_s +=
              opts_.per_chunk_overhead_s +
              static_cast<double>(chunk_lengths_[c]) / opts_.executor_bps;
        }
        return Status::ok();
      },
      &result));

  std::vector<std::pair<std::uint64_t, double>> merged;
  double max_overhead = 0;
  for (auto& o : outs) {
    merged.insert(merged.end(), o.hits.begin(), o.hits.end());
    max_overhead = std::max(max_overhead, o.overhead_s);
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [pos, val] : merged) {
    result.positions.push_back(pos);
    if (values_needed) result.values.push_back(val);
  }
  result.times.reconstruct += max_overhead;
  return result;
}

}  // namespace mloc::baselines
