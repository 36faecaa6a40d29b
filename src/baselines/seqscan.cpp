#include "baselines/seqscan.hpp"

#include <algorithm>

#include "parallel/runtime.hpp"
#include "util/timer.hpp"

namespace mloc::baselines {

Result<SeqScanStore> SeqScanStore::create(pfs::PfsStorage* fs,
                                          std::string name, const Grid& grid) {
  MLOC_CHECK(fs != nullptr);
  SeqScanStore store;
  store.fs_ = fs;
  store.shape_ = grid.shape();
  MLOC_ASSIGN_OR_RETURN(store.file_, fs->create(name + ".raw"));
  const Bytes raw = doubles_to_bytes(grid.values());
  MLOC_RETURN_IF_ERROR(fs->append(store.file_, raw));
  return store;
}

Result<SeqScanStore> SeqScanStore::open(pfs::PfsStorage* fs,
                                        const std::string& name,
                                        NDShape shape) {
  MLOC_CHECK(fs != nullptr);
  SeqScanStore store;
  store.fs_ = fs;
  store.shape_ = shape;
  MLOC_ASSIGN_OR_RETURN(store.file_, fs->open(name + ".raw"));
  MLOC_ASSIGN_OR_RETURN(std::uint64_t size, fs->file_size(store.file_));
  if (size != shape.volume() * sizeof(double)) {
    return corrupt_data("seqscan: file size mismatches shape");
  }
  return store;
}

std::uint64_t SeqScanStore::data_bytes() const {
  return fs_->file_size(file_).value_or(0);
}

Result<QueryResult> SeqScanStore::region_query(ValueConstraint vc,
                                               bool values_needed,
                                               int num_ranks) const {
  if (num_ranks < 1) return invalid_argument("num_ranks must be >= 1");
  QueryResult result;
  const std::uint64_t n = shape_.volume();

  struct RankOut {
    std::vector<std::uint64_t> positions;
    std::vector<double> values;
  };
  std::vector<RankOut> outs(num_ranks);
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), num_ranks,
      [&](parallel::RankContext& ctx) -> Status {
        const auto ranges = parallel::split_even(n, ctx.num_ranks);
        const auto [lo, hi] = ranges[ctx.rank];
        if (lo == hi) return Status::ok();
        MLOC_ASSIGN_OR_RETURN(
            const Bytes raw,
            fs_->read(file_, lo * sizeof(double), (hi - lo) * sizeof(double),
                      &ctx.io_log, static_cast<std::uint32_t>(ctx.rank)));
        Stopwatch sw;
        MLOC_ASSIGN_OR_RETURN(const std::vector<double> vals,
                              bytes_to_doubles(raw));
        for (std::uint64_t i = 0; i < vals.size(); ++i) {
          if (vc.matches(vals[i])) {
            outs[ctx.rank].positions.push_back(lo + i);
            if (values_needed) outs[ctx.rank].values.push_back(vals[i]);
          }
        }
        ctx.times.reconstruct += sw.seconds();
        return Status::ok();
      },
      &result));

  for (auto& o : outs) {
    result.positions.insert(result.positions.end(), o.positions.begin(),
                            o.positions.end());
    result.values.insert(result.values.end(), o.values.begin(),
                         o.values.end());
  }
  return result;
}

Result<QueryResult> SeqScanStore::value_query(const Region& sc,
                                              int num_ranks) const {
  if (num_ranks < 1) return invalid_argument("num_ranks must be >= 1");
  if (sc.ndims() != shape_.ndims()) {
    return invalid_argument("seqscan: SC dimensionality mismatch");
  }
  QueryResult result;
  if (sc.empty()) return result;

  // Enumerate innermost-dimension runs of the region: each is contiguous
  // in the row-major file.
  const int last = shape_.ndims() - 1;
  Coord hi = sc.hi();
  hi[last] = sc.lo(last) + 1;
  const Region outer(sc.ndims(), sc.lo(), hi);
  const std::uint32_t run = sc.extent(last);
  std::vector<std::uint64_t> run_starts;  // linear offsets
  outer.for_each([&](const Coord& c) {
    run_starts.push_back(shape_.linearize(c));
  });

  struct RankOut {
    std::vector<std::uint64_t> positions;
    std::vector<double> values;
  };
  std::vector<RankOut> outs(num_ranks);
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), num_ranks,
      [&](parallel::RankContext& ctx) -> Status {
        const auto ranges =
            parallel::split_even(run_starts.size(), ctx.num_ranks);
        for (std::size_t r = ranges[ctx.rank].first;
             r < ranges[ctx.rank].second; ++r) {
          MLOC_ASSIGN_OR_RETURN(
              const Bytes raw,
              fs_->read(file_, run_starts[r] * sizeof(double),
                        static_cast<std::uint64_t>(run) * sizeof(double),
                        &ctx.io_log, static_cast<std::uint32_t>(ctx.rank)));
          Stopwatch sw;
          MLOC_ASSIGN_OR_RETURN(const std::vector<double> vals,
                                bytes_to_doubles(raw));
          for (std::uint32_t i = 0; i < run; ++i) {
            outs[ctx.rank].positions.push_back(run_starts[r] + i);
            outs[ctx.rank].values.push_back(vals[i]);
          }
          ctx.times.reconstruct += sw.seconds();
        }
        return Status::ok();
      },
      &result));

  // Runs were assigned in ascending order, so concatenation stays sorted.
  for (auto& o : outs) {
    result.positions.insert(result.positions.end(), o.positions.begin(),
                            o.positions.end());
    result.values.insert(result.values.end(), o.values.begin(),
                         o.values.end());
  }
  return result;
}

}  // namespace mloc::baselines
