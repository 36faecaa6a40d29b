// execute_query — stages 2 and 3 of the query engine.
//
// Per rank (sequential, deterministic): inject the plan-time header reads
// into the rank's IoLog, then walk the rank's tasks in consecutive
// same-bin runs. Each run's segments are merged by the IoScheduler into a
// handful of batch extents, fetched with one vectorized read_batch call,
// and each fragment is decoded and emitted by decode_fragment, which
// writes its points into the arrival buffer in task order and hands back
// at most one cache candidate, inserted right away. The gather then
// writes the arrivals into the result in grid order. The arrival buffer
// and every other decode and gather buffer are the calling thread's
// QueryScratch (exec/scratch.hpp), reused from query to query. The engine
// starts no thread; concurrency comes from the caller (the QueryService
// worker pool runs whole queries side by side).
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/decode_pipeline.hpp"
#include "exec/engine.hpp"
#include "exec/gather.hpp"
#include "exec/io_scheduler.hpp"
#include "parallel/runtime.hpp"
#include "plod/plod.hpp"
#include "util/timer.hpp"

namespace mloc::exec {

namespace {

/// The calling thread's QueryScratch. A query has it from start to end:
/// queries on one thread run one after another, never nested.
thread_local QueryScratch t_scratch;

/// Readies the thread's scratch for the next query when a query ends,
/// however it ends.
struct ScratchLease {
  ~ScratchLease() { t_scratch.finish_query(); }
};

/// One batch read over subfiles whose footers this query has checked. The
/// footer covers the whole file the record describes, so a read past its
/// end means the file is no longer that file: a re-ingest shortened it
/// under a query still holding the old record. That is CorruptData, the
/// code a checksum mismatch on a rewritten segment gives.
Result<std::vector<Bytes>> read_checked(
    const pfs::PfsStorage& fs, std::span<const pfs::ReadRequest> requests,
    parallel::RankContext& ctx) {
  auto buffers = fs.read_batch(requests, &ctx.io_log,
                               static_cast<std::uint32_t>(ctx.rank));
  if (!buffers.is_ok() &&
      buffers.status().code() == ErrorCode::kOutOfRange) {
    return corrupt_data("subfile shorter than its record: " +
                        buffers.status().message());
  }
  return buffers;
}

/// The checks execute_query and plan_query share: the rank count (a
/// remote request must not size the plan) and the SC's dimensionality.
Status check_ranks_and_sc(const NDShape& shape, const Query& q,
                          int num_ranks) {
  if (num_ranks < 1 || num_ranks > kMaxRanks) {
    return invalid_argument("query: num_ranks must be in [1, " +
                            std::to_string(kMaxRanks) + "]");
  }
  if (q.sc.has_value() && q.sc->ndims() != shape.ndims()) {
    return invalid_argument("query: SC dimensionality mismatch");
  }
  return Status::ok();
}

}  // namespace

Status validate_query(const MlocStore& store, const VariableState& var,
                      const Query& q, int num_ranks) {
  MLOC_RETURN_IF_ERROR(check_ranks_and_sc(store.config().shape, q, num_ranks));
  if (q.plod_level < 1 || q.plod_level > 7) {
    return invalid_argument("query: PLoD level must be in [1,7]");
  }
  if (q.plod_level < 7 && !var.plod_capable()) {
    return unsupported(
        "query: PLoD levels below full precision need a byte-column codec "
        "(MLOC-COL); this store uses " + var.layout.codec);
  }
  // A degenerate ([lo, lo)) or NaN value range can never match; surface it
  // as a caller error rather than silently returning an empty result.
  if (q.vc.has_value() && !q.vc->valid()) {
    return invalid_argument(
        "query: value constraint is empty or NaN (requires lo < hi)");
  }
  return Status::ok();
}

Result<PlanSummary> plan_query(const MlocStore& store,
                               const VariableState& var, const Query& q,
                               int num_ranks, const ExecOptions& opts) {
  MLOC_RETURN_IF_ERROR(check_ranks_and_sc(store.config().shape, q, num_ranks));
  MLOC_ASSIGN_OR_RETURN(ReadPlan plan, build_plan(store, var, q, num_ranks,
                                                  opts, /*warm=*/false));
  return std::move(plan.summary);
}

Result<QueryResult> execute_query(const MlocStore& store,
                                  const VariableState& var, const Query& q,
                                  int num_ranks, const Bitmap* position_filter,
                                  const ExecOptions& opts,
                                  Bitmap* region_bits) {
  MLOC_RETURN_IF_ERROR(validate_query(store, var, q, num_ranks));
  if (region_bits != nullptr && q.values_needed) {
    return invalid_argument("query: region_bits requires a region-only query");
  }
  const pfs::PfsStorage& fs = store.storage();
  const NDShape& shape = store.config().shape;
  FragmentProvider* const provider = store.fragment_provider();

  MLOC_ASSIGN_OR_RETURN(ReadPlan plan,
                        build_plan(store, var, q, num_ranks, opts,
                                   /*warm=*/true, position_filter));
  const PlanSummary& sum = plan.summary;

  QueryResult result;
  result.bins_touched = sum.bins_touched;
  result.aligned_bins = sum.aligned_bins;
  result.fragments_read = sum.fragments_to_fetch;
  result.fragments_skipped = sum.fragments_skipped;
  result.cache = sum.cache;
  result.exec = sum.stats;

  // A region-only answer that folds .hbx nodes, or one the caller takes as
  // a bitmap, accumulates in a grid bitmap: node bitmaps OR in word by
  // word and the answer is already in grid order. Only region-only plans
  // carry .hbx tasks.
  const bool has_hbx_tasks =
      std::any_of(plan.ranks.begin(), plan.ranks.end(),
                  [](const RankPlan& rp) { return !rp.hbx_tasks.empty(); });
  std::optional<Bitmap> grid;
  if (has_hbx_tasks || region_bits != nullptr) {
    grid.emplace(shape.volume());
  }

  // The thread's scratch holds the arrival buffer: every fragment's
  // qualifying points, appended by decode_fragment. One buffer serves all
  // ranks because parallel::run_query_ranks runs rank bodies one after
  // another on this thread, so ranks append in task order.
  const ScratchLease lease{};
  QueryScratch& scratch = t_scratch;

  const auto rank_body = [&](parallel::RankContext& ctx) -> Status {
    RankPlan& rp = plan.ranks[static_cast<std::size_t>(ctx.rank)];

    // Cold header bytes were consumed by the plan builder; execution is
    // charged for them here so the IoLog matches the planned I/O exactly.
    for (const auto& rec : rp.header_reads) {
      ctx.io_log.add(rec.file, rec.offset, rec.len, rec.rank);
    }
    ctx.times.reconstruct += rp.header_parse_s;

    // --- Hierarchical-index nodes: one batch read covers this rank's .hbx
    // segments (scheduled exactly as the plan predicted), then each node's
    // aggregate bitmap is folded into the grid bitmap — cached nodes
    // straight from the provider, fresh ones checksum-verified, decoded,
    // and published back.
    if (!rp.hbx_tasks.empty()) {
      if (!rp.hbx_segments.empty()) {
        MLOC_RETURN_IF_ERROR(var.hbx->check_footer(fs));
      }
      std::vector<SlotRef> hbx_slots;
      const std::vector<pfs::ReadRequest> hbx_requests =
          opts.naive_io
              ? naive_schedule(rp.hbx_segments, &hbx_slots)
              : coalesce_segments(rp.hbx_segments, kCoalesceGapBytes,
                                  &hbx_slots);
      MLOC_ASSIGN_OR_RETURN(const std::vector<Bytes> hbx_buffers,
                            read_checked(fs, hbx_requests, ctx));

      for (const HbxNodeTask& task : rp.hbx_tasks) {
        const index::HbxNode& node = plan.hbx_header->nodes[task.node];
        const WahBitmap* wah = nullptr;
        WahBitmap fresh;
        if (task.cached != nullptr) {
          wah = &task.cached->node_bitmap;
        } else {
          const SlotRef& slot = hbx_slots[task.seg_index];
          const Bytes& buf =
              hbx_buffers[static_cast<std::size_t>(slot.extent)];
          const std::span<const std::uint8_t> raw(buf.data() + slot.delta,
                                                  node.length);
          if (segment_checksum(var.checksum, raw) != node.checksum) {
            return corrupt_data("hbx: node bitmap checksum mismatch");
          }
          Stopwatch sw;
          ByteReader rd(raw);
          MLOC_ASSIGN_OR_RETURN(fresh, WahBitmap::deserialize(rd));
          ctx.times.decompress += sw.seconds();
          if (fresh.size_bits() != shape.volume() ||
              fresh.count() != node.popcount) {
            return corrupt_data("hbx: node bitmap geometry mismatch");
          }
          if (provider != nullptr) {
            auto data = std::make_shared<FragmentData>();
            data->node_bitmap = fresh;
            data->has_node = true;
            data->count = node.popcount;
            provider->insert({var.name, static_cast<int>(task.node),
                              kHbxNodeChunk, var.epoch},
                             std::move(data));
          }
          wah = &fresh;
        }

        Stopwatch sw_fold;
        if (!q.sc.has_value() && position_filter == nullptr) {
          wah->or_into(*grid);
        } else {
          wah->decompress().for_each_set([&](std::uint64_t pos) {
            if (q.sc.has_value() &&
                !q.sc->contains(shape.delinearize(pos))) {
              return;
            }
            if (position_filter != nullptr && !position_filter->get(pos)) {
              return;
            }
            grid->set(pos);
          });
        }
        ctx.times.reconstruct += sw_fold.seconds();
      }
    }

    std::size_t a = 0;
    while (a < rp.tasks.size()) {
      std::size_t b = a;
      while (b < rp.tasks.size() && rp.tasks[b].bin == rp.tasks[a].bin) ++b;
      const VariableState::Bin& bin =
          var.bins[static_cast<std::size_t>(rp.tasks[a].bin)];
      const std::size_t seg_begin = rp.tasks[a].seg_begin;
      const std::size_t seg_end =
          rp.tasks[b - 1].seg_begin + rp.tasks[b - 1].seg_count;

      // Lazy footer verification, once per touched subfile per run — the
      // same checks the monolithic path made before its first reads.
      bool need_idx = false;
      bool need_dat = false;
      for (std::size_t s = seg_begin; s < seg_end; ++s) {
        (rp.segments[s].file == bin.idx.file ? need_idx : need_dat) = true;
      }
      if (need_idx) MLOC_RETURN_IF_ERROR(bin.idx.check_footer(fs));
      if (need_dat) MLOC_RETURN_IF_ERROR(bin.dat.check_footer(fs));

      // Stage 2: merge the run's segments and fetch them in one batch.
      std::vector<SlotRef> slots;
      const std::span<const PlannedSegment> run_segs(
          rp.segments.data() + seg_begin, seg_end - seg_begin);
      const std::vector<pfs::ReadRequest> requests =
          opts.naive_io
              ? naive_schedule(run_segs, &slots)
              : coalesce_segments(run_segs, kCoalesceGapBytes, &slots);
      MLOC_ASSIGN_OR_RETURN(const std::vector<Bytes> buffers,
                            read_checked(fs, requests, ctx));

      // Stage 3: decode + filter each fragment into the arrival buffer, in
      // task order.
      for (std::size_t ti = a; ti < b; ++ti) {
        const FragmentTask& task = rp.tasks[ti];
        if (task.skipped) continue;
        DecodeInput in;
        in.var = &var;
        in.shape = &shape;
        in.for_provider = provider != nullptr;
        in.q = &q;
        in.position_filter = position_filter;
        in.task = &task;
        in.segments = std::span<const PlannedSegment>(rp.segments)
                          .subspan(task.seg_begin, task.seg_count);
        in.slots = std::span<const SlotRef>(slots).subspan(
            task.seg_begin - seg_begin, task.seg_count);
        in.buffers = &buffers;
        DecodedFragment d =
            decode_fragment(in, scratch.decode, scratch.arrivals);
        MLOC_RETURN_IF_ERROR(std::move(d.status));
        ctx.times.decompress += d.decompress_s;
        ctx.times.reconstruct += d.reconstruct_s;
        if (d.candidate != nullptr) {
          provider->insert({var.name, task.bin, task.frag->chunk, var.epoch},
                           std::move(d.candidate));
        }
      }
      a = b;
    }
    return Status::ok();
  };
  MLOC_RETURN_IF_ERROR(
      parallel::run_query_ranks(fs.config(), num_ranks, rank_body, &result));

  // --- Gather: the arrivals into the result, in grid order (root process
  // role).
  Stopwatch sw_gather;
  if (grid.has_value()) {
    for (const std::uint64_t pos : scratch.arrivals.positions.span()) {
      grid->set(pos);
    }
    if (region_bits != nullptr) {
      *region_bits = std::move(*grid);
    } else {
      result.positions.reserve(grid->count());
      grid->for_each_set(
          [&](std::uint64_t pos) { result.positions.push_back(pos); });
    }
  } else {
    gather(scratch.arrivals, shape.volume(), scratch.gather, result.positions,
           result.values);
  }
  // Ranks synchronize before the gather, so it adds to their CPU maximum.
  result.times.reconstruct += sw_gather.seconds();
  return result;
}

std::size_t thread_scratch_bytes() { return t_scratch.capacity_bytes(); }

}  // namespace mloc::exec
