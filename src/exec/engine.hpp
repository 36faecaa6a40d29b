// Staged query engine (paper §III-D executed in three explicit stages).
//
// MlocStore::execute / multivar_select are thin wrappers over
// execute_query; MlocStore::plan costs the identical plan through
// plan_query. Both read the variable's record (VariableState) directly,
// with only the store-wide storage, grid shape and FragmentProvider
// beside it, all taken from the MlocStore that owns the record.
//
// Pipeline per query:
//   build_plan     resolves bins → fragments → segments; consults the
//                  FragmentProvider and the subfile header slots so every
//                  cache decision is made before the first payload read;
//   IoScheduler    merges each rank's segments into batch extents
//                  (exec/io_scheduler.hpp);
//   decode_fragment decodes + filters each fragment and appends its
//                  points to the arrival buffer, in task order
//                  (exec/decode_pipeline.hpp);
//   gather         writes the arrivals into the result in grid order: a
//                  dense answer is placed through a grid bitmap by prefix
//                  popcount, a sparse one radix-sorted (exec/gather.hpp).
//                  A region-only answer that folds .hbx nodes, or that the
//                  caller takes as a bitmap, accumulates in a grid bitmap
//                  instead and is read off in order.
// The arrival buffer and the decode and gather buffers are the calling
// thread's QueryScratch, reused from query to query (exec/scratch.hpp).
//
// Determinism: rank bodies run sequentially (parallel::run_query_ranks,
// which also charges the merged I/O and per-phase CPU) and each appends
// its fragments in task order — results and provider contents are
// identical for any rank count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "core/layout.hpp"
#include "core/store.hpp"
#include "exec/read_plan.hpp"
#include "index/hbx.hpp"
#include "pfs/pfs.hpp"
#include "query/query.hpp"

namespace mloc::exec {

/// One fragment's resolved work: what to read (slots into the owning
/// rank's segment array) and how to decode/filter it.
struct FragmentTask {
  int bin = 0;                       ///< absolute bin index
  const FragmentInfo* frag = nullptr;
  bool skipped = false;              ///< zone-map pruned (no I/O, no output)
  bool bin_aligned = false;
  bool frag_aligned = false;
  bool needs_vc_filter = false;
  bool fetch_values = false;
  int fetch_level = 0;               ///< groups needed for decode
  int cached_depth = 0;              ///< planes already held by the provider
  bool blob_cached = false;          ///< positions served from the provider
  std::shared_ptr<const FragmentData> cached;  ///< provider entry, if any

  /// This task's segments: rank.segments[seg_begin, seg_begin+seg_count).
  /// Layout: [positions blob if !blob_cached][payload groups
  /// cached_depth..fetch_level, or the single whole-value segment].
  std::size_t seg_begin = 0;
  std::size_t seg_count = 0;
};

/// One hierarchical-index tree node resolved for this query: its aggregate
/// bitmap answers a fully-covered span of aligned bins with zero .idx
/// reads. Either served from the FragmentProvider (`cached`) or read from
/// the .hbx payload via this rank's hbx_segments.
struct HbxNodeTask {
  std::size_t node = 0;              ///< index into HbxHeader::nodes
  std::shared_ptr<const FragmentData> cached;  ///< provider entry, if any
  std::size_t seg_index = 0;         ///< slot in rank.hbx_segments
  bool has_segment = false;          ///< false when cached
};

struct RankPlan {
  /// Cold fragment-table reads this rank is charged for (the bytes were
  /// already consumed by the plan builder; execution only logs them).
  std::vector<pfs::IoRecord> header_reads;
  double header_parse_s = 0.0;       ///< measured parse+filter CPU
  std::vector<FragmentTask> tasks;   ///< bin-major order
  std::vector<PlannedSegment> segments;
  /// Hierarchical-index work, scheduled apart from the per-bin segments so
  /// the bin-run coalescing arithmetic stays untouched.
  std::vector<HbxNodeTask> hbx_tasks;
  std::vector<PlannedSegment> hbx_segments;
};

struct ReadPlan {
  int num_ranks = 1;
  std::vector<RankPlan> ranks;
  PlanSummary summary;
  /// Keeps FragmentInfo pointers in tasks alive (headers come from the
  /// .idx header slots or from a plan-time parse).
  std::vector<std::shared_ptr<const BinLayout>> layouts;
  /// Parsed .hbx node table backing HbxNodeTask::node (null when the
  /// query resolved no tree nodes).
  std::shared_ptr<const index::HbxHeader> hbx_header;
};

/// Stage 1: resolve a query on `var`, a record of `store`, into a
/// ReadPlan. `warm` = execution mode: freshly parsed headers are put in
/// their subfiles' header slots. With `warm == false` (planner mode) the
/// call is side-effect-free — it reads the slots and the provider but
/// never fills them.
///
/// `position_filter` (optional, over linear grid offsets): the selection
/// a multivariable pass 2 fetches. The plan keeps only the chunks where
/// the filter has a set bit, tested one chunk row at a time with
/// Bitmap::any; no other chunk holds a position the filter passes, so
/// the answer is unchanged. plan_query passes none.
Result<ReadPlan> build_plan(const MlocStore& store, const VariableState& var,
                            const Query& q, int num_ranks,
                            const ExecOptions& opts, bool warm,
                            const Bitmap* position_filter = nullptr);

/// The request checks execute_query makes before planning: rank count in
/// [1, kMaxRanks] and SC dimensionality (the checks plan_query makes too),
/// PLoD level (and a byte-column codec below 7) and a valid VC.
/// MlocStore::multivar_select runs them on every pass before running any.
Status validate_query(const MlocStore& store, const VariableState& var,
                      const Query& q, int num_ranks);

/// Execute a query end to end (validation, plan, batch I/O, decode,
/// gather). `position_filter` (optional, over linear grid offsets) is the
/// multivariable pass 2: only positions with a set bit qualify, and
/// build_plan prunes the chunks that hold none.
///
/// `region_bits` (optional, region-only queries only): when non-null, the
/// qualifying positions are returned as a plain bitmap over grid offsets
/// instead of result.positions. Hierarchical-index node bitmaps OR into it
/// word by word (with an SC or a position filter, bit by bit through the
/// same tests) and fragment points are set in it. This is how
/// multivariable selection combines pass-1 answers without materializing
/// per-variable position vectors.
Result<QueryResult> execute_query(const MlocStore& store,
                                  const VariableState& var, const Query& q,
                                  int num_ranks, const Bitmap* position_filter,
                                  const ExecOptions& opts,
                                  Bitmap* region_bits = nullptr);

/// Bytes of buffer the calling thread's QueryScratch keeps between queries
/// (exec/scratch.hpp); never more than kScratchRetainBytes once a query
/// has ended.
std::size_t thread_scratch_bytes();

/// Cost a query without executing it: the PlanSummary of the same plan
/// execute_query would run, with no side effects on any cache. Feeding
/// summary.planned_io to pfs::model_makespan reproduces the modeled I/O
/// seconds execution will report; on a cold provider the byte and extent
/// counts match the executed plan exactly.
Result<PlanSummary> plan_query(const MlocStore& store,
                               const VariableState& var, const Query& q,
                               int num_ranks, const ExecOptions& opts);

}  // namespace mloc::exec
