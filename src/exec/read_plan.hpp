// Read-plan types shared by the staged query engine (src/exec), MlocStore
// (MlocStore::plan returns the PlanSummary), and src/tune's cost oracle.
//
// A query is executed in three explicit stages:
//   1. PlanBuilder   — resolve bins/fragments/byte-groups into per-file
//                      extents; prune everything satisfiable from the
//                      FragmentProvider (cache hits decided at *plan* time);
//   2. IoScheduler   — sort + coalesce adjacent/near-adjacent extents per
//                      subfile into merged batch reads (one modeled seek
//                      per merged extent, matching the PFS cost model);
//   3. decode_fragment— positional-index decode, codec decode, PLoD
//                      reassembly and the row-walk filter, one fragment at
//                      a time on the rank's own thread, appending to the
//                      query's one arrival buffer in task order; the gather
//                      then puts the arrivals into grid order (a grid
//                      bitmap for dense or region-only answers, a radix
//                      sort for sparse ones).
//
// PlanSummary is the *costable* image of a query: the planner derives its
// estimates from the same plan the engine executes, so extent and byte
// predictions match the executed plan exactly on cold caches.
#pragma once

#include <cstdint>

#include "pfs/pfs.hpp"
#include "query/query.hpp"

namespace mloc::exec {

/// One planned subfile extent, before coalescing. `merge_class` groups
/// segments the IoScheduler may bridge across small gaps: extents that are
/// exactly adjacent (gap == 0) always merge — the cost model would charge
/// them one seek anyway — but a gap is only worth bridging when both sides
/// belong to the same access stream (same byte-group section, same
/// positional-blob sequence, the same whole-fragment scan). Classes keep
/// the scheduler from welding a reduced-precision PLoD read into the full
/// fragment it deliberately skipped.
struct PlannedSegment {
  pfs::FileId file = 0;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::uint32_t merge_class = 0;
};

/// Upper bound on a query's rank count, checked where requests enter the
/// engine (and by the CLIs' --ranks/--max-ranks): the planner builds one
/// RankPlan per rank.
inline constexpr int kMaxRanks = 1 << 16;

/// Engine tuning knobs (defaults match the benched configuration).
struct ExecOptions {
  /// Issue one read per planned segment in plan order instead of merged
  /// batches — reproduces the pre-engine access pattern, kept for A/B
  /// comparison in tests and bench_service_throughput.
  bool naive_io = false;
  /// Resolve region-only value-constraint queries through the variable's
  /// hierarchical bitmap index (.hbx) when it has one: aligned bins are
  /// answered from tree-node bitmaps with zero .idx reads and only
  /// boundary bins fall through to the positional-index path. Disable for
  /// A/B comparison against the flat per-bin path (bench_index).
  bool use_hbx = true;
};

/// Plan-derived query cost image. Produced by MlocStore::plan without
/// touching provider or header-cache state, and by the engine as the
/// blueprint it then executes.
struct PlanSummary {
  std::uint64_t bins_touched = 0;
  std::uint64_t aligned_bins = 0;
  std::uint64_t fragments_to_fetch = 0;   ///< fragments needing payload I/O
  std::uint64_t fragments_skipped = 0;    ///< zone-map pruned
  double est_points = 0.0;                ///< expected qualifying points
  /// Predicted I/O: cold header reads plus merged payload/blob extents,
  /// tagged with the rank that will issue them. Feeding this log to
  /// pfs::model_makespan yields the same modeled seconds the execution
  /// will report.
  pfs::IoLog planned_io;
  ExecStats stats;
  CacheStats cache;                       ///< predicted provider accounting
};

}  // namespace mloc::exec
