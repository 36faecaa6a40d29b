// IoScheduler — stage 2 of the query engine: turn a rank's planned
// segments into merged batch-read extents.
//
// Rules (documented in DESIGN.md §9):
//   - only segments of the same file ever merge (subfiles are per-bin, so
//     cross-bin merging is structurally impossible);
//   - exactly adjacent or overlapping segments (gap == 0) always merge —
//     the PFS cost model charges them a single seek regardless;
//   - a positive gap up to `max_gap_bytes` merges only when both sides
//     carry the same merge_class (the same byte-group section / blob
//     stream / whole-fragment scan), trading gap bytes for a saved seek;
//   - merging never reorders decode: every input segment keeps a SlotRef
//     locating its bytes inside the merged extent's buffer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/read_plan.hpp"
#include "pfs/pfs.hpp"

namespace mloc::exec {

/// The same-class gap the engine bridges. Reading a gap costs
/// len/bandwidth; skipping it costs a seek — at the default PFS model
/// (5 ms seek, 300 MB/s) the break-even gap is ~1.5 MB, so 64 KiB bridging
/// is always profitable.
inline constexpr std::uint64_t kCoalesceGapBytes = 64 * 1024;

/// Where an input segment's bytes live after coalescing.
struct SlotRef {
  int extent = -1;           ///< index into the merged-extent vector
  std::uint64_t delta = 0;   ///< byte offset inside that extent's buffer
};

/// Merge `segments` into batch-read extents. `slots` (if non-null) is
/// resized to segments.size() with one SlotRef per input, in input order.
/// Zero-length segments get extent = -1 and consume no I/O.
/// `bridged_bytes` (if non-null) accumulates the gap bytes read only
/// because same-class bridging welded two extents together — the waste
/// traded for saved seeks, surfaced as ExecStats::bytes_bridged.
std::vector<pfs::ReadRequest> coalesce_segments(
    std::span<const PlannedSegment> segments, std::uint64_t max_gap_bytes,
    std::vector<SlotRef>* slots, std::uint64_t* bridged_bytes = nullptr);

/// The identity schedule: one read per segment, plan order (the
/// pre-engine access pattern, kept for A/B comparison).
std::vector<pfs::ReadRequest> naive_schedule(
    std::span<const PlannedSegment> segments, std::vector<SlotRef>* slots);

}  // namespace mloc::exec
