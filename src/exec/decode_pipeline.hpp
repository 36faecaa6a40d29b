// decode_fragment — stage 3 of the query engine.
//
// decode_fragment() is the decode-only successor of the old
// MlocStore::fetch_fragment_values: it is fed pre-fetched buffers (the
// merged batch-read extents) and performs positional-index decode, codec
// decode, PLoD reassembly, and the emit pass for one fragment. The emit
// pass (emit_fragment) takes every point once: it splits the chunk-local
// offset into coordinates by multiply-shift division, builds a keep mask
// from the SC window, the position filter and the VC without a branch,
// degrades the value to the requested PLoD level, writes the point at a
// cursor into the arrival buffer's tail (the calling thread's, from
// exec/scratch.hpp) and advances the cursor by the mask. Everything
// decoded fresh comes back as one provider candidate in a DecodedFragment,
// with the CPU timings; the rank inserts it in task order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "exec/engine.hpp"
#include "exec/io_scheduler.hpp"
#include "exec/scratch.hpp"
#include "plod/plod.hpp"
#include "query/query.hpp"
#include "util/bytes.hpp"

namespace mloc::exec {

/// Everything decode_fragment needs, all read-only and owned elsewhere.
struct DecodeInput {
  const VariableState* var = nullptr;
  const NDShape* shape = nullptr;  ///< the store's grid shape
  /// Hand fresh decodes back as a provider candidate (a provider is set).
  bool for_provider = false;
  const Query* q = nullptr;
  const Bitmap* position_filter = nullptr;
  const FragmentTask* task = nullptr;
  /// The task's planned segments and their slots into `buffers`.
  std::span<const PlannedSegment> segments;
  std::span<const SlotRef> slots;
  const std::vector<Bytes>* buffers = nullptr;
};

/// Status, timings and the cache candidate of one fragment's decode.
struct DecodedFragment {
  Status status = Status::ok();
  double decompress_s = 0.0;
  double reconstruct_s = 0.0;
  /// Provider-insert candidate, inserted by the rank in task order: the
  /// fragment's positions and every payload plane (or whole-value buffer)
  /// the task holds, fresh or cached. Null when nothing was decoded fresh
  /// or there is no provider. Positions served from the cache are copied
  /// in, so a candidate always supersedes the entry it was planned from.
  std::shared_ptr<FragmentData> candidate;
};

/// Decode one fragment and emit its qualifying points (emit_fragment) into
/// the query's arrival buffer, with values when the query needs them.
/// Every check runs before the first write, so the buffer is unchanged
/// when the status is an error.
DecodedFragment decode_fragment(const DecodeInput& in, DecodeScratch& scratch,
                                ArrivalBuffer& arrivals);

/// What the emit pass needs to know about one fragment, all owned
/// elsewhere.
struct EmitSpec {
  const NDShape* shape = nullptr;  ///< the store's grid
  Region chunk;                    ///< the fragment's chunk, grid coordinates
  const Region* sc = nullptr;      ///< spatial constraint, if any
  /// Tested against the fetched values; null when no point needs the test.
  const ValueConstraint* vc = nullptr;
  const Bitmap* position_filter = nullptr;  ///< over grid offsets, if any
  bool values_needed = false;
  /// PLoD level of the returned values. Each is degraded to it as
  /// plod::degrade_into does; values already at `level` pass unchanged.
  int level = plod::kNumGroups;
};

/// Append the grid offsets of the fragment's points that lie in the SC
/// window, pass the position filter and match the VC to
/// `arrivals.positions`, in the order of `local`, and their values at
/// `spec.level` to `arrivals.values` when `spec.values_needed`. `local`
/// holds strictly ascending chunk-local row-major offsets, each below the
/// chunk's volume. `vals` holds one value a point at the fetch level
/// (unread when neither values nor a VC are needed). The pass writes into
/// a tail reserved once, local.size() slots or one more than the SC
/// window's volume if that is smaller, and commits the kept count; the
/// tail is never zeroed, and a warm buffer does not allocate.
void emit_fragment(const EmitSpec& spec, std::span<const std::uint32_t> local,
                   std::span<const double> vals, ArrivalBuffer& arrivals);

namespace detail::scalar {
/// Reference: degrade into a scratch buffer, then walk the offsets one
/// chunk row at a time (one division and a delinearize per row, a window
/// compare, the filter and VC branches and two push_backs per point).
/// Appends what exec::emit_fragment appends to an ArrivalBuffer.
void emit_fragment(const EmitSpec& spec, std::span<const std::uint32_t> local,
                   std::span<const double> vals,
                   std::vector<std::uint64_t>& positions,
                   std::vector<double>& values);
}  // namespace detail::scalar

}  // namespace mloc::exec
