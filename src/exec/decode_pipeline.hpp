// decode_fragment — stage 3 of the query engine.
//
// decode_fragment() is the decode-only successor of the old
// MlocStore::fetch_fragment_values: it is fed pre-fetched buffers (the
// merged batch-read extents) and performs positional-index decode, codec
// decode, PLoD reassembly/degrade, and the VC/SC/bitmap filter for one
// fragment. The filter walks the fragment's ascending chunk-local offsets
// one chunk row at a time, so a point costs a subtract, a window compare
// and an add; coordinates are worked out once per row. Qualifying points
// are appended straight to the query's arrival buffer; provider
// candidates and CPU timings come back in a DecodedFragment, which the
// rank folds in task order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitmap/bitmap.hpp"
#include "exec/engine.hpp"
#include "exec/io_scheduler.hpp"
#include "query/query.hpp"
#include "util/bytes.hpp"

namespace mloc::exec {

/// Everything decode_fragment needs, all read-only and owned elsewhere.
struct DecodeInput {
  const VariableState* var = nullptr;
  const NDShape* shape = nullptr;  ///< the store's grid shape
  /// Hand fresh decodes back as provider candidates (a provider is set).
  bool for_provider = false;
  const Query* q = nullptr;
  const Bitmap* position_filter = nullptr;
  const FragmentTask* task = nullptr;
  /// The task's planned segments and their slots into `buffers`.
  std::span<const PlannedSegment> segments;
  std::span<const SlotRef> slots;
  const std::vector<Bytes>* buffers = nullptr;
};

/// Status, timings and cache candidates of one fragment's decode+filter.
struct DecodedFragment {
  Status status = Status::ok();
  double decompress_s = 0.0;
  double reconstruct_s = 0.0;
  /// Provider-insert candidates, published by the rank in task order.
  std::shared_ptr<FragmentData> fresh_positions;
  std::shared_ptr<FragmentData> fresh_payload;
};

/// Decode and filter one fragment, appending its qualifying linear
/// positions to `positions` and, when the query needs values, the values
/// alongside to `values` (the query's arrival buffer). Every check runs
/// before the first append, so nothing is appended when the status is an
/// error.
DecodedFragment decode_fragment(const DecodeInput& in,
                                std::vector<std::uint64_t>& positions,
                                std::vector<double>& values);

}  // namespace mloc::exec
