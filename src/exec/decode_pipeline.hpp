// decode_fragment — stage 3 of the query engine.
//
// decode_fragment() is the decode-only successor of the old
// MlocStore::fetch_fragment_values: it is fed pre-fetched buffers (the
// merged batch-read extents) and performs positional-index decode, codec
// decode, PLoD reassembly/degrade, and the VC/SC/bitmap filter for one
// fragment. The filter walks the fragment's ascending chunk-local offsets
// one chunk row at a time, so a point costs a subtract, a window compare
// and an add; coordinates are worked out once per row. It touches no
// shared state — results, provider candidates, and CPU timings come back
// in a DecodedFragment, which the rank folds in task order.
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
  const StoreView* view = nullptr;
  const Query* q = nullptr;
  const Bitmap* position_filter = nullptr;
  const FragmentTask* task = nullptr;
  /// The task's planned segments and their slots into `buffers`.
  std::span<const PlannedSegment> segments;
  std::span<const SlotRef> slots;
  const std::vector<Bytes>* buffers = nullptr;
};

/// Output of one fragment's decode+filter, private to the task.
struct DecodedFragment {
  Status status = Status::ok();
  std::vector<std::uint64_t> positions;  ///< qualifying linear positions
  std::vector<double> values;            ///< parallel (values_needed only)
  double decompress_s = 0.0;
  double reconstruct_s = 0.0;
  /// Provider-insert candidates, published by the rank in task order.
  std::shared_ptr<FragmentData> fresh_positions;
  std::shared_ptr<FragmentData> fresh_payload;
};

DecodedFragment decode_fragment(const DecodeInput& in);

}  // namespace mloc::exec
