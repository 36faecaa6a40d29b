// QueryScratch — the buffers one query-running thread reuses from query to
// query (DESIGN.md §9, "Arrival buffer and gather").
//
// A query writes each answer point twice: once into the thread's arrival
// buffer, in task order, as decode_fragment emits it, and once into the
// QueryResult, in grid order, as the gather places it. Nothing in between
// is value-initialized: the arrival buffer and the gather's buffers are
// ScratchArrays (util/scratch_array.hpp), which grow geometrically without
// zeroing and keep their capacity across clear().
//
// execute_query borrows the calling thread's QueryScratch for the whole
// query; rank bodies run one after another on that thread, and the gather
// consumes the arrivals before the query returns. Between queries a thread
// keeps at most kScratchRetainBytes: a query that needed more gives its
// buffers back at its end, so the process-wide bound is that constant
// times the number of threads that run queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/scratch_array.hpp"

namespace mloc::exec {

/// What a thread keeps of its QueryScratch between queries, at most.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{16} << 20;

/// One query's qualifying points in arrival (task) order: grid offsets and,
/// when the query returns values, one value each (else `values` is empty).
struct ArrivalBuffer {
  ScratchArray<std::uint64_t> positions;
  ScratchArray<double> values;

  void clear() noexcept {
    positions.clear();
    values.clear();
  }
};

/// Buffers decode_fragment reuses across fragments, ranks and queries.
struct DecodeScratch {
  std::vector<std::uint32_t> positions;  ///< a blob no candidate keeps
  std::vector<double> values;            ///< assembled PLoD values
};

/// The gather's working storage (exec/gather.hpp).
struct GatherScratch {
  ScratchArray<std::uint64_t> bits;    ///< dense: the grid bitmap
  ScratchArray<std::uint32_t> before;  ///< dense: set bits before each word
  ScratchArray<std::size_t> hist;      ///< sparse: one histogram a digit
  ScratchArray<std::uint64_t> pos_tmp;  ///< sparse: a pass's positions
  ScratchArray<double> val_tmp;         ///< sparse: a pass's values
};

/// Everything a query-running thread reuses (see the file comment).
struct QueryScratch {
  ArrivalBuffer arrivals;
  DecodeScratch decode;
  GatherScratch gather;

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return arrivals.positions.capacity_bytes() +
           arrivals.values.capacity_bytes() +
           decode.positions.capacity() * sizeof(std::uint32_t) +
           decode.values.capacity() * sizeof(double) +
           gather.bits.capacity_bytes() + gather.before.capacity_bytes() +
           gather.hist.capacity_bytes() + gather.pos_tmp.capacity_bytes() +
           gather.val_tmp.capacity_bytes();
  }

  /// Ready for the next query: the arrivals are cleared, and a scratch
  /// that grew past kScratchRetainBytes gives all its storage back.
  void finish_query() noexcept {
    if (capacity_bytes() > kScratchRetainBytes) {
      *this = QueryScratch{};
    } else {
      arrivals.clear();
    }
  }
};

}  // namespace mloc::exec
