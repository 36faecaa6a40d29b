// QueryScratch — the buffers one query-running thread reuses from query to
// query (DESIGN.md §9, "Arrival buffer and gather").
//
// A query writes each answer point twice: once into the thread's arrival
// buffer, in task order, as decode_fragment emits it, and once into the
// QueryResult, in grid order, as the gather places it. Nothing in between
// is value-initialized: the arrival buffer and the gather's buffers are
// ScratchArrays, which grow geometrically without zeroing and keep their
// capacity across clear().
//
// execute_query borrows the calling thread's QueryScratch for the whole
// query; rank bodies run one after another on that thread, and the gather
// consumes the arrivals before the query returns. Between queries a thread
// keeps at most kScratchRetainBytes: a query that needed more gives its
// buffers back at its end, so the process-wide bound is that constant
// times the number of threads that run queries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace mloc::exec {

/// What a thread keeps of its QueryScratch between queries, at most.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{16} << 20;

/// A growable array of trivially copyable T that never value-initializes
/// its storage (std::make_unique_for_overwrite). Appends reserve a tail
/// with grow_tail, write it, and commit what they kept; growth doubles the
/// capacity and copies only the committed prefix.
template <typename T>
class ScratchArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_.get(), size_};
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return cap_ * sizeof(T);
  }

  /// Room for `n` more elements past size(); returns the first of them,
  /// unwritten. size() is unchanged until commit.
  T* grow_tail(std::size_t n) {
    if (n > cap_ - size_) regrow(size_ + n);
    return data_.get() + size_;
  }
  /// Count `n` elements past size() as written (n <= the last grow_tail).
  void commit(std::size_t n) noexcept { size_ += n; }

  /// Exactly `n` elements with unspecified contents, for a buffer its user
  /// writes before it reads. Growth discards the old contents.
  T* assign_for_overwrite(std::size_t n) {
    if (n > cap_) {
      size_ = 0;  // nothing to keep
      regrow(n);
    }
    size_ = n;
    return data_.get();
  }

  /// Drop the first `n` elements (n <= size()); the rest move to the front.
  void drop_front(std::size_t n) noexcept {
    size_ -= n;
    if (size_ != 0) {
      std::memmove(data_.get(), data_.get() + n, size_ * sizeof(T));
    }
  }

  void clear() noexcept { size_ = 0; }

 private:
  void regrow(std::size_t need) {
    const std::size_t cap = std::max(need, 2 * cap_);
    auto next = std::make_unique_for_overwrite<T[]>(cap);
    if (size_ != 0) std::memcpy(next.get(), data_.get(), size_ * sizeof(T));
    data_ = std::move(next);
    cap_ = cap;
  }

  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

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
