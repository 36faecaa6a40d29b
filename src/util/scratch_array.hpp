// ScratchArray — a growable buffer of trivially copyable elements that is
// never value-initialized, for storage a thread reuses from call to call:
// a query's arrival buffer and gather (exec/scratch.hpp), the wire's frame
// reader (net/wire.hpp) and mzip's tokenizer (compress/mzip.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>

namespace mloc {

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

}  // namespace mloc
