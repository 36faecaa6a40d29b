// Division of 32-bit numerators by a divisor fixed at run time, through
// one multiply instead of a hardware divide (Lemire, Kaser and Kurz,
// "Faster Remainder by Direct Computation", 2019). With m = ⌈2^64 / d⌉,
// n / d is the high 64 bits of m·n, and n % d the high 64 bits of
// (m·n mod 2^64)·d; both are exact for every n and d below 2^32. The
// emit pass (exec/decode_pipeline.hpp) sets one up per chunk extent and
// splits every chunk-local offset into coordinates with it.
#pragma once

#include <cstdint>

namespace mloc {

class Divider {
 public:
  Divider() noexcept : Divider(1) {}
  /// Precondition: d >= 1.
  explicit Divider(std::uint32_t d) noexcept
      : m_(~std::uint64_t{0} / d + 1),
        // d = 1 wraps m to 0, which still gives remainder 0; the quotient
        // takes n back through this mask instead.
        one_(d == 1 ? ~std::uint32_t{0} : 0),
        d_(d) {}

  [[nodiscard]] std::uint32_t quotient(std::uint32_t n) const noexcept {
    return static_cast<std::uint32_t>(mul_high(m_, n)) + (n & one_);
  }

  [[nodiscard]] std::uint32_t remainder(std::uint32_t n) const noexcept {
    return static_cast<std::uint32_t>(mul_high(m_ * n, d_));
  }

 private:
  static std::uint64_t mul_high(std::uint64_t a, std::uint64_t b) noexcept {
    __extension__ typedef unsigned __int128 U128;
    return static_cast<std::uint64_t>((static_cast<U128>(a) * b) >> 64);
  }

  std::uint64_t m_;
  std::uint32_t one_;
  std::uint32_t d_;
};

}  // namespace mloc
