#include "exec/gather.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace mloc::exec {
namespace {

constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;

using Histogram = std::array<std::size_t, kBuckets>;

/// Grid positions per bitmap word. The bitmap pass costs one word per 64
/// grid positions, so it pays off once the answer has at least one point
/// per word (n * 64 >= volume); sparser answers keep the radix sort.
constexpr std::uint64_t kPositionsPerWord = 64;

/// Stable LSD radix sort of `pos` on its low `key_bits` bits; `val` rides
/// along when kWithValues. Each pass scatters into a second buffer and
/// swaps, so the sorted data ends up in the caller's vectors whatever the
/// pass count.
template <bool kWithValues>
void radix_sort(std::vector<std::uint64_t>& pos, std::vector<double>& val,
                int key_bits) {
  const std::size_t n = pos.size();
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  std::vector<Histogram> hist(static_cast<std::size_t>(passes), Histogram{});
  for (const std::uint64_t p : pos) {
    for (int d = 0; d < passes; ++d) {
      ++hist[static_cast<std::size_t>(d)][(p >> (d * kDigitBits)) & kDigitMask];
    }
  }
  std::vector<std::uint64_t> pos_tmp(n);
  std::vector<double> val_tmp(kWithValues ? n : 0);
  for (int d = 0; d < passes; ++d) {
    Histogram& h = hist[static_cast<std::size_t>(d)];
    const int shift = d * kDigitBits;
    if (h[(pos[0] >> shift) & kDigitMask] == n) continue;  // constant digit
    std::size_t sum = 0;
    for (std::size_t& c : h) {
      const std::size_t count = c;
      c = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = h[(pos[i] >> shift) & kDigitMask]++;
      pos_tmp[slot] = pos[i];
      if constexpr (kWithValues) val_tmp[slot] = val[i];
    }
    pos.swap(pos_tmp);
    if constexpr (kWithValues) val.swap(val_tmp);
  }
}

/// Dense placement: set every position in a volume-sized bitmap, write each
/// value (if any) at its position's rank among the set bits (the word's
/// running count plus the popcount of the bits below it), then rewrite
/// `pos` by enumerating the set bits. Running counts are 32-bit, so the
/// caller sends answers of 2^32 points or more to the radix sort.
void place_by_bitmap(std::vector<std::uint64_t>& pos, std::vector<double>& val,
                     std::uint64_t volume) {
  const auto nwords = static_cast<std::size_t>(
      (volume + kPositionsPerWord - 1) / kPositionsPerWord);
  std::vector<std::uint64_t> bits(nwords, 0);
  for (const std::uint64_t p : pos) {
    bits[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
  if (!val.empty()) {
    std::vector<std::uint32_t> before(nwords);
    std::uint32_t sum = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      if (bits[w] == 0) continue;  // no position reads this word's count
      before[w] = sum;
      sum += static_cast<std::uint32_t>(std::popcount(bits[w]));
    }
    std::vector<double> placed(val.size());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const std::uint64_t p = pos[i];
      const std::uint64_t below = (std::uint64_t{1} << (p & 63)) - 1;
      placed[before[p >> 6] +
             static_cast<std::uint32_t>(std::popcount(bits[p >> 6] & below))] =
          val[i];
    }
    val.swap(placed);
  }
  std::size_t k = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      pos[k++] = w * kPositionsPerWord +
                 static_cast<unsigned>(std::countr_zero(word));
    }
  }
}

}  // namespace

void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values, std::uint64_t volume) {
  MLOC_DCHECK(values.empty() || values.size() == positions.size());
  if (!std::is_sorted(positions.begin(), positions.end())) {
    const std::uint64_t n = positions.size();
    if (n * kPositionsPerWord >= volume && n < (std::uint64_t{1} << 32)) {
      place_by_bitmap(positions, values, volume);
    } else {
      // Unsorted implies two distinct positions, so volume >= 2.
      const int key_bits = std::bit_width(volume - 1);
      if (values.empty()) {
        radix_sort<false>(positions, values, key_bits);
      } else {
        radix_sort<true>(positions, values, key_bits);
      }
    }
  }
  MLOC_DCHECK(positions.empty() || positions.back() < volume);
  for (std::size_t i = 1; i < positions.size(); ++i) {
    MLOC_DCHECK(positions[i - 1] < positions[i]);
  }
}

namespace detail::scalar {

void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values) {
  const bool with_values = !values.empty();
  std::vector<std::pair<std::uint64_t, double>> merged;
  merged.reserve(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    merged.emplace_back(positions[k], with_values ? values[k] : 0.0);
  }
  std::sort(merged.begin(), merged.end());
  for (std::size_t k = 0; k < merged.size(); ++k) {
    positions[k] = merged[k].first;
    if (with_values) values[k] = merged[k].second;
  }
}

}  // namespace detail::scalar

}  // namespace mloc::exec
