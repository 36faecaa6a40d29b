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

}  // namespace

void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values, std::uint64_t volume) {
  MLOC_DCHECK(values.empty() || values.size() == positions.size());
  if (!std::is_sorted(positions.begin(), positions.end())) {
    // Unsorted implies two distinct positions, so volume >= 2.
    const int key_bits = std::bit_width(volume - 1);
    if (values.empty()) {
      radix_sort<false>(positions, values, key_bits);
    } else {
      radix_sort<true>(positions, values, key_bits);
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
