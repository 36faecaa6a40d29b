#include "exec/gather.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "util/assert.hpp"
#include "util/cpu.hpp"

namespace mloc::exec {
namespace {

constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;
constexpr int kMaxPasses = (64 + kDigitBits - 1) / kDigitBits;

/// Grid positions per bitmap word. The bitmap pass costs one word per 64
/// grid positions, so it pays off once the answer has at least one point
/// per word (n * 64 >= volume); sparser answers keep the radix sort.
constexpr std::uint64_t kPositionsPerWord = 64;

/// Stable LSD radix sort of the arrivals on the low `key_bits` bits of
/// their positions, values riding along when kWithValues. Each pass that
/// is not the last scatters into the other of {arrivals, scratch}; the
/// last scatters into the outputs, sized once.
template <bool kWithValues>
void radix_sort(ArrivalBuffer& in, int key_bits, GatherScratch& s,
                std::vector<std::uint64_t>& positions,
                std::vector<double>& values) {
  const std::size_t n = in.positions.size();
  const std::uint64_t* const pos = in.positions.data();
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  std::size_t* const hist =
      s.hist.assign_for_overwrite(static_cast<std::size_t>(passes) * kBuckets);
  std::fill(hist, hist + static_cast<std::size_t>(passes) * kBuckets,
            std::size_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < passes; ++d) {
      ++hist[static_cast<std::size_t>(d) * kBuckets +
             ((pos[i] >> (d * kDigitBits)) & kDigitMask)];
    }
  }
  // Digits constant across the input leave the order as it is.
  std::array<int, kMaxPasses> live{};
  int nlive = 0;
  for (int d = 0; d < passes; ++d) {
    if (hist[static_cast<std::size_t>(d) * kBuckets +
             ((pos[0] >> (d * kDigitBits)) & kDigitMask)] != n) {
      live[static_cast<std::size_t>(nlive++)] = d;
    }
  }
  // Unsorted input holds two distinct positions, so some digit varies.
  MLOC_DCHECK(nlive >= 1);

  positions.resize(n);
  if constexpr (kWithValues) values.resize(n);
  std::uint64_t* const tmp_pos =
      nlive > 1 ? s.pos_tmp.assign_for_overwrite(n) : nullptr;
  double* const tmp_val =
      kWithValues && nlive > 1 ? s.val_tmp.assign_for_overwrite(n) : nullptr;
  const std::uint64_t* src_pos = pos;
  const double* src_val = in.values.data();
  for (int j = 0; j < nlive; ++j) {
    const bool last = j + 1 == nlive;
    std::uint64_t* dst_pos = positions.data();
    double* dst_val = values.data();
    if (!last) {
      const bool from_arrivals = src_pos == pos;
      dst_pos = from_arrivals ? tmp_pos : in.positions.data();
      dst_val = from_arrivals ? tmp_val : in.values.data();
    }
    const int d = live[static_cast<std::size_t>(j)];
    std::size_t* const h = hist + static_cast<std::size_t>(d) * kBuckets;
    const int shift = d * kDigitBits;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::size_t count = h[b];
      h[b] = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = h[(src_pos[i] >> shift) & kDigitMask]++;
      dst_pos[slot] = src_pos[i];
      if constexpr (kWithValues) dst_val[slot] = src_val[i];
    }
    src_pos = dst_pos;
    src_val = dst_val;
  }
}

/// The dense placement's inputs and outputs, all sized by the caller.
struct Placement {
  const std::uint64_t* pos = nullptr;  ///< the arrivals, n of them
  const double* val = nullptr;         ///< their values (kWithValues)
  std::size_t n = 0;
  std::uint64_t* bits = nullptr;       ///< nwords, any contents
  std::uint32_t* before = nullptr;     ///< nwords, any contents
  std::size_t nwords = 0;
  std::uint64_t* out_pos = nullptr;    ///< n
  double* out_val = nullptr;           ///< n (kWithValues)
};

/// Dense placement: set every position in the grid bitmap, write each
/// value at its position's rank among the set bits (the set bits before
/// its word plus the popcount of the bits below it in the word), then
/// enumerate the set bits into out_pos. Running counts are 32-bit, so the
/// caller sends answers of 2^32 points or more to the radix sort.
template <bool kWithValues>
[[gnu::always_inline]] inline void place_by_bitmap(const Placement& p) {
  std::memset(p.bits, 0, p.nwords * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < p.n; ++i) {
    p.bits[p.pos[i] >> 6] |= std::uint64_t{1} << (p.pos[i] & 63);
  }
  if constexpr (kWithValues) {
    std::uint32_t sum = 0;
    for (std::size_t w = 0; w < p.nwords; ++w) {
      p.before[w] = sum;
      sum += static_cast<std::uint32_t>(std::popcount(p.bits[w]));
    }
    for (std::size_t i = 0; i < p.n; ++i) {
      const std::uint64_t at = p.pos[i];
      const std::uint64_t below = (std::uint64_t{1} << (at & 63)) - 1;
      p.out_val[p.before[at >> 6] + static_cast<std::uint32_t>(std::popcount(
                                        p.bits[at >> 6] & below))] = p.val[i];
    }
  }
  std::size_t k = 0;
  for (std::size_t w = 0; w < p.nwords; ++w) {
    for (std::uint64_t word = p.bits[w]; word != 0; word &= word - 1) {
      p.out_pos[k++] = w * kPositionsPerWord +
                       static_cast<unsigned>(std::countr_zero(word));
    }
  }
}

template <bool kWithValues>
MLOC_TARGET_POPCNT void place_by_bitmap_popcnt(const Placement& p) {
  place_by_bitmap<kWithValues>(p);
}

template <bool kWithValues>
void place_dense(ArrivalBuffer& in, std::uint64_t volume, GatherScratch& s,
                 std::vector<std::uint64_t>& positions,
                 std::vector<double>& values) {
  Placement p;
  p.n = in.positions.size();
  p.pos = in.positions.data();
  p.val = in.values.data();
  p.nwords = static_cast<std::size_t>((volume + kPositionsPerWord - 1) /
                                      kPositionsPerWord);
  p.bits = s.bits.assign_for_overwrite(p.nwords);
  if constexpr (kWithValues) {
    p.before = s.before.assign_for_overwrite(p.nwords);
    values.resize(p.n);
    p.out_val = values.data();
  }
  positions.resize(p.n);
  p.out_pos = positions.data();
  if (cpu::has_popcnt()) {
    place_by_bitmap_popcnt<kWithValues>(p);
  } else {
    place_by_bitmap<kWithValues>(p);
  }
}

}  // namespace

void gather(ArrivalBuffer& arrivals, std::uint64_t volume,
            GatherScratch& scratch, std::vector<std::uint64_t>& positions,
            std::vector<double>& values) {
  const std::size_t n = arrivals.positions.size();
  const bool with_values = !arrivals.values.empty();
  MLOC_DCHECK(!with_values || arrivals.values.size() == n);
  const std::uint64_t* const pos = arrivals.positions.data();
  if (std::is_sorted(pos, pos + n)) {
    positions.assign(pos, pos + n);
    const double* const val = arrivals.values.data();
    values.assign(val, val + (with_values ? n : 0));
  } else if (n * kPositionsPerWord >= volume && n < (std::uint64_t{1} << 32)) {
    if (with_values) {
      place_dense<true>(arrivals, volume, scratch, positions, values);
    } else {
      values.clear();
      place_dense<false>(arrivals, volume, scratch, positions, values);
    }
  } else {
    // Unsorted implies two distinct positions, so volume >= 2.
    const int key_bits = std::bit_width(volume - 1);
    if (with_values) {
      radix_sort<true>(arrivals, key_bits, scratch, positions, values);
    } else {
      values.clear();
      radix_sort<false>(arrivals, key_bits, scratch, positions, values);
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
