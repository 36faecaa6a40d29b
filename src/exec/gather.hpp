// Gather — the root's merge of rank outputs into grid order (paper §III-D).
//
// Ranks append every fragment's qualifying (position, value) pairs to the
// query's arrival buffer, in task order; the root then writes the buffer
// into the answer in grid order. Positions are distinct (every grid point
// lies in exactly one fragment or .hbx node, owned by one rank) and below
// the grid volume, so the answer is a set over the grid. A dense answer is
// placed through a grid bitmap: each value goes to the rank of its
// position among the set bits. A sparse one is stable-LSD-radix-sorted on
// the low bit_width(volume - 1) bits. Both yield exactly the order of the
// pair sort they replaced; that sort is retained as
// detail::scalar::sort_by_position for differential tests and
// bench_kernels A/B runs (DESIGN.md §9, §11).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/scratch.hpp"

namespace mloc::exec {

/// Write `arrivals` into `positions` in ascending order and, when the
/// arrivals carry values, each value alongside into `values` (else
/// `values` ends empty); both are replaced. The arrivals are spent: the
/// radix sort passes through them. Preconditions: arrival positions are
/// distinct and each is < `volume`; arrival values are empty or one a
/// position.
///
/// Already-sorted arrivals are copied. Otherwise a dense input
/// (n * 64 >= volume) sets its positions in a volume-sized bitmap, writes
/// each value at its position's prefix-popcount rank in `values` (POPCNT
/// where the CPU has it) and enumerates the set bits into `positions`. A
/// sparse input takes an LSD radix sort with 11-bit digits over the key
/// width of `volume`: one histogram pass counts every digit, digits that
/// are constant across the input are skipped, the passes alternate
/// between the arrivals and `scratch`, and the last lands in the outputs.
void gather(ArrivalBuffer& arrivals, std::uint64_t volume,
            GatherScratch& scratch, std::vector<std::uint64_t>& positions,
            std::vector<double>& values);

namespace detail::scalar {
/// Reference: std::sort over (position, value) pairs, in place. `values`
/// is either empty (region-only output) or as long as `positions`.
void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values);
}  // namespace detail::scalar

}  // namespace mloc::exec
