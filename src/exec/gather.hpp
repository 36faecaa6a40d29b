// Gather — the root's merge of rank outputs into grid order (paper §III-D).
//
// Ranks append every fragment's qualifying (position, value) pairs to one
// arrival buffer per query, in task order; the root then puts the buffer
// into grid order. Positions are distinct (every grid point lies in exactly
// one fragment or .hbx node, owned by one rank) and below the grid volume,
// so the answer is a set over the grid. A dense answer is placed through a
// grid bitmap: each value goes to the rank of its position among the set
// bits. A sparse one is stable-LSD-radix-sorted on the low
// bit_width(volume - 1) bits. Both yield exactly the order of the pair
// sort they replaced; that sort is retained as
// detail::scalar::sort_by_position for differential tests and
// bench_kernels A/B runs (DESIGN.md §9, §11).
#pragma once

#include <cstdint>
#include <vector>

namespace mloc::exec {

/// Sort `positions` ascending and permute `values` alongside. `values` is
/// either empty (region-only output) or as long as `positions`.
/// Preconditions: positions are distinct and each is < `volume`.
///
/// An already-sorted input is returned untouched. Otherwise a dense input
/// (n * 64 >= volume) sets its positions in a volume-sized bitmap, writes
/// each value at its position's prefix-popcount rank and rewrites the
/// positions by enumerating the set bits. A sparse input takes an LSD
/// radix sort with 11-bit digits over the key width of `volume`: one
/// histogram pass counts every digit, and digits that are constant across
/// the input are skipped.
void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values, std::uint64_t volume);

namespace detail::scalar {
/// Reference: std::sort over (position, value) pairs.
void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values);
}  // namespace detail::scalar

}  // namespace mloc::exec
