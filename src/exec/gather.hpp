// Gather — the root's merge of rank outputs into grid order (paper §III-D).
//
// Each rank emits (position, value) pairs in task order; the root
// concatenates them and sorts by position. Positions are distinct (every
// grid point lies in exactly one fragment or .hbx node, owned by one rank)
// and below the grid volume, so a stable LSD radix sort on the low
// bit_width(volume - 1) bits yields exactly the order of the pair sort it
// replaced; that sort is retained as detail::scalar::sort_by_position for
// differential tests and bench_kernels A/B runs (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

namespace mloc::exec {

/// Sort `positions` ascending and permute `values` alongside. `values` is
/// either empty (region-only output) or as long as `positions`.
/// Preconditions: positions are distinct and each is < `volume`.
///
/// LSD radix sort with 11-bit digits over the key width of `volume`: one
/// histogram pass counts every digit, digits that are constant across the
/// input are skipped, and an already-sorted input is returned untouched.
void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values, std::uint64_t volume);

namespace detail::scalar {
/// Reference: std::sort over (position, value) pairs.
void sort_by_position(std::vector<std::uint64_t>& positions,
                      std::vector<double>& values);
}  // namespace detail::scalar

}  // namespace mloc::exec
