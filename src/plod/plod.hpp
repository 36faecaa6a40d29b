// Precision-based Level of Detail (PLoD) — paper §III-B-3, Fig. 3.
//
// Every IEEE-754 double is split into 7 groups by byte significance:
//   group 0 — the two most-significant bytes (sign, exponent, top 4
//             mantissa bits): the minimum needed to approximate the value;
//   groups 1..6 — one additional mantissa byte each, descending
//             significance.
// Bytes of the same group across all values are stored contiguously, so
// reading PLoD level L (L in [1,7]) fetches only the first L groups
// (= L+1 bytes per value) — level 2 costs 3/8 of full-precision I/O.
//
// Reassembly fills the missing low-order bytes with 0x7F then 0xFF…, the
// midpoint of the unknown interval, instead of zeros (which would bias all
// magnitudes downward) — exactly the paper's §III-D-3 rule.
//
// Shred and assemble are 8×8 byte transposes at heart, and they sit on both
// the ingest encode path and the query reassembly path. The hot
// implementations below run cache-blocked (64 values per block, SWAR
// delta-swap transpose, plane-contiguous stores; DESIGN.md §11); the
// original per-value loops are retained under mloc::detail::scalar for A/B
// benchmarking and differential testing — outputs are byte-identical.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc::plod {

/// Number of PLoD groups (level 7 = full precision).
inline constexpr int kNumGroups = 7;

/// Bytes per value contributed by group g (group 0 carries two bytes).
constexpr int group_bytes(int group) noexcept { return group == 0 ? 2 : 1; }

/// Total bytes per value fetched at PLoD level `level` (1..7).
constexpr int level_bytes(int level) noexcept { return level + 1; }

/// Upper bound on the point-wise relative error of level-`level` values
/// for normal (non-denormal, finite) doubles, given midpoint fill.
double level_max_relative_error(int level) noexcept;

/// Byte planes of a shredded buffer: planes[g] has group_bytes(g)*count
/// bytes. Within group 0 the two bytes of one value stay adjacent
/// (big-endian order: sign/exponent byte first).
struct Shredded {
  std::array<Bytes, kNumGroups> groups;
  std::size_t count = 0;
};

/// Caller-provided destination planes for shred_into; planes[g] must hold
/// exactly group_bytes(g) * count bytes.
using PlaneSpans = std::array<std::span<std::uint8_t>, kNumGroups>;

/// Shred values into caller-provided plane buffers — the allocation-free
/// core used by the ingest encode stage (one flat scratch buffer per
/// fragment instead of 7 vectors). Precondition: every planes[g] sized
/// group_bytes(g) * values.size().
void shred_into(std::span<const double> values, const PlaneSpans& planes);

/// Split values into PLoD byte groups (allocating convenience wrapper).
Shredded shred(std::span<const double> values);

/// Reassemble doubles from the first `level` groups into a caller-provided
/// buffer (out.size() == count). groups[g] must hold group_bytes(g) *
/// out.size() bytes for g < level.
Status assemble_into(std::span<const std::span<const std::uint8_t>> groups,
                     int level, std::span<double> out);

/// Reassemble doubles from the first `level` groups (level in [1,7]).
/// groups[g] must hold group_bytes(g)*count bytes for g < level.
Result<std::vector<double>> assemble(
    std::span<const std::span<const std::uint8_t>> groups, int level,
    std::size_t count);

/// Convenience: assemble from a Shredded at a given level.
Result<std::vector<double>> assemble(const Shredded& shredded, int level);

/// Degrade full-precision values to level-`level` precision in one pass:
/// out[i] == assemble(shred(values), level)[i] bit-for-bit, without the
/// intermediate byte planes. Used by the query engine when the fetch level
/// exceeds the requested level. `out.size()` must equal `values.size()`;
/// in-place (out == values) is allowed.
void degrade_into(std::span<const double> values, int level,
                  std::span<double> out);

/// The two masks of degrade_into at `level`: a value's bits become
/// (bits & keep) | fill, which keeps its top level+1 bytes and sets the
/// midpoint fill below them. A value already at `level` is unchanged.
struct DegradeMasks {
  std::uint64_t keep = ~std::uint64_t{0};
  std::uint64_t fill = 0;
};
DegradeMasks degrade_masks(int level) noexcept;

}  // namespace mloc::plod

namespace mloc::detail::scalar {

/// Retained per-value reference implementations (the pre-optimization
/// loops). Semantics and output are byte-identical to the blocked versions
/// above; they exist for differential tests and bench_kernels A/B runs.
void plod_shred_into(std::span<const double> values,
                     const plod::PlaneSpans& planes);
Status plod_assemble_into(
    std::span<const std::span<const std::uint8_t>> groups, int level,
    std::span<double> out);

}  // namespace mloc::detail::scalar
