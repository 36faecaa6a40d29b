// MLOC store configuration — which optimization levels run in which order
// (paper §III-A-2's user-defined priorities).
//
// The reproduction supports the orders the paper evaluates: value binning
// (V) is the outermost level (it defines the per-bin subfiling of Fig. 4),
// and the multiresolution (M) and spatial (S) levels swap beneath it:
//   * kVMS — bins > PLoD byte groups > Hilbert-ordered chunk fragments.
//     Low-PLoD reads are long contiguous runs (fast); full-precision reads
//     must gather one run per byte group (Table VII row 1).
//   * kVSM — bins > Hilbert-ordered fragments > byte groups within each
//     fragment. Full-precision fragment reads are single runs; low-PLoD
//     reads scatter (Table VII row 2).
//
// The codec name selects the compression mode:
//   * byte codecs ("mzip", "raw") enable PLoD byte-column storage — the
//     MLOC-COL configuration;
//   * double codecs ("isobar", "isabela[:eps]") compress whole fragment
//     value buffers — MLOC-ISO / MLOC-ISA; PLoD is unavailable
//     because values are not stored byte-planar (paper §III-B-4).
//
// Layout choices are *per variable*: a store shares one grid shape across
// its variables (MlocConfig::shape), while everything the layout pipeline
// tunes — chunking, bin count, binning kind, curve, level order, codec,
// sample stride — lives in a VariableLayout carried by each variable.
// MlocConfig::layout is merely the default applied when write_variable is
// called without an explicit layout, which is what keeps single-layout
// stores a one-liner and makes mixed-layout stores legal.
#pragma once

#include <cstdint>
#include <string>

#include "array/shape.hpp"
#include "sfc/hilbert.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace mloc {

enum class LevelOrder : std::uint8_t {
  kVMS = 0,
  kVSM = 1,
};

/// Bin-boundary construction. The paper uses equal-frequency binning "to
/// prevent load imbalance" (§III-B-1); equal-width is provided for the
/// ablation that demonstrates why.
enum class BinningKind : std::uint8_t {
  kEqualFrequency = 0,
  kEqualWidth = 1,
};

[[nodiscard]] constexpr std::string_view level_order_name(
    LevelOrder order) noexcept {
  return order == LevelOrder::kVMS ? "V-M-S" : "V-S-M";
}

/// Per-variable layout: every knob the multi-level pipeline tunes. Two
/// variables of one store may use entirely different layouts (a smooth
/// field on V-M-S/Hilbert next to a rough one on V-S-M/generalized
/// Morton); the store only fixes the grid shape they share.
struct VariableLayout {
  NDShape chunk_shape;    ///< chunking of this variable
  int num_bins = 100;     ///< equal-frequency bins (paper default)
  BinningKind binning = BinningKind::kEqualFrequency;
  sfc::CurveKind curve = sfc::CurveKind::kHilbert;
  /// Generalized-Morton interleave pattern (e.g. "zyxzyx"), consumed only
  /// when curve == kGeneralizedMorton; must be empty otherwise.
  std::string interleave;
  LevelOrder order = LevelOrder::kVMS;
  std::string codec = "mzip";
  /// Binning boundaries are estimated from every `sample_stride`-th element
  /// (the paper computes them "from partial dataset").
  std::uint32_t sample_stride = 101;
  /// Hierarchical bitmap index (.hbx) fan-out: each tree level ORs this
  /// many children of the level below. 0 disables the index (the default,
  /// and the only value meta v3 stores can express); >= 2 builds it at
  /// ingest time.
  int index_fanout = 0;

  void serialize(ByteWriter& w) const;
  /// `with_index_fanout` is false when decoding meta-v3 layout records,
  /// which predate the index_fanout field (it reads as 0 / disabled).
  [[nodiscard]] static Result<VariableLayout> deserialize(
      ByteReader& r, bool with_index_fanout = true);

  /// One-line human rendering ("V-M-S hilbert 100 bins mzip chunks 16x16").
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] bool operator==(const VariableLayout&) const = default;
};

struct MlocConfig {
  NDShape shape;          ///< full grid shape shared by every variable
  /// Default layout for variables ingested without an explicit one.
  VariableLayout layout;
};

/// Full ingest-time validation of a layout against the grid it will tile:
/// positive bin count and sample stride, chunk shape of matching rank with
/// extents in [1, grid extent], a resolvable codec name, and (for
/// generalized Morton) an interleave pattern that covers every lattice
/// dimension. Returns InvalidArgument naming the offending field.
[[nodiscard]] Status validate_layout(const VariableLayout& layout,
                                     const NDShape& grid_shape);

/// Curve order of the chunk lattice under `layout` (dispatches on
/// layout.curve; generalized Morton consumes layout.interleave).
[[nodiscard]] Result<sfc::CurveOrder> make_curve_order(
    const VariableLayout& layout, const NDShape& lattice);

/// Shape (de)serialization shared by the store meta format and the
/// variable-layout record.
void serialize_shape(ByteWriter& w, const NDShape& s);
[[nodiscard]] Result<NDShape> deserialize_shape(ByteReader& r);

}  // namespace mloc
