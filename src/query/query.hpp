// Query model — the access patterns of paper §II.
//
// A Query combines an optional value constraint (VC, half-open value range),
// an optional spatial constraint (SC, hyper-rectangle), a PLoD level, and
// whether values must be materialized (value-retrieval) or positions
// suffice (region-only). Multi-variable access composes two queries through
// a position bitmap (§III-D-4).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "array/region.hpp"
#include "util/timer.hpp"

namespace mloc {

/// Half-open value range [lo, hi).
struct ValueConstraint {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  /// A constraint is well-formed when both bounds are non-NaN and the
  /// half-open range is non-empty (lo < hi). A degenerate range (lo == hi)
  /// or a NaN bound can never match anything; MlocStore rejects such
  /// queries with InvalidArgument instead of silently returning nothing.
  [[nodiscard]] bool valid() const noexcept {
    return !std::isnan(lo) && !std::isnan(hi) && lo < hi;
  }

  [[nodiscard]] bool matches(double v) const noexcept {
    return v >= lo && v < hi;
  }
};

struct Query {
  std::optional<ValueConstraint> vc;  ///< value constraint, if any
  std::optional<Region> sc;           ///< spatial constraint, if any
  /// PLoD level (7 = full precision). Controls the precision of the
  /// *returned* values only: value constraints are always evaluated
  /// against the stored full-precision data (the same values the binning
  /// index and zone maps were built from), so the qualifying-position set
  /// is independent of plod_level. Misaligned bins under a VC therefore
  /// fetch full precision for filtering even at reduced levels.
  int plod_level = 7;
  bool values_needed = true;          ///< false = region-only access
};

/// FragmentProvider (serving-layer cache) accounting for one query. All
/// counters stay zero when the store has no provider attached (cold access).
struct CacheStats {
  std::uint64_t hits = 0;          ///< fragments fully served from cache
  std::uint64_t partial_hits = 0;  ///< PLoD prefix reuse: some planes cached
  std::uint64_t misses = 0;        ///< provider consulted, nothing usable
  std::uint64_t bytes_saved = 0;   ///< compressed payload bytes not re-read

  bool operator==(const CacheStats&) const = default;
  CacheStats& operator+=(const CacheStats& o) noexcept {
    hits += o.hits;
    partial_hits += o.partial_hits;
    misses += o.misses;
    bytes_saved += o.bytes_saved;
    return *this;
  }
};

/// Read-plan / batch-I/O accounting for one query through the staged
/// execution engine (src/exec). `extents_naive` counts the read requests
/// the plan would issue without coalescing (one per segment/header, the
/// pre-engine behavior); `extents_coalesced` counts the requests actually
/// issued after the IoScheduler merged adjacent and near-adjacent extents.
struct ExecStats {
  std::uint64_t bytes_planned = 0;    ///< bytes the plan needed pre-cache
  std::uint64_t bytes_read = 0;       ///< bytes issued to the PFS (merged)
  std::uint64_t bytes_from_cache = 0; ///< bytes pruned at plan time
  std::uint64_t extents_naive = 0;     ///< read requests before coalescing
  std::uint64_t extents_coalesced = 0; ///< read requests actually issued
  std::uint64_t modeled_seeks = 0;     ///< per-rank coalesced extents (model)
  /// Gap bytes read only because same-class bridging welded two extents
  /// together (the waste behind bytes_read > bytes_planned; each bridged
  /// gap trades its bytes for one saved seek).
  std::uint64_t bytes_bridged = 0;

  bool operator==(const ExecStats&) const = default;
  ExecStats& operator+=(const ExecStats& o) noexcept {
    bytes_planned += o.bytes_planned;
    bytes_read += o.bytes_read;
    bytes_from_cache += o.bytes_from_cache;
    extents_naive += o.extents_naive;
    extents_coalesced += o.extents_coalesced;
    modeled_seeks += o.modeled_seeks;
    bytes_bridged += o.bytes_bridged;
    return *this;
  }
};

/// Result of one query execution.
struct QueryResult {
  /// Qualifying positions as row-major linear offsets into the variable's
  /// grid, ascending.
  std::vector<std::uint64_t> positions;
  /// Values parallel to `positions` (empty for region-only queries).
  std::vector<double> values;

  // --- accounting ---
  ComponentTimes times;             ///< modeled io + measured CPU breakdown
  std::uint64_t bins_touched = 0;
  std::uint64_t aligned_bins = 0;   ///< bins answered from the index alone
  std::uint64_t fragments_read = 0; ///< (bin, chunk) cells fetched from data
  std::uint64_t fragments_skipped = 0;  ///< pruned by zone maps (VC disjoint)
  CacheStats cache;                 ///< fragment-provider hit/miss accounting
  ExecStats exec;                   ///< read plan, bytes read, coalescing

  bool operator==(const QueryResult&) const = default;
};

}  // namespace mloc
