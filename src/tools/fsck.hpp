// mloc_fsck — offline layout-invariant checker (library half).
//
// MLOC's query correctness rests entirely on the mutual consistency of the
// on-disk structures: bin boundaries route VCs, positional indexes key
// every emitted point, PLoD plane sizes drive reassembly, and the Hilbert
// fragment order is what the parallel protocol assumes when it coalesces
// reads. A store that violates any of these silently returns wrong science
// rather than an error. LayoutVerifier opens a written dataset and
// statically validates every invariant (see DESIGN.md "On-disk invariants
// & verification"):
//
//   footer      — each subfile's CRC-32 footer matches its payload;
//   bin-bounds  — interior bin boundaries strictly increasing, bin count
//                 consistent between scheme and subfiles;
//   table       — fragment tables decode exactly, byte-group counts match
//                 the store mode, zone maps are ordered;
//   order       — fragments appear in strictly increasing curve rank, each
//                 chunk at most once per bin, and the recomputed curve is a
//                 valid permutation of the chunk lattice;
//   positions   — every positional blob passes its checksum, decodes
//                 to strictly ascending in-range offsets, and across bins
//                 the positions of each chunk form a bijection onto the
//                 chunk's cells;
//   segments    — positional blobs tile the .idx blob section and payload
//                 segments tile the .dat payload exactly (no gap, overlap,
//                 or out-of-extent block);
//   planes      — each payload segment passes its checksum and decodes
//                 to the exact plane size (group_bytes(g) x count in PLoD
//                 mode, 8 x count total; count doubles in whole-value
//                 mode); for lossless codecs, decoded values must also lie
//                 inside their fragment zone map and route back to their
//                 bin;
//   index       — when the variable carries a hierarchical bitmap index
//                 (.hbx): the node table decodes and matches the store
//                 geometry, every node bitmap passes its checksum and
//                 decodes to the grid's bit width with the recorded
//                 popcount, every level-k aggregate equals the OR of its
//                 children, and every leaf equals the union of its bin's
//                 positional-index entries mapped to global offsets. A
//                 truncated or mis-sealed .hbx reports under "footer" on
//                 the "<var>.hbx" object.
//
// Every checksum above is the variable's own kind (segment_checksum in
// core/layout.hpp: CRC-32 for what ingest writes, FNV-1a for variables
// carried over from a v2–v5 meta); the JSON report gives each variable's
// kind as "checksum".
//
// Results come back as a Report: a list of structured issues plus a human
// rendering and a machine-readable JSON document for CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pfs/pfs.hpp"
#include "util/status.hpp"

namespace mloc::fsck {

/// One detected invariant violation.
struct Issue {
  std::string check;   ///< invariant family: "footer", "bin-bounds", ...
  std::string object;  ///< offending object, e.g. "phi.bin3 frag 12 (chunk 7)"
  std::string detail;  ///< what was expected vs found
};

struct Options {
  /// Decompress payload segments to validate plane sizes and values.
  /// Disabling keeps fsck metadata-only (footers, tables, positions).
  bool decode_payloads = true;
  /// Cap on reported issues per store; further findings are counted in
  /// Report::suppressed_issues but not materialized.
  std::size_t max_issues = 256;
};

/// Layout summary of one verified variable, echoed into the JSON report so
/// CI and operators can see which layout each variable was checked under.
struct VariableLayoutInfo {
  std::string name;
  std::string order;       ///< "V-M-S" / "V-S-M"
  std::string curve;       ///< "hilbert", "generalized-morton", ...
  std::string interleave;  ///< generalized-Morton pattern ("" otherwise)
  std::string codec;
  std::string chunk_shape;
  int num_bins = 0;
  bool plod_capable = false;
  std::string checksum;    ///< segment checksum kind: "crc32" / "fnv1a64"
  // Hierarchical bitmap index, when the layout carries one.
  int index_fanout = 0;          ///< 0 = no .hbx
  bool hbx_present = false;
  int hbx_levels = 0;
  std::uint64_t hbx_nodes = 0;
  std::uint64_t hbx_bytes = 0;   ///< whole .hbx subfile size
};

struct Report {
  std::string store;
  std::vector<Issue> issues;
  std::vector<VariableLayoutInfo> variable_layouts;
  std::uint64_t suppressed_issues = 0;  ///< found beyond Options::max_issues
  std::uint64_t variables_checked = 0;
  std::uint64_t subfiles_checked = 0;
  std::uint64_t fragments_checked = 0;
  std::uint64_t bytes_verified = 0;  ///< subfile bytes covered by CRC scans

  [[nodiscard]] bool ok() const noexcept {
    return issues.empty() && suppressed_issues == 0;
  }

  /// Multi-line human rendering ("store X: clean" or one line per issue).
  [[nodiscard]] std::string human() const;
  /// Machine-readable JSON object (stable keys, for CI consumption).
  [[nodiscard]] std::string json() const;
};

class LayoutVerifier {
 public:
  /// `fs` is borrowed and must outlive the verifier. Non-const only because
  /// MlocStore::open takes a writable storage; fsck never mutates it.
  explicit LayoutVerifier(pfs::PfsStorage* fs, Options opts = {});

  /// Verify every invariant of the store named `name`. Never fails
  /// outright: unopenable/corrupt metadata is reported as issues.
  [[nodiscard]] Report verify_store(const std::string& name) const;

  /// Names of all MLOC stores on the storage (every "<name>.meta" file).
  [[nodiscard]] std::vector<std::string> discover_stores() const;

 private:
  pfs::PfsStorage* fs_;
  Options opts_;
};

}  // namespace mloc::fsck
