// Staged ingestion pipeline — the write-path twin of src/exec.
//
// MlocStore::write_variable is a thin wrapper over ingest_variable, which
// runs the paper's layout pipeline (chunk → V binning → PLoD byte-group
// shredding → C codec, §III) in four explicit stages:
//
//   1. partition — sample quantiles, then route each Hilbert-ordered
//      chunk's cells into per-bin staging buffers, sized exactly from a
//      first-pass bin histogram, so the routing hot loop never reallocates.
//   2. encode    — position encoding, zone map, PLoD shredding, codec
//      encode of every byte group, and the CRC-32 segment checksums, for
//      each fragment the chunk's cells form, releasing its staged cells
//      once encoded. Stages 1 and 2 of one chunk are one pool task, so a
//      chunk's cells live only inside its task; encoding is a pure
//      function of the fragment's values, so tasks run in any order.
//   3. fold      — once every chunk task is done, concatenate encoded
//      segments into each bin's .idx/.dat images in the exact serial order
//      (fragments in chunk-rank order, V-M-S group-major vs V-S-M
//      fragment-major interleave preserved) with buffers pre-sized from
//      the encoded totals. Folding runs on the caller's thread in bin
//      order, so parallel output is byte-identical to a serial run, CRC
//      "MLCF" footers included.
//   4. flush     — write finished bin subfiles through pfs::PfsStorage.
//      With WriteOptions::write_behind the flush of bin b overlaps the
//      fold of bins > b (pool tasks joined before return).
//
// Every stage submits its tasks to one parallel::ThreadPool. threads <= 1
// builds it with zero workers, which runs each task inline as it is
// submitted: the serial path is the same code, staging one chunk at a
// time.
//
// Determinism: every encoded segment is a pure function of its input and
// the fold order is fixed, so stores written at any thread count are
// byte-identical.
#pragma once

#include <cstdint>
#include <string>

#include "array/grid.hpp"
#include "pfs/pfs.hpp"

namespace mloc {
struct VariableState;  // the store's record of a variable (core/store.hpp)
}  // namespace mloc

namespace mloc::ingest {

/// Write-path tuning knobs (MlocStore::write_variable overload, service
/// config, and mloc_cli --threads/--write-behind plumb these through).
struct WriteOptions {
  /// Pool workers for the chunk tasks and write-behind flushes. <= 1 gives
  /// the pool none, so every task runs inline on the calling thread (the
  /// reference serial order).
  int threads = 1;
  /// Flush completed bin subfiles on pool workers while later bins are
  /// still folding. No effect when threads <= 1.
  bool write_behind = false;
};

/// Write-path accounting for one (or a sum of) write_variable calls.
struct IngestStats {
  std::uint64_t cells_routed = 0;       ///< grid cells through partition
  std::uint64_t fragments_encoded = 0;  ///< (bin, chunk) cells produced
  std::uint64_t bins_written = 0;       ///< bin subfile pairs flushed
  std::uint64_t bytes_written = 0;      ///< .idx + .dat bytes (with footers)
  double partition_s = 0.0;  ///< sampling wall + summed per-chunk routing
  double encode_s = 0.0;     ///< summed per-fragment encode CPU
  double fold_s = 0.0;       ///< wall: segment concatenation + headers
  double flush_s = 0.0;      ///< summed subfile write seconds
  double wall_s = 0.0;       ///< end-to-end ingest wall time
  int threads = 1;           ///< WriteOptions::threads actually used
  bool write_behind = false;

  bool operator==(const IngestStats&) const = default;
  IngestStats& operator+=(const IngestStats& o) noexcept {
    cells_routed += o.cells_routed;
    fragments_encoded += o.fragments_encoded;
    bins_written += o.bins_written;
    bytes_written += o.bytes_written;
    partition_s += o.partition_s;
    encode_s += o.encode_s;
    fold_s += o.fold_s;
    flush_s += o.flush_s;
    wall_s += o.wall_s;
    threads = o.threads;  // last write wins: the most recent configuration
    write_behind = o.write_behind;
    return *this;
  }
};

/// Bin subfile names: <store>/<var>.bin<k>.{idx,dat}. Shared with
/// MlocStore::open — re-ingest file reuse depends on both sides agreeing.
std::string idx_name(const std::string& store, const std::string& var,
                     int bin);
std::string dat_name(const std::string& store, const std::string& var,
                     int bin);
/// Hierarchical-index subfile name: <store>/<var>.hbx.
std::string hbx_name(const std::string& store, const std::string& var);

/// Run the full layout pipeline for `var`, an unpublished record whose
/// name, layout and layout-derived state the caller has set, and fill in
/// its scheme, bins, index and checksum kind (always CRC-32) in place:
/// each subfile is created (or reused on re-ingest), left flushed and
/// footer-sealed, marked footer-checked, and given the header it was
/// written with. The grid shape must already be validated against the
/// config by the caller.
[[nodiscard]] Result<IngestStats> ingest_variable(
    pfs::PfsStorage* fs, const std::string& store_name, VariableState& var,
    const Grid& grid, const WriteOptions& opts);

}  // namespace mloc::ingest
