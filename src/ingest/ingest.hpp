// Staged ingestion pipeline — the write-path twin of src/exec.
//
// MlocStore::write_variable is a thin wrapper over ingest_variable, which
// runs the paper's layout pipeline (chunk → V binning → PLoD byte-group
// shredding → C codec, §III) in four explicit stages:
//
//   1. partition — sample quantiles, then route each Hilbert-ordered
//      chunk's cells into per-(bin, fragment) staging buffers. Each chunk
//      is an independent task; buffers are sized exactly from a first-pass
//      bin histogram, so the routing hot loop never reallocates.
//   2. encode    — position encoding, zone map, PLoD shredding, and codec
//      encode of every byte group, one task per fragment. Encoding is a
//      pure function of the fragment's values, so tasks run on a
//      parallel::ThreadPool in any order.
//   3. fold      — concatenate encoded segments into each bin's .idx/.dat
//      images in the exact serial order (V-M-S group-major vs V-S-M
//      fragment-major interleave preserved) with buffers pre-sized from
//      the encoded totals. Folding runs on the caller's thread in bin
//      order, so parallel output is byte-identical to a serial run, CRC
//      "MLCF" footers included.
//   4. flush     — write finished bin subfiles through pfs::PfsStorage.
//      With WriteOptions::write_behind the flush of bin b overlaps the
//      encode/fold of bins > b (pool tasks joined before return).
//
// Determinism: every encoded segment is a pure function of its input and
// the fold order is fixed, so stores written at any thread count are
// byte-identical — the serial path (threads <= 1) is the same code with
// every stage run inline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/chunking.hpp"
#include "array/grid.hpp"
#include "binning/binning.hpp"
#include "compress/codec.hpp"
#include "core/config.hpp"
#include "core/layout.hpp"
#include "index/hbx.hpp"
#include "pfs/pfs.hpp"
#include "sfc/hilbert.hpp"

namespace mloc::ingest {

/// Write-path tuning knobs (MlocStore::write_variable overload, service
/// config, and mloc_cli --threads/--write-behind plumb these through).
struct WriteOptions {
  /// Worker threads for the partition and encode stages. <= 1 runs every
  /// stage inline on the calling thread (the reference serial order).
  int threads = 1;
  /// Flush completed bin subfiles on pool workers while later bins are
  /// still encoding. No effect when threads <= 1.
  bool write_behind = false;
};

/// Write-path accounting for one (or a sum of) write_variable calls.
struct IngestStats {
  std::uint64_t cells_routed = 0;       ///< grid cells through partition
  std::uint64_t fragments_encoded = 0;  ///< (bin, chunk) cells produced
  std::uint64_t bins_written = 0;       ///< bin subfile pairs flushed
  std::uint64_t bytes_written = 0;      ///< .idx + .dat bytes (with footers)
  double partition_s = 0.0;  ///< wall: sample + route + stage
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

/// Non-owning projection of the store state the pipeline needs — the
/// write-side mirror of exec::StoreView. Valid for one ingest_variable
/// call; the caller owns everything referenced.
struct StoreWriter {
  pfs::PfsStorage* fs = nullptr;
  const VariableLayout* layout = nullptr;
  const ChunkGrid* chunk_grid = nullptr;
  const sfc::CurveOrder* curve = nullptr;
  const ByteCodec* byte_codec = nullptr;      ///< PLoD/COL mode
  const DoubleCodec* double_codec = nullptr;  ///< whole-value mode
  std::string store_name;

  [[nodiscard]] bool plod_capable() const noexcept {
    return byte_codec != nullptr;
  }
};

/// One finished bin: its subfiles (created or reused on re-ingest) and the
/// decoded fragment table, handed back so the store can warm its
/// BinHeaderCache without re-reading what it just wrote.
struct IngestedBin {
  pfs::FileId idx = 0;
  pfs::FileId dat = 0;
  std::uint64_t header_len = 0;
  std::shared_ptr<const BinLayout> layout;
};

/// The hierarchical bitmap index built alongside the bins when
/// layout.index_fanout >= 2: its sealed .hbx subfile plus the parsed
/// header, handed back so the store can warm its HbxHeaderCache.
struct IngestedIndex {
  bool present = false;
  pfs::FileId file = 0;
  std::uint64_t header_len = 0;
  std::shared_ptr<const index::HbxHeader> header;
};

struct IngestOutput {
  BinningScheme scheme;
  std::vector<IngestedBin> bins;  ///< size = scheme.num_bins()
  IngestedIndex hbx;
  IngestStats stats;
};

/// Bin subfile names: <store>/<var>.bin<k>.{idx,dat}. Shared with
/// MlocStore::open — re-ingest file reuse depends on both sides agreeing.
std::string idx_name(const std::string& store, const std::string& var,
                     int bin);
std::string dat_name(const std::string& store, const std::string& var,
                     int bin);
/// Hierarchical-index subfile name: <store>/<var>.hbx.
std::string hbx_name(const std::string& store, const std::string& var);

/// Run the full layout pipeline for one variable. Creates the bin subfiles
/// (reusing existing files of the same name on re-ingest) and leaves them
/// flushed and footer-sealed. The grid shape must already be validated
/// against the config by the caller.
[[nodiscard]] Result<IngestOutput> ingest_variable(const StoreWriter& writer,
                                     const std::string& var, const Grid& grid,
                                     const WriteOptions& opts);

}  // namespace mloc::ingest
