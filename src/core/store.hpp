// MlocStore — the MLOC framework's public entry point.
//
// A store lives on a pfs::PfsStorage and holds any number of variables that
// share one grid shape (paper Fig. 1 pipeline); every other layout choice —
// chunking, bin count, curve, level order, codec — is a per-variable
// VariableLayout, so mixed-layout stores are first-class. Writing a
// variable runs the full multi-level layout pipeline under its layout:
// equal-frequency binning -> per-bin subfiles -> (PLoD byte grouping and
// curve-ordered fragment placement, in the configured order) -> compression.
// Queries execute the parallel access protocol of §III-D: bin selection by
// VC, fragment selection by SC via the Hilbert mapping, column-order block
// assignment to ranks, per-rank fetch/decompress/filter, and gather.
//
// All reads are logged per rank; QueryResult::times combines the PFS cost
// model's I/O makespan with measured per-rank decompress/reconstruct CPU.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "array/chunking.hpp"
#include "array/grid.hpp"
#include "binning/binning.hpp"
#include "bitmap/bitmap.hpp"
#include "compress/codec.hpp"
#include "core/config.hpp"
#include "core/layout.hpp"
#include "exec/read_plan.hpp"
#include "index/hbx.hpp"
#include "ingest/ingest.hpp"
#include "parallel/runtime.hpp"
#include "pfs/pfs.hpp"
#include "plod/plod.hpp"
#include "query/query.hpp"
#include "sfc/hilbert.hpp"
#include "util/sync.hpp"

namespace mloc {

/// Identity of one fragment's decompressed payload: the (variable, bin,
/// chunk) cell of a store. The PLoD level is deliberately not part of the
/// key — a cached entry holds the *deepest* decoded byte-group prefix seen
/// so far, and any request at level <= that depth is a hit (a level-3 entry
/// serves a level-2 request).
/// FragmentKey::chunk sentinel for cached hierarchical-index tree nodes:
/// a decoded .hbx node is keyed as {var, node_id, kHbxNodeChunk, epoch}.
/// Real chunks are lattice cells, far below this value.
inline constexpr ChunkId kHbxNodeChunk = 0xFFFF'FFFFu;

struct FragmentKey {
  std::string var;
  int bin = 0;
  ChunkId chunk = 0;
  /// Ingest generation of the variable. Bumped on every re-ingest, so
  /// entries cached before a rewrite can never answer queries against the
  /// fresh layout (the store additionally asks the provider to erase them).
  std::uint64_t epoch = 0;

  [[nodiscard]] bool operator==(const FragmentKey&) const = default;
};

/// Decompressed state of one fragment, as much as has been decoded so
/// far. In PLoD mode `planes` holds the decoded byte-group planes
/// 0..depth-1 (`values` empty); in whole-value mode `values` holds the
/// full decoded buffer (`planes` empty). `positions` holds the decoded
/// chunk-local positional index (empty until a query has decoded it).
/// Immutable once published to a provider — providers merge rather than
/// mutate.
struct FragmentData {
  std::vector<Bytes> planes;   ///< decoded byte-group planes, prefix order
  std::vector<double> values;  ///< whole-value mode payload
  std::vector<std::uint32_t> positions;  ///< decoded chunk-local positions
  std::uint64_t count = 0;     ///< points in the fragment (sanity check)
  /// Decoded hierarchical-index tree node (keys with chunk ==
  /// kHbxNodeChunk); empty for ordinary fragment entries.
  WahBitmap node_bitmap;
  bool has_node = false;

  /// PLoD depth of the prefix (0 in whole-value mode).
  [[nodiscard]] int depth() const noexcept {
    return static_cast<int>(planes.size());
  }
  /// Approximate heap footprint, for byte-budget accounting.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    std::size_t b = sizeof(FragmentData);
    for (const auto& p : planes) b += p.size();
    if (has_node) b += node_bitmap.byte_size();
    return b + values.size() * sizeof(double) +
           positions.size() * sizeof(std::uint32_t);
  }
};

/// Serving-layer hook (src/service): a provider may hold decompressed
/// fragment payloads and positional indexes between queries. Cached
/// planes/positions bypass PFS reads entirely — they produce no IoLog
/// records, so the cost model charges only the misses — while misses
/// flow through the store's normal fetch path unchanged. Implementations must be thread-safe: concurrent
/// MlocStore::execute() calls consult the provider without locking.
class FragmentProvider {
 public:
  virtual ~FragmentProvider() = default;

  /// Return the cached payload for `key`, or nullptr on miss. The returned
  /// object must stay immutable and alive for the shared_ptr's lifetime
  /// even if the provider evicts it concurrently.
  virtual std::shared_ptr<const FragmentData> lookup(const FragmentKey& key) = 0;

  /// Offer a freshly decoded payload. The provider may ignore it (budget)
  /// or replace a shallower entry for the same key.
  virtual void insert(const FragmentKey& key,
                      std::shared_ptr<const FragmentData> data) = 0;

  /// Drop every cached entry of `var`, regardless of epoch. Called by the
  /// store after a re-ingest: the epoch bump already makes stale entries
  /// unreachable, erase reclaims their byte budget.
  virtual void erase(const std::string& var) { (void)var; }
};

/// One subfile of a variable: a bin's .idx, whose header is the bin's
/// fragment table, or .dat (Header = void: no header), or the variable's
/// .hbx, whose header is the index's node table. Set up by ingest or
/// MlocStore::open before the record is published; after that, queries
/// share it and only the footer flag and the header slot change.
template <class Header>
struct Subfile {
  pfs::FileId file = 0;
  std::uint64_t header_len = 0;  ///< header bytes at the start of the file
  /// True once the whole-file footer CRC is known good: set by ingest (the
  /// store wrote the bytes), else by the first query read that needs it.
  mutable std::atomic<bool> footer_checked{false};

  /// Check the footer CRC unless already done (lazy, thread-safe). The
  /// scan reads outside any IoLog: it is an integrity check, not query
  /// I/O, so the cost model charges only what the query fetches.
  [[nodiscard]] Status check_footer(const pfs::PfsStorage& fs) const {
    if (footer_checked) return Status::ok();
    MLOC_ASSIGN_OR_RETURN(std::uint64_t size, fs.file_size(file));
    MLOC_ASSIGN_OR_RETURN(Bytes content, fs.read(file, 0, size));
    MLOC_RETURN_IF_ERROR(verify_subfile_footer(content).status());
    footer_checked = true;
    return Status::ok();
  }

  /// The parsed header, or null until ingest or a query puts one. Ingest
  /// puts what it wrote, so a fresh variable never re-reads its headers;
  /// a reopened store pays one cold read per subfile.
  [[nodiscard]] std::shared_ptr<const Header> header() const
      MLOC_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return header_;
  }
  /// First writer wins; later calls are no-ops (the header is immutable,
  /// so any parsed copy is as good as another).
  void put_header(std::shared_ptr<const Header> header) const
      MLOC_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    if (!header_) header_ = std::move(header);
  }

 private:
  mutable sync::Mutex mu_;
  mutable std::shared_ptr<const Header> header_ MLOC_GUARDED_BY(mu_);
};

/// The store's record of one variable (paper §III's bins of index/data
/// subfile pairs, plus the optional hierarchical index). ingest fills it
/// in place, MlocStore::open rebuilds it from the meta, and the query
/// engine, fsck and the benches read it through MlocStore::variable.
/// Immutable once published, apart from each subfile's footer flag and
/// header slot.
struct VariableState {
  std::string name;
  VariableLayout layout;
  /// Derived from `layout` against the store shape (never serialized).
  ChunkGrid chunk_grid;
  sfc::CurveOrder curve_order;
  std::shared_ptr<const ByteCodec> byte_codec;      ///< PLoD/COL mode
  std::shared_ptr<const DoubleCodec> double_codec;  ///< whole-value mode
  BinningScheme scheme;
  struct Bin {
    Subfile<BinLayout> idx;  ///< fragment table + positional-index blobs
    Subfile<void> dat;       ///< compressed payload segments
  };
  std::vector<Bin> bins;  ///< size = scheme.num_bins()
  /// Hierarchical bitmap index; empty when layout.index_fanout == 0.
  std::optional<Subfile<index::HbxHeader>> hbx;
  /// How every segment and .hbx node checksum of this variable is
  /// computed (segment_checksum). Ingest writes kCrc32; a variable opened
  /// from a v2–v5 meta reads as kFnv1a64 until it is re-ingested.
  ChecksumKind checksum = ChecksumKind::kCrc32;
  std::uint64_t epoch = 0;  ///< ingest generation (FragmentKey::epoch)

  [[nodiscard]] bool plod_capable() const noexcept {
    return byte_codec != nullptr;
  }
  /// Byte groups per fragment: 7 in PLoD mode, 1 whole-value group.
  [[nodiscard]] int num_groups() const noexcept {
    return plod_capable() ? plod::kNumGroups : 1;
  }
};

class MlocStore {
 public:
  /// Create an empty store named `name` on `fs` (non-owning; must outlive
  /// the store). Fails on invalid config or name collision.
  [[nodiscard]] static Result<MlocStore> create(pfs::PfsStorage* fs, std::string name,
                                  MlocConfig cfg);

  /// Re-open a store previously created on `fs` from its metadata file.
  [[nodiscard]] static Result<MlocStore> open(pfs::PfsStorage* fs, const std::string& name);

  /// Ingest one variable through the layout pipeline (serial reference
  /// path) under the store's default layout. The grid shape must match the
  /// store config. Writing a name that already exists replaces it: the
  /// fresh layout is published atomically, the fragment-provider entries of
  /// the old generation are dropped, and in-flight queries against the old
  /// state either complete with the old answer or fail with CorruptData (a
  /// checksum mismatch, or a read past the end of a subfile the re-ingest
  /// shortened) rather than reading mixed generations; the old record is
  /// freed when the last of them ends.
  [[nodiscard]] Status write_variable(const std::string& var, const Grid& grid)
      MLOC_EXCLUDES(ingest_mu_, vars_mu_);

  /// Ingest with explicit pipeline options (worker threads, write-behind
  /// subfile flushing — see ingest::WriteOptions). Output bytes are
  /// identical for any option combination. One ingest runs at a time
  /// (internally serialized); queries may run concurrently.
  [[nodiscard]] Status write_variable(const std::string& var, const Grid& grid,
                        const ingest::WriteOptions& opts)
      MLOC_EXCLUDES(ingest_mu_, vars_mu_);

  /// Ingest under an explicit per-variable layout (validated first —
  /// InvalidArgument on a bad bin count, stride, chunk shape, codec, or
  /// interleave). A re-ingest may change the layout: the variable's new
  /// generation lives entirely under the new one.
  [[nodiscard]] Status write_variable(const std::string& var, const Grid& grid,
                        const VariableLayout& layout,
                        const ingest::WriteOptions& opts = {})
      MLOC_EXCLUDES(ingest_mu_, vars_mu_);

  /// Cumulative write-path accounting across all write_variable calls.
  [[nodiscard]] ingest::IngestStats ingest_stats() const
      MLOC_EXCLUDES(vars_mu_);

  /// Execute a query (paper §III-D). `num_ranks` parallel processes are
  /// emulated; results are identical for any rank count.
  [[nodiscard]] Result<QueryResult> execute(const std::string& var, const Query& q,
                              int num_ranks = 1) const;

  /// Execute with explicit engine options (coalescing gap, naive I/O and
  /// the flat per-bin path for A/B comparison). The overload above uses
  /// exec::ExecOptions defaults.
  [[nodiscard]] Result<QueryResult> execute(const std::string& var, const Query& q,
                              int num_ranks,
                              const exec::ExecOptions& opts) const;

  /// Cost a query without executing it: the PlanSummary of the exact
  /// ReadPlan execute() would run. Side-effect-free — consults the subfile
  /// header slots and any attached FragmentProvider but never warms them.
  /// Feeding summary.planned_io to pfs::model_makespan reproduces the
  /// modeled I/O seconds execution would report; on cold caches the byte
  /// and extent counts match execution exactly. Drives
  /// tune::estimate_io_seconds.
  [[nodiscard]] Result<exec::PlanSummary> plan(const std::string& var, const Query& q,
                                 int num_ranks = 1,
                                 const exec::ExecOptions& opts = {}) const;

  /// One predicate of a multi-variable selection.
  struct VarConstraint {
    std::string var;
    ValueConstraint vc;
  };
  enum class Combine : std::uint8_t { kAnd, kOr };

  /// General multi-variable selection (paper §II "multi-variable data
  /// access ... may involve two or more variables"): evaluate each
  /// predicate as a region-only pass, combine the resulting grid bitmaps
  /// word by word, then fetch `fetch_var` at the surviving positions. With
  /// an empty `fetch_var` only positions are returned. One kAnd predicate
  /// is the §III-D-4 bitmap hand-off: select where one variable qualifies,
  /// fetch another there.
  ///
  /// Under kAnd, the first predicate on `fetch_var` runs no region-only
  /// pass: it is the fetch's VC, so the fetch reads only its bins (boundary
  /// bins are tested at full precision, then degraded to `plod_level`).
  /// The fetch reads only the chunks where the combined bitmap has a set
  /// bit. Answers equal evaluating every predicate as its own pass.
  ///
  /// The whole request is validated before any pass runs: every variable
  /// exists, every VC is valid, and for a fetch `plod_level` is in [1, 7]
  /// (below 7 only on a PLoD-capable variable), with execute()'s error
  /// codes — whether or not the selection turns out empty.
  [[nodiscard]] Result<QueryResult> multivar_select(const std::vector<VarConstraint>& preds,
                                      Combine combine,
                                      const std::string& fetch_var,
                                      int plod_level = 7,
                                      int num_ranks = 1) const;

  [[nodiscard]] const MlocConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::vector<std::string> variables() const
      MLOC_EXCLUDES(vars_mu_);

  /// The record of `var`, or NotFound. The caller shares it: a re-ingest
  /// publishes a fresh record and drops the store's reference to this one,
  /// which then lives exactly as long as some caller still holds it.
  [[nodiscard]] Result<std::shared_ptr<const VariableState>> variable(
      const std::string& var) const MLOC_EXCLUDES(vars_mu_);
  /// `variable(var)->layout`, through a pointer that shares the record.
  [[nodiscard]] Result<std::shared_ptr<const VariableLayout>> variable_layout(
      const std::string& var) const;
  [[nodiscard]] const pfs::PfsStorage& storage() const noexcept {
    return *fs_;
  }
  [[nodiscard]] const pfs::PfsConfig& pfs_config() const noexcept {
    return fs_->config();
  }

  /// A copy of what describes one variable, without its subfiles: the
  /// wire layer's variable list (describe_all).
  struct VariableDesc {
    std::string name;
    VariableLayout layout;
    std::uint64_t epoch = 0;
    /// True when the variable keeps PLoD byte columns (byte codec).
    bool plod_capable = false;
    int num_groups = 1;  ///< 7 in PLoD mode, 1 whole-value group otherwise
  };
  [[nodiscard]] Result<VariableDesc> describe(const std::string& var) const;
  [[nodiscard]] std::vector<VariableDesc> describe_all() const
      MLOC_EXCLUDES(vars_mu_);

  /// Storage accounting (paper Table I): payload (.dat) and index
  /// (.idx + metadata) bytes across all variables.
  [[nodiscard]] std::uint64_t data_bytes() const MLOC_EXCLUDES(vars_mu_);
  [[nodiscard]] std::uint64_t index_bytes() const MLOC_EXCLUDES(vars_mu_);

  /// Attach a decompressed-fragment provider (nullptr detaches). Non-owning;
  /// the provider must outlive the store and be thread-safe. Queries are
  /// otherwise safe to run concurrently from multiple threads (const reads
  /// throughout), so set this once before serving traffic.
  void set_fragment_provider(FragmentProvider* provider) noexcept {
    provider_ = provider;
  }
  [[nodiscard]] FragmentProvider* fragment_provider() const noexcept {
    return provider_;
  }

 private:
  MlocStore() = default;

  /// Materialize the layout-derived members of `vs` (chunk grid, curve
  /// order, codecs) from vs->layout against the store shape.
  [[nodiscard]] Status init_derived_state(VariableState* vs) const;
  [[nodiscard]] Status write_meta() MLOC_EXCLUDES(vars_mu_);

  pfs::PfsStorage* fs_ = nullptr;
  std::string name_;
  MlocConfig cfg_;
  pfs::FileId meta_file_ = 0;
  /// Serializes whole write_variable calls (one ingest at a time). Always
  /// taken before vars_mu_ (write_variable nests the publish block inside
  /// the ingest section) — declared so the analysis rejects an inversion.
  /// Handle types keep the mutex storage behind shared_ptr so the store
  /// stays movable (moves happen only at setup).
  sync::MutexHandle ingest_mu_ MLOC_ACQUIRED_BEFORE(vars_mu_);
  /// Published variable records. Reader/writer gated by vars_mu_; each is
  /// shared with whoever variable() handed it to, so a query keeps the
  /// record it started on alive across a re-ingest that replaces it.
  sync::SharedMutexHandle vars_mu_;
  std::vector<std::shared_ptr<const VariableState>> vars_
      MLOC_GUARDED_BY(vars_mu_);
  /// Ingest generation counter; 0 = opened state.
  std::uint64_t next_epoch_ MLOC_GUARDED_BY(vars_mu_) = 1;
  ingest::IngestStats ingest_stats_ MLOC_GUARDED_BY(vars_mu_);
  FragmentProvider* provider_ = nullptr;             // serving-layer cache
};

}  // namespace mloc
