#include "core/store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "compress/registry.hpp"
#include "exec/engine.hpp"
#include "ingest/ingest.hpp"
#include "util/timer.hpp"

namespace mloc {
namespace {

constexpr std::uint32_t kMetaMagic = 0x4D4C4F43;  // "MLOC"
// v6: each variable ends with one ChecksumKind byte saying how its segment
// and .hbx node checksums are computed (CRC-32 for everything ingest
// writes; FNV-1a for variables carried over from an older meta). v5 (the
// v4 layout, but mzip streams may take the stored form), v4 (layouts carry
// index_fanout, each variable records its optional .hbx header length), v3
// (per-variable layouts) and v2 (store-wide layout, CRC footers) still
// open, every variable as FNV-1a; v3 and v2 read as index-less.
constexpr std::uint32_t kMetaVersion = 6;
constexpr std::uint32_t kMetaVersionV5 = 5;
constexpr std::uint32_t kMetaVersionV4 = 4;
constexpr std::uint32_t kMetaVersionV3 = 3;
constexpr std::uint32_t kLegacyMetaVersion = 2;

}  // namespace

// ------------------------------------------------------------- lifecycle

Status MlocStore::init_derived_state(VariableState* vs) const {
  MLOC_RETURN_IF_ERROR(validate_layout(vs->layout, cfg_.shape));
  vs->chunk_grid = ChunkGrid(cfg_.shape, vs->layout.chunk_shape);
  MLOC_ASSIGN_OR_RETURN(
      vs->curve_order,
      make_curve_order(vs->layout, vs->chunk_grid.lattice_shape()));
  vs->byte_codec.reset();
  vs->double_codec.reset();
  if (is_byte_codec(vs->layout.codec)) {
    MLOC_ASSIGN_OR_RETURN(vs->byte_codec, make_byte_codec(vs->layout.codec));
  } else {
    MLOC_ASSIGN_OR_RETURN(vs->double_codec,
                          make_double_codec(vs->layout.codec));
  }
  return Status::ok();
}

Result<MlocStore> MlocStore::create(pfs::PfsStorage* fs, std::string name,
                                    MlocConfig cfg) {
  MLOC_CHECK(fs != nullptr);
  if (cfg.shape.ndims() == 0) {
    return invalid_argument("store: shape must have at least one dimension");
  }
  MLOC_RETURN_IF_ERROR(validate_layout(cfg.layout, cfg.shape));

  MlocStore store;
  store.fs_ = fs;
  store.name_ = std::move(name);
  store.cfg_ = std::move(cfg);
  MLOC_ASSIGN_OR_RETURN(store.meta_file_,
                        fs->create(store.name_ + ".meta"));
  MLOC_RETURN_IF_ERROR(store.write_meta());
  return store;
}

Status MlocStore::write_meta() {
  ByteWriter w;
  w.put_u32(kMetaMagic);
  w.put_u32(kMetaVersion);
  serialize_shape(w, cfg_.shape);
  cfg_.layout.serialize(w);
  {
    sync::ReaderLock lock(vars_mu_);
    w.put_varint(vars_.size());
    for (const auto& v : vars_) {
      w.put_string(v->name);
      v->layout.serialize(w);
      v->scheme.serialize(w);
      w.put_varint(v->bins.size());
      for (const auto& b : v->bins) w.put_varint(b.idx.header_len);
      // v4+: .hbx node-table length; 0 = no hierarchical index.
      w.put_varint(v->hbx ? v->hbx->header_len : 0);
      w.put_u8(static_cast<std::uint8_t>(v->checksum));  // v6+
    }
  }
  Bytes meta = std::move(w).take();
  append_subfile_footer(meta);
  return fs_->set_contents(meta_file_, std::move(meta));
}

Result<MlocStore> MlocStore::open(pfs::PfsStorage* fs,
                                  const std::string& name) {
  MLOC_CHECK(fs != nullptr);
  MlocStore store;
  store.fs_ = fs;
  store.name_ = name;
  MLOC_ASSIGN_OR_RETURN(store.meta_file_, fs->open(name + ".meta"));
  MLOC_ASSIGN_OR_RETURN(std::uint64_t meta_size,
                        fs->file_size(store.meta_file_));
  MLOC_ASSIGN_OR_RETURN(Bytes meta, fs->read(store.meta_file_, 0, meta_size));
  MLOC_ASSIGN_OR_RETURN(std::uint64_t meta_payload,
                        verify_subfile_footer(meta));
  ByteReader r(std::span<const std::uint8_t>(meta).first(meta_payload));

  MLOC_ASSIGN_OR_RETURN(std::uint32_t magic, r.get_u32());
  if (magic != kMetaMagic) return corrupt_data("meta: bad magic");
  MLOC_ASSIGN_OR_RETURN(std::uint32_t version, r.get_u32());
  if (version != kMetaVersion && version != kMetaVersionV5 &&
      version != kMetaVersionV4 && version != kMetaVersionV3 &&
      version != kLegacyMetaVersion) {
    return unsupported("meta: unknown version");
  }
  const bool has_index_fanout = version >= kMetaVersionV4;
  const bool has_checksum_kind = version >= kMetaVersion;
  MLOC_ASSIGN_OR_RETURN(store.cfg_.shape, deserialize_shape(r));
  if (version == kLegacyMetaVersion) {
    // v2 stores carry one store-wide layout in fixed field order; it becomes
    // both the default layout and every variable's layout.
    VariableLayout& l = store.cfg_.layout;
    MLOC_ASSIGN_OR_RETURN(l.chunk_shape, deserialize_shape(r));
    MLOC_ASSIGN_OR_RETURN(std::uint32_t num_bins, r.get_u32());
    if (num_bins == 0) return corrupt_data("meta: zero bin count");
    l.num_bins = static_cast<int>(num_bins);
    MLOC_ASSIGN_OR_RETURN(std::uint8_t binning, r.get_u8());
    if (binning > 1) return corrupt_data("meta: bad binning kind");
    l.binning = static_cast<BinningKind>(binning);
    MLOC_ASSIGN_OR_RETURN(std::uint8_t curve, r.get_u8());
    if (curve > 2) return corrupt_data("meta: bad curve kind");
    l.curve = static_cast<sfc::CurveKind>(curve);
    MLOC_ASSIGN_OR_RETURN(std::uint8_t order, r.get_u8());
    if (order > 1) return corrupt_data("meta: bad level order");
    l.order = static_cast<LevelOrder>(order);
    MLOC_ASSIGN_OR_RETURN(l.codec, r.get_string());
    MLOC_ASSIGN_OR_RETURN(l.sample_stride, r.get_u32());
  } else {
    MLOC_ASSIGN_OR_RETURN(store.cfg_.layout,
                          VariableLayout::deserialize(r, has_index_fanout));
  }
  MLOC_RETURN_IF_ERROR(validate_layout(store.cfg_.layout, store.cfg_.shape));

  MLOC_ASSIGN_OR_RETURN(std::uint64_t nvars, r.get_varint());
  if (nvars > 1024) return corrupt_data("meta: implausible variable count");
  for (std::uint64_t i = 0; i < nvars; ++i) {
    auto vs = std::make_shared<VariableState>();
    MLOC_ASSIGN_OR_RETURN(vs->name, r.get_string());
    if (version == kLegacyMetaVersion) {
      vs->layout = store.cfg_.layout;
    } else {
      MLOC_ASSIGN_OR_RETURN(vs->layout,
                            VariableLayout::deserialize(r, has_index_fanout));
    }
    MLOC_RETURN_IF_ERROR(store.init_derived_state(vs.get()));
    MLOC_ASSIGN_OR_RETURN(vs->scheme, BinningScheme::deserialize(r));
    MLOC_ASSIGN_OR_RETURN(std::uint64_t nbins, r.get_varint());
    if (nbins != static_cast<std::uint64_t>(vs->scheme.num_bins())) {
      return corrupt_data("meta: bin count mismatches scheme");
    }
    vs->bins = std::vector<VariableState::Bin>(nbins);
    for (std::uint64_t b = 0; b < nbins; ++b) {
      VariableState::Bin& bin = vs->bins[b];
      MLOC_ASSIGN_OR_RETURN(bin.idx.header_len, r.get_varint());
      MLOC_ASSIGN_OR_RETURN(
          bin.idx.file,
          fs->open(ingest::idx_name(name, vs->name, static_cast<int>(b))));
      MLOC_ASSIGN_OR_RETURN(
          bin.dat.file,
          fs->open(ingest::dat_name(name, vs->name, static_cast<int>(b))));
    }
    if (has_index_fanout) {
      MLOC_ASSIGN_OR_RETURN(std::uint64_t hbx_header_len, r.get_varint());
      if (hbx_header_len > 0) {
        vs->hbx.emplace();
        vs->hbx->header_len = hbx_header_len;
        MLOC_ASSIGN_OR_RETURN(vs->hbx->file,
                              fs->open(ingest::hbx_name(name, vs->name)));
      }
    }
    vs->checksum = ChecksumKind::kFnv1a64;
    if (has_checksum_kind) {
      MLOC_ASSIGN_OR_RETURN(const std::uint8_t kind, r.get_u8());
      if (kind > static_cast<std::uint8_t>(ChecksumKind::kCrc32)) {
        return corrupt_data("meta: unknown checksum kind");
      }
      vs->checksum = static_cast<ChecksumKind>(kind);
    }
    sync::WriterLock lock(store.vars_mu_);
    store.vars_.push_back(std::move(vs));
  }
  // A legacy store is kept byte-stable on open (read-only opens of archived
  // data must not mutate it); its meta upgrades to v6 on the next ingest,
  // and its variables keep their FNV-1a checksums until each is re-ingested.
  return store;
}

std::vector<std::string> MlocStore::variables() const {
  sync::ReaderLock lock(vars_mu_);
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& v : vars_) out.push_back(v->name);
  return out;
}

Result<std::shared_ptr<const VariableLayout>> MlocStore::variable_layout(
    const std::string& var) const {
  MLOC_ASSIGN_OR_RETURN(auto vs, variable(var));
  const VariableLayout* layout = &vs->layout;
  return std::shared_ptr<const VariableLayout>(std::move(vs), layout);
}

namespace {
MlocStore::VariableDesc desc_of(const VariableState& vs) {
  return {vs.name, vs.layout, vs.epoch, vs.plod_capable(), vs.num_groups()};
}
}  // namespace

Result<MlocStore::VariableDesc> MlocStore::describe(
    const std::string& var) const {
  MLOC_ASSIGN_OR_RETURN(const auto vs, variable(var));
  return desc_of(*vs);
}

std::vector<MlocStore::VariableDesc> MlocStore::describe_all() const {
  sync::ReaderLock lock(vars_mu_);
  std::vector<VariableDesc> out;
  out.reserve(vars_.size());
  for (const auto& v : vars_) out.push_back(desc_of(*v));
  return out;
}

Result<std::shared_ptr<const VariableState>> MlocStore::variable(
    const std::string& var) const {
  sync::ReaderLock lock(vars_mu_);
  for (const auto& v : vars_) {
    if (v->name == var) return v;
  }
  return not_found("store: no variable named " + var);
}

std::uint64_t MlocStore::data_bytes() const {
  sync::ReaderLock lock(vars_mu_);
  std::uint64_t total = 0;
  for (const auto& v : vars_) {
    for (const auto& b : v->bins) {
      total += fs_->file_size(b.dat.file).value_or(0);
    }
  }
  return total;
}

std::uint64_t MlocStore::index_bytes() const {
  sync::ReaderLock lock(vars_mu_);
  std::uint64_t total = fs_->file_size(meta_file_).value_or(0);
  for (const auto& v : vars_) {
    for (const auto& b : v->bins) {
      total += fs_->file_size(b.idx.file).value_or(0);
    }
    if (v->hbx) total += fs_->file_size(v->hbx->file).value_or(0);
  }
  return total;
}

// ------------------------------------------------------------ write path

Status MlocStore::write_variable(const std::string& var, const Grid& grid) {
  return write_variable(var, grid, cfg_.layout, ingest::WriteOptions{});
}

Status MlocStore::write_variable(const std::string& var, const Grid& grid,
                                 const ingest::WriteOptions& opts) {
  return write_variable(var, grid, cfg_.layout, opts);
}

Status MlocStore::write_variable(const std::string& var, const Grid& grid,
                                 const VariableLayout& layout,
                                 const ingest::WriteOptions& opts) {
  if (!(grid.shape() == cfg_.shape)) {
    return invalid_argument("store: grid shape mismatches config");
  }
  auto vs = std::make_shared<VariableState>();
  vs->name = var;
  vs->layout = layout;
  MLOC_RETURN_IF_ERROR(init_derived_state(vs.get()));

  // One ingest at a time; queries keep running against the published state.
  sync::MutexLock ingest_lock(ingest_mu_);

  MLOC_ASSIGN_OR_RETURN(const ingest::IngestStats stats,
                        ingest::ingest_variable(fs_, name_, *vs, grid, opts));

  // On re-ingest, the store's reference to the old record: dropped on
  // return, outside vars_mu_. Queries still reading it hold their own.
  std::shared_ptr<const VariableState> replaced;
  {
    sync::WriterLock lock(vars_mu_);
    vs->epoch = next_epoch_++;
    auto same = std::find_if(vars_.begin(), vars_.end(),
                             [&](const auto& v) { return v->name == var; });
    if (same != vars_.end()) {
      replaced = std::exchange(*same, std::move(vs));  // meta order kept
    } else {
      vars_.push_back(std::move(vs));
    }
    ingest_stats_ += stats;
  }
  // The epoch bump already hides the replaced variable's cached fragments;
  // erase reclaims their provider budget eagerly.
  if (provider_ != nullptr) provider_->erase(var);
  return write_meta();
}

ingest::IngestStats MlocStore::ingest_stats() const {
  sync::ReaderLock lock(vars_mu_);
  return ingest_stats_;
}

// ------------------------------------------------------------ query path

Result<QueryResult> MlocStore::execute(const std::string& var, const Query& q,
                                       int num_ranks) const {
  return execute(var, q, num_ranks, exec::ExecOptions{});
}

Result<QueryResult> MlocStore::execute(const std::string& var, const Query& q,
                                       int num_ranks,
                                       const exec::ExecOptions& opts) const {
  MLOC_ASSIGN_OR_RETURN(const auto vs, variable(var));
  return exec::execute_query(*this, *vs, q, num_ranks, nullptr, opts);
}

Result<exec::PlanSummary> MlocStore::plan(const std::string& var,
                                          const Query& q, int num_ranks,
                                          const exec::ExecOptions& opts) const {
  MLOC_ASSIGN_OR_RETURN(const auto vs, variable(var));
  return exec::plan_query(*this, *vs, q, num_ranks, opts);
}

Result<QueryResult> MlocStore::multivar_select(
    const std::vector<VarConstraint>& preds, Combine combine,
    const std::string& fetch_var, int plod_level, int num_ranks) const {
  if (preds.empty()) {
    return invalid_argument("multivar: at least one predicate required");
  }
  const bool fetch = !fetch_var.empty();
  // Under kAnd every selected position satisfies every predicate, so the
  // first one on `fetch_var` needs no region-only pass: it becomes pass 2's
  // VC, which prunes pass 2's bins and tests boundary bins at full
  // precision exactly as pass 1 would have.
  std::size_t fused = preds.size();
  if (fetch && combine == Combine::kAnd) {
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i].var == fetch_var) {
        fused = i;
        break;
      }
    }
  }

  // Validate every pass before running any, so an empty selection cannot
  // hide a bad predicate or fetch.
  Query region_q;
  region_q.values_needed = false;
  struct RegionPass {
    std::shared_ptr<const VariableState> var;
    ValueConstraint vc;
  };
  std::vector<RegionPass> pass1;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (i == fused) continue;
    MLOC_ASSIGN_OR_RETURN(auto vs, variable(preds[i].var));
    region_q.vc = preds[i].vc;
    MLOC_RETURN_IF_ERROR(exec::validate_query(*this, *vs, region_q, num_ranks));
    pass1.push_back({std::move(vs), preds[i].vc});
  }
  std::shared_ptr<const VariableState> fetch_state;
  Query fetch_q;
  if (fetch) {
    MLOC_ASSIGN_OR_RETURN(fetch_state, variable(fetch_var));
    fetch_q.plod_level = plod_level;
    if (fused < preds.size()) fetch_q.vc = preds[fused].vc;
    MLOC_RETURN_IF_ERROR(
        exec::validate_query(*this, *fetch_state, fetch_q, num_ranks));
  }
  if (pass1.empty()) {
    // The fused predicate was the only one: a plain VC query answers it.
    return exec::execute_query(*this, *fetch_state, fetch_q, num_ranks,
                               nullptr, exec::ExecOptions{});
  }

  // The passes' accounting folds into the one answer.
  const auto add_stats = [](QueryResult& into, const QueryResult& from) {
    into.times += from.times;
    into.bins_touched += from.bins_touched;
    into.aligned_bins += from.aligned_bins;
    into.fragments_read += from.fragments_read;
    into.fragments_skipped += from.fragments_skipped;
    into.cache += from.cache;
    into.exec += from.exec;
  };

  // Pass 1: one region-only query per remaining predicate; the engine
  // returns each answer as a grid bitmap (hierarchical-index node bitmaps
  // OR straight into it), and the bitmaps are combined word by word without
  // ever materializing per-variable position vectors (§III-D-4's
  // "synchronized bitmaps").
  QueryResult accumulated;
  std::optional<Bitmap> combined;
  for (const RegionPass& pass : pass1) {
    region_q.vc = pass.vc;
    Bitmap bits;
    MLOC_ASSIGN_OR_RETURN(
        QueryResult selected,
        exec::execute_query(*this, *pass.var, region_q, num_ranks, nullptr,
                            exec::ExecOptions{}, &bits));
    Stopwatch sw;
    if (!combined.has_value()) {
      combined = std::move(bits);
    } else if (combine == Combine::kAnd) {
      *combined &= bits;
    } else {
      *combined |= bits;
    }
    selected.times.reconstruct += sw.seconds();
    add_stats(accumulated, selected);
  }

  // The selection is materialized as positions only when it is the answer.
  if (!fetch) {
    Stopwatch sw;
    accumulated.positions.reserve(combined->count());
    combined->for_each_set(
        [&](std::uint64_t p) { accumulated.positions.push_back(p); });
    accumulated.times.reconstruct += sw.seconds();
    return accumulated;
  }
  if (!combined->any(0, combined->size())) return accumulated;

  // Pass 2: value retrieval filtered by the selection; the plan keeps only
  // the chunks holding a selected position.
  MLOC_ASSIGN_OR_RETURN(
      QueryResult fetched,
      exec::execute_query(*this, *fetch_state, fetch_q, num_ranks,
                          &*combined, exec::ExecOptions{}));
  add_stats(fetched, accumulated);
  return fetched;
}

}  // namespace mloc
