#include "multires/subset.hpp"

#include <algorithm>

#include "compress/registry.hpp"
#include "parallel/runtime.hpp"
#include "sfc/hilbert.hpp"
#include "util/timer.hpp"

namespace mloc::multires {
namespace {

constexpr std::uint32_t kMetaMagic = 0x4D52530Bu;  // "MRS"

std::string level_file_name(const std::string& store, const std::string& var,
                            int level) {
  return store + "/" + var + ".lvl" + std::to_string(level) + ".dat";
}

void serialize_region(ByteWriter& w, const Region& r) {
  w.put_u8(static_cast<std::uint8_t>(r.ndims()));
  for (int d = 0; d < r.ndims(); ++d) {
    w.put_u32(r.lo(d));
    w.put_u32(r.hi(d));
  }
}

Result<Region> deserialize_region(ByteReader& r) {
  MLOC_ASSIGN_OR_RETURN(std::uint8_t ndims, r.get_u8());
  if (ndims < 1 || ndims > NDShape::kMaxDims) {
    return corrupt_data("subset meta: bad region ndims");
  }
  Coord lo{}, hi{};
  for (int d = 0; d < ndims; ++d) {
    MLOC_ASSIGN_OR_RETURN(lo[d], r.get_u32());
    MLOC_ASSIGN_OR_RETURN(hi[d], r.get_u32());
    if (lo[d] > hi[d]) return corrupt_data("subset meta: inverted region");
  }
  return Region(ndims, lo, hi);
}

}  // namespace

Status SubsetStore::init() {
  if (cfg_.shape.ndims() == 0) {
    return invalid_argument("subset: shape required");
  }
  if (cfg_.num_levels < 1 || cfg_.num_levels > 16) {
    return invalid_argument("subset: num_levels must be in [1,16]");
  }
  if (cfg_.segment_points == 0) {
    return invalid_argument("subset: segment_points must be positive");
  }
  MLOC_ASSIGN_OR_RETURN(codec_, make_double_codec(cfg_.codec));

  // Walk the point-level Hilbert curve of the enclosing cube once; grid
  // points get partitioned into levels by curve-position divisibility.
  const int ndims = cfg_.shape.ndims();
  const int order = sfc::covering_order(cfg_.shape);
  const std::uint64_t curve_len = 1ull << (order * ndims);
  level_positions_.assign(cfg_.num_levels, {});
  for (std::uint64_t p = 0; p < curve_len; ++p) {
    const Coord axes = sfc::hilbert_axes(ndims, order, p);
    if (!cfg_.shape.contains(axes)) continue;
    const int level = sfc::hier_level(p, cfg_.num_levels, ndims);
    level_positions_[level].push_back(cfg_.shape.linearize(axes));
  }
  return Status::ok();
}

Result<SubsetStore> SubsetStore::create(pfs::PfsStorage* fs, std::string name,
                                        Config cfg) {
  MLOC_CHECK(fs != nullptr);
  SubsetStore store;
  store.fs_ = fs;
  store.name_ = std::move(name);
  store.cfg_ = std::move(cfg);
  MLOC_RETURN_IF_ERROR(store.init());
  MLOC_ASSIGN_OR_RETURN(store.meta_file_,
                        fs->create(store.name_ + ".mrsmeta"));
  MLOC_RETURN_IF_ERROR(store.write_meta());
  return store;
}

Status SubsetStore::write_meta() {
  ByteWriter w;
  w.put_u32(kMetaMagic);
  w.put_u8(static_cast<std::uint8_t>(cfg_.shape.ndims()));
  for (int d = 0; d < cfg_.shape.ndims(); ++d) {
    w.put_u32(cfg_.shape.extent(d));
  }
  w.put_u8(static_cast<std::uint8_t>(cfg_.num_levels));
  w.put_string(cfg_.codec);
  w.put_u32(cfg_.segment_points);
  w.put_varint(vars_.size());
  for (const auto& v : vars_) {
    w.put_string(v.name);
    for (const auto& lvl : v.levels) {
      w.put_varint(lvl.segments.size());
      for (const auto& seg : lvl.segments) {
        w.put_varint(seg.offset);
        w.put_varint(seg.length);
        w.put_varint(seg.count);
        serialize_region(w, seg.bbox);
      }
    }
  }
  return fs_->set_contents(meta_file_, std::move(w).take());
}

Result<SubsetStore> SubsetStore::open(pfs::PfsStorage* fs,
                                      const std::string& name) {
  MLOC_CHECK(fs != nullptr);
  SubsetStore store;
  store.fs_ = fs;
  store.name_ = name;
  MLOC_ASSIGN_OR_RETURN(store.meta_file_, fs->open(name + ".mrsmeta"));
  MLOC_ASSIGN_OR_RETURN(std::uint64_t size, fs->file_size(store.meta_file_));
  MLOC_ASSIGN_OR_RETURN(Bytes meta, fs->read(store.meta_file_, 0, size));
  ByteReader r(meta);
  MLOC_ASSIGN_OR_RETURN(std::uint32_t magic, r.get_u32());
  if (magic != kMetaMagic) return corrupt_data("subset meta: bad magic");
  MLOC_ASSIGN_OR_RETURN(std::uint8_t ndims, r.get_u8());
  if (ndims < 1 || ndims > NDShape::kMaxDims) {
    return corrupt_data("subset meta: bad ndims");
  }
  Coord extents{};
  for (int d = 0; d < ndims; ++d) {
    MLOC_ASSIGN_OR_RETURN(extents[d], r.get_u32());
  }
  store.cfg_.shape = NDShape(ndims, extents);
  MLOC_ASSIGN_OR_RETURN(std::uint8_t levels, r.get_u8());
  store.cfg_.num_levels = levels;
  MLOC_ASSIGN_OR_RETURN(store.cfg_.codec, r.get_string());
  MLOC_ASSIGN_OR_RETURN(store.cfg_.segment_points, r.get_u32());
  MLOC_RETURN_IF_ERROR(store.init());

  MLOC_ASSIGN_OR_RETURN(std::uint64_t nvars, r.get_varint());
  if (nvars > 1024) return corrupt_data("subset meta: variable count");
  for (std::uint64_t i = 0; i < nvars; ++i) {
    VariableState vs;
    MLOC_ASSIGN_OR_RETURN(vs.name, r.get_string());
    vs.levels.resize(store.cfg_.num_levels);
    for (int lvl = 0; lvl < store.cfg_.num_levels; ++lvl) {
      MLOC_ASSIGN_OR_RETURN(std::uint64_t nsegs, r.get_varint());
      if (nsegs > (1ull << 32)) return corrupt_data("subset meta: segments");
      vs.levels[lvl].segments.resize(nsegs);
      for (auto& seg : vs.levels[lvl].segments) {
        MLOC_ASSIGN_OR_RETURN(seg.offset, r.get_varint());
        MLOC_ASSIGN_OR_RETURN(seg.length, r.get_varint());
        MLOC_ASSIGN_OR_RETURN(seg.count, r.get_varint());
        MLOC_ASSIGN_OR_RETURN(seg.bbox, deserialize_region(r));
      }
      MLOC_ASSIGN_OR_RETURN(
          vs.levels[lvl].file,
          fs->open(level_file_name(name, vs.name, lvl)));
    }
    store.vars_.push_back(std::move(vs));
  }
  return store;
}

std::vector<std::string> SubsetStore::variables() const {
  std::vector<std::string> out;
  for (const auto& v : vars_) out.push_back(v.name);
  return out;
}

double SubsetStore::coverage(int level) const {
  MLOC_CHECK(level >= 0 && level < cfg_.num_levels);
  std::uint64_t count = 0;
  for (int l = 0; l <= level; ++l) count += level_positions_[l].size();
  return static_cast<double>(count) /
         static_cast<double>(cfg_.shape.volume());
}

std::uint64_t SubsetStore::data_bytes() const {
  std::uint64_t total = 0;
  for (const auto& v : vars_) {
    for (const auto& lvl : v.levels) {
      total += fs_->file_size(lvl.file).value_or(0);
    }
  }
  return total;
}

std::uint64_t SubsetStore::index_bytes() const {
  return fs_->file_size(meta_file_).value_or(0);
}

Status SubsetStore::write_variable(const std::string& var, const Grid& grid) {
  if (!(grid.shape() == cfg_.shape)) {
    return invalid_argument("subset: grid shape mismatches config");
  }
  for (const auto& v : vars_) {
    if (v.name == var) return invalid_argument("subset: variable exists");
  }

  VariableState vs;
  vs.name = var;
  vs.levels.resize(cfg_.num_levels);
  for (int lvl = 0; lvl < cfg_.num_levels; ++lvl) {
    LevelState& state = vs.levels[lvl];
    MLOC_ASSIGN_OR_RETURN(state.file,
                          fs_->create(level_file_name(name_, var, lvl)));
    const auto& positions = level_positions_[lvl];
    for (std::size_t base = 0; base < positions.size();
         base += cfg_.segment_points) {
      const std::size_t n =
          std::min<std::size_t>(cfg_.segment_points, positions.size() - base);
      std::vector<double> values(n);
      Coord lo{}, hi{};
      bool first = true;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t pos = positions[base + i];
        values[i] = grid.at_linear(pos);
        const Coord c = cfg_.shape.delinearize(pos);
        if (first) {
          lo = c;
          hi = c;
          first = false;
        } else {
          for (int d = 0; d < cfg_.shape.ndims(); ++d) {
            lo[d] = std::min(lo[d], c[d]);
            hi[d] = std::max(hi[d], c[d]);
          }
        }
      }
      for (int d = 0; d < cfg_.shape.ndims(); ++d) ++hi[d];  // half-open
      MLOC_ASSIGN_OR_RETURN(Bytes enc, codec_->encode(values));
      SegmentInfo seg;
      MLOC_ASSIGN_OR_RETURN(std::uint64_t off, fs_->file_size(state.file));
      seg.offset = off;
      seg.length = enc.size();
      seg.count = n;
      seg.bbox = Region(cfg_.shape.ndims(), lo, hi);
      MLOC_RETURN_IF_ERROR(fs_->append(state.file, enc));
      state.segments.push_back(seg);
    }
  }
  vars_.push_back(std::move(vs));
  return write_meta();
}

Result<QueryResult> SubsetStore::read_level(const std::string& var, int level,
                                            const std::optional<Region>& sc,
                                            int num_ranks) const {
  if (level < 0 || level >= cfg_.num_levels) {
    return invalid_argument("subset: level out of range");
  }
  if (num_ranks < 1) return invalid_argument("subset: num_ranks >= 1");
  const VariableState* vs = nullptr;
  for (const auto& v : vars_) {
    if (v.name == var) vs = &v;
  }
  if (vs == nullptr) return not_found("subset: no variable named " + var);
  if (sc.has_value() && sc->ndims() != cfg_.shape.ndims()) {
    return invalid_argument("subset: SC dimensionality mismatch");
  }

  // Work items: (level, segment) pairs passing the bbox prune.
  struct Item {
    int lvl;
    std::size_t seg;
    std::size_t pos_base;  ///< offset into level_positions_[lvl]
  };
  std::vector<Item> items;
  for (int l = 0; l <= level; ++l) {
    std::size_t base = 0;
    for (std::size_t s = 0; s < vs->levels[l].segments.size(); ++s) {
      const auto& seg = vs->levels[l].segments[s];
      if (!sc.has_value() || sc->intersects(seg.bbox)) {
        items.push_back({l, s, base});
      }
      base += seg.count;
    }
  }

  QueryResult result;
  std::vector<std::vector<std::pair<std::uint64_t, double>>> hits(
      static_cast<std::size_t>(num_ranks));
  MLOC_RETURN_IF_ERROR(parallel::run_query_ranks(
      fs_->config(), num_ranks,
      [&](parallel::RankContext& ctx) -> Status {
        auto& out = hits[static_cast<std::size_t>(ctx.rank)];
        const auto ranges = parallel::split_even(items.size(), ctx.num_ranks);
        for (std::size_t i = ranges[ctx.rank].first;
             i < ranges[ctx.rank].second; ++i) {
          const Item& item = items[i];
          const auto& seg = vs->levels[item.lvl].segments[item.seg];
          MLOC_ASSIGN_OR_RETURN(
              const Bytes raw,
              fs_->read(vs->levels[item.lvl].file, seg.offset, seg.length,
                        &ctx.io_log, static_cast<std::uint32_t>(ctx.rank)));
          Stopwatch sw_dec;
          MLOC_ASSIGN_OR_RETURN(const std::vector<double> values,
                                codec_->decode(raw));
          ctx.times.decompress += sw_dec.seconds();
          if (values.size() != seg.count) {
            return corrupt_data("subset: segment count mismatch");
          }
          Stopwatch sw_rec;
          const auto& positions = level_positions_[item.lvl];
          for (std::size_t k = 0; k < seg.count; ++k) {
            const std::uint64_t pos = positions[item.pos_base + k];
            if (sc.has_value() &&
                !sc->contains(cfg_.shape.delinearize(pos))) {
              continue;
            }
            out.emplace_back(pos, values[k]);
          }
          ctx.times.reconstruct += sw_rec.seconds();
        }
        return Status::ok();
      },
      &result));

  Stopwatch sw_gather;
  std::vector<std::pair<std::uint64_t, double>> merged;
  for (auto& h : hits) merged.insert(merged.end(), h.begin(), h.end());
  std::sort(merged.begin(), merged.end());
  result.positions.reserve(merged.size());
  result.values.reserve(merged.size());
  for (const auto& [pos, val] : merged) {
    result.positions.push_back(pos);
    result.values.push_back(val);
  }
  result.fragments_read = items.size();
  result.times.reconstruct += sw_gather.seconds();
  return result;
}

}  // namespace mloc::multires
