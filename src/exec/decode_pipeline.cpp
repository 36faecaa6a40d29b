#include "exec/decode_pipeline.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/divider.hpp"
#include "util/timer.hpp"

namespace mloc::exec {

DecodedFragment decode_fragment(const DecodeInput& in, DecodeScratch& scratch,
                                ArrivalBuffer& arrivals) {
  DecodedFragment out;
  const VariableState& var = *in.var;
  const Query& q = *in.q;
  const FragmentTask& task = *in.task;
  const FragmentInfo& frag = *task.frag;
  const Region chunk_region = var.chunk_grid.chunk_region(frag.chunk);

  std::size_t si = 0;  // cursor over the task's segments
  auto next_bytes = [&]() -> std::span<const std::uint8_t> {
    const PlannedSegment& seg = in.segments[si];
    const SlotRef& slot = in.slots[si];
    ++si;
    if (slot.extent < 0) return {};
    return std::span<const std::uint8_t>((*in.buffers)[slot.extent])
        .subspan(slot.delta, seg.len);
  };

  // Everything decoded fresh: the provider candidate, made on the first
  // fresh decode that has to outlive this call.
  std::shared_ptr<FragmentData> fresh;
  auto fresh_data = [&]() -> FragmentData& {
    if (fresh == nullptr) {
      fresh = std::make_shared<FragmentData>();
      fresh->count = frag.count;
    }
    return *fresh;
  };

  // --- Positional index: cached decode or blob decode from the batch,
  // straight into the provider candidate when there is a provider.
  std::span<const std::uint32_t> local;
  if (task.blob_cached) {
    local = task.cached->positions;
  } else {
    const std::span<const std::uint8_t> blob = next_bytes();
    if (segment_checksum(var.checksum, blob) != frag.positions.checksum) {
      out.status = corrupt_data("position blob failed checksum");
      return out;
    }
    Stopwatch sw_pos;
    std::vector<std::uint32_t>& target =
        in.for_provider ? fresh_data().positions : scratch.positions;
    const Status decoded = decode_positions_into(blob, frag.count, target);
    if (!decoded.is_ok()) {
      out.status = decoded;
      return out;
    }
    // Offsets strictly ascend (decode_positions rejects anything else), so
    // the last one bounds them all: nothing past the chunk reaches the
    // emit pass, the bitmap lookups, the gather's key width, or the cache.
    if (!target.empty() && target.back() >= chunk_region.volume()) {
      out.status = corrupt_data("position index exceeds chunk volume");
      return out;
    }
    out.reconstruct_s += sw_pos.seconds();
    local = target;
  }

  // --- Values at fetch_level (the VC's basis); the emit pass degrades
  // them to the requested level.
  std::vector<double> whole;    // a whole-value decode no candidate keeps
  std::span<const double> vals;
  if (task.fetch_values) {
    if (var.plod_capable()) {
      // Cached planes answer groups [0, cached_depth); the batch buffers
      // cover [cached_depth, fetch_level).
      if (task.cached_depth < task.fetch_level) {
        FragmentData& f = fresh_data();
        f.planes.reserve(static_cast<std::size_t>(task.fetch_level));
        for (int g = 0; g < task.cached_depth; ++g) {
          f.planes.push_back(task.cached->planes[g]);
        }
        for (int g = task.cached_depth; g < task.fetch_level; ++g) {
          const std::span<const std::uint8_t> raw = next_bytes();
          if (segment_checksum(var.checksum, raw) !=
              frag.groups[g].checksum) {
            out.status = corrupt_data("fragment segment failed checksum");
            return out;
          }
          Stopwatch sw;
          auto plane = var.byte_codec->decode(raw);
          out.decompress_s += sw.seconds();
          if (!plane.is_ok()) {
            out.status = plane.status();
            return out;
          }
          f.planes.push_back(std::move(plane).value());
        }
      }
      Stopwatch sw;
      const std::vector<Bytes>& planes =
          task.cached_depth < task.fetch_level ? fresh->planes
                                               : task.cached->planes;
      std::array<std::span<const std::uint8_t>, plod::kNumGroups> spans;
      for (int g = 0; g < task.fetch_level; ++g) spans[g] = planes[g];
      scratch.values.resize(frag.count);
      const Status assembled = plod::assemble_into(
          std::span(spans.data(), static_cast<std::size_t>(task.fetch_level)),
          task.fetch_level, scratch.values);
      out.reconstruct_s += sw.seconds();
      if (!assembled.is_ok()) {
        out.status = assembled;
        return out;
      }
      vals = scratch.values;
    } else if (task.cached_depth > 0) {
      // Whole-value mode: the decoded buffer is cached at full precision.
      vals = task.cached->values;
    } else {
      const std::span<const std::uint8_t> raw = next_bytes();
      if (segment_checksum(var.checksum, raw) != frag.groups[0].checksum) {
        out.status = corrupt_data("fragment segment failed checksum");
        return out;
      }
      Stopwatch sw;
      auto decoded = var.double_codec->decode(raw);
      out.decompress_s += sw.seconds();
      if (!decoded.is_ok()) {
        out.status = decoded.status();
        return out;
      }
      std::vector<double>& target =
          in.for_provider ? fresh_data().values : whole;
      target = std::move(decoded).value();
      vals = target;
    }
    if (vals.size() != frag.count) {
      out.status = corrupt_data("fragment value count mismatch");
      return out;
    }
  }

  // --- Emit (reconstruction).
  Stopwatch sw;
  EmitSpec spec;
  spec.shape = in.shape;
  spec.chunk = chunk_region;
  spec.sc = q.sc.has_value() ? &*q.sc : nullptr;
  spec.vc = task.needs_vc_filter ? &*q.vc : nullptr;
  spec.position_filter = in.position_filter;
  spec.values_needed = q.values_needed;
  spec.level = q.plod_level;
  emit_fragment(spec, local, vals, arrivals);
  out.reconstruct_s += sw.seconds();

  if (in.for_provider && fresh != nullptr) {
    if (task.blob_cached) fresh->positions = task.cached->positions;
    out.candidate = std::move(fresh);
  }
  return out;
}

namespace {

/// One fragment's emit constants, set up once per fragment.
struct EmitFrame {
  /// by each chunk extent past the first (the first is never divided by)
  std::array<Divider, NDShape::kMaxDims> div;
  Coord ext{};    ///< chunk extents
  Coord lo{};     ///< SC ∩ chunk start, chunk-local
  Coord width{};  ///< SC ∩ chunk width (0: empty)
  std::array<std::uint64_t, NDShape::kMaxDims> stride{};  ///< grid strides
  std::uint64_t base = 0;  ///< grid offset of the chunk's origin
  plod::DegradeMasks masks;
  double vc_lo = 0.0;
  double vc_hi = 0.0;
  const Bitmap* filter = nullptr;
};

/// The pass at dimensionality N. Every point is written at the cursor and
/// the cursor advances by its keep bit, so no test branches. Returns the
/// kept count.
template <int N, bool kValues, bool kFilter, bool kVc>
std::size_t emit_points(const EmitFrame& f,
                        std::span<const std::uint32_t> local,
                        const double* vals, std::uint64_t* pos_out,
                        double* val_out) {
  std::size_t cur = 0;
  for (std::size_t k = 0; k < local.size(); ++k) {
    std::uint32_t rest = local[k];
    std::uint64_t linear = f.base;
    std::uint32_t keep = 1;
    for (int d = N - 1; d >= 1; --d) {
      const std::uint32_t quo = f.div[d].quotient(rest);
      const std::uint32_t c = rest - quo * f.ext[d];
      keep &= static_cast<std::uint32_t>(c - f.lo[d] < f.width[d]);
      linear += c * f.stride[d];
      rest = quo;
    }
    keep &= static_cast<std::uint32_t>(rest - f.lo[0] < f.width[0]);
    linear += rest * f.stride[0];
    if constexpr (kFilter) {
      keep &= static_cast<std::uint32_t>(f.filter->get(linear));
    }
    if constexpr (kVc) {
      const double v = vals[k];
      keep &= static_cast<std::uint32_t>(v >= f.vc_lo) &
              static_cast<std::uint32_t>(v < f.vc_hi);
    }
    pos_out[cur] = linear;
    if constexpr (kValues) {
      std::uint64_t bits;
      std::memcpy(&bits, &vals[k], sizeof bits);
      bits = (bits & f.masks.keep) | f.masks.fill;
      std::memcpy(&val_out[cur], &bits, sizeof bits);
    }
    cur += keep;
  }
  return cur;
}

using EmitLoop = std::size_t (*)(const EmitFrame&,
                                 std::span<const std::uint32_t>,
                                 const double*, std::uint64_t*, double*);

/// The pass's instantiations at dimensionality N, indexed by
/// values·4 + filter·2 + vc.
template <int N>
constexpr std::array<EmitLoop, 8> kEmitLoops = {
    &emit_points<N, false, false, false>, &emit_points<N, false, false, true>,
    &emit_points<N, false, true, false>,  &emit_points<N, false, true, true>,
    &emit_points<N, true, false, false>,  &emit_points<N, true, false, true>,
    &emit_points<N, true, true, false>,   &emit_points<N, true, true, true>};

}  // namespace

void emit_fragment(const EmitSpec& spec, std::span<const std::uint32_t> local,
                   std::span<const double> vals, ArrivalBuffer& arrivals) {
  if (local.empty()) return;
  const NDShape& shape = *spec.shape;
  const int n = shape.ndims();
  const Region win =
      spec.sc != nullptr ? spec.chunk.intersection(*spec.sc) : spec.chunk;
  EmitFrame f;
  std::uint64_t stride = 1;
  for (int d = n - 1; d >= 0; --d) {
    f.ext[d] = spec.chunk.extent(d);
    if (d > 0) f.div[d] = Divider(f.ext[d]);
    f.lo[d] = win.lo(d) - spec.chunk.lo(d);
    f.width[d] = win.hi(d) - win.lo(d);
    f.stride[d] = stride;
    stride *= shape.extent(d);
  }
  f.base = shape.linearize(spec.chunk.lo());
  f.masks = plod::degrade_masks(spec.level);
  f.filter = spec.position_filter;
  if (spec.vc != nullptr) {
    f.vc_lo = spec.vc->lo;
    f.vc_hi = spec.vc->hi;
  }

  const std::size_t flags = (spec.values_needed ? 4u : 0u) +
                            (spec.position_filter != nullptr ? 2u : 0u) +
                            (spec.vc != nullptr ? 1u : 0u);
  EmitLoop loop = nullptr;
  switch (n) {
    case 1: loop = kEmitLoops<1>[flags]; break;
    case 2: loop = kEmitLoops<2>[flags]; break;
    case 3: loop = kEmitLoops<3>[flags]; break;
    default: loop = kEmitLoops<4>[flags]; break;
  }
  // Every point is written at the cursor, and the cursor never passes the
  // number of points inside the SC window, so the tail needs at most that
  // many slots plus one.
  const auto tail = static_cast<std::size_t>(
      std::min<std::uint64_t>(local.size(), win.volume() + 1));
  std::uint64_t* const pos_out = arrivals.positions.grow_tail(tail);
  double* const val_out =
      spec.values_needed ? arrivals.values.grow_tail(tail) : nullptr;
  const std::size_t kept = loop(f, local, vals.data(), pos_out, val_out);
  arrivals.positions.commit(kept);
  if (spec.values_needed) arrivals.values.commit(kept);
}

namespace detail::scalar {

void emit_fragment(const EmitSpec& spec, std::span<const std::uint32_t> local,
                   std::span<const double> vals,
                   std::vector<std::uint64_t>& positions,
                   std::vector<double>& values) {
  std::vector<double> degraded;
  std::span<const double> out_vals = vals;
  if (spec.values_needed && spec.level != plod::kNumGroups) {
    degraded.resize(vals.size());
    plod::degrade_into(vals, spec.level, degraded);
    out_vals = degraded;
  }

  // One chunk row at a time. A row is the run along the last dimension;
  // chunk-local row-major order maps monotonically into grid row-major
  // order and the offsets strictly ascend, so per row one delinearize
  // fixes the row's grid base offset and whether its leading coordinates
  // lie inside the SC, and per point the SC test is one subtract and one
  // unsigned window compare.
  const Region& chunk_region = spec.chunk;
  const NDShape& shape = *spec.shape;
  const int last = shape.ndims() - 1;
  const std::uint64_t row_len = chunk_region.extent(last);
  // SC ∩ chunk in chunk-local coordinates, [win_lo, win_hi) per dimension
  // (the whole chunk without an SC).
  const Region win = spec.sc != nullptr
                         ? chunk_region.intersection(*spec.sc)
                         : chunk_region;
  Coord win_lo{};
  Coord win_hi{};
  for (int d = 0; d <= last; ++d) {
    win_lo[d] = win.lo(d) - chunk_region.lo(d);
    win_hi[d] = win.hi(d) - chunk_region.lo(d);
  }
  const std::uint64_t col_lo = win_lo[last];
  std::uint64_t row_begin = 0;  // chunk-local offset of the row's column 0
  std::uint64_t row_end = 0;    // first offset past the row
  std::uint64_t row_base = 0;   // grid offset of the row's column 0
  std::uint64_t col_n = 0;      // SC window width in this row (0: outside)
  for (std::size_t k = 0; k < local.size(); ++k) {
    const std::uint64_t off = local[k];
    if (off >= row_end) {
      std::uint64_t row = off / row_len;
      row_begin = row * row_len;
      row_end = row_begin + row_len;
      Coord coord = chunk_region.lo();
      bool inside = true;
      for (int d = last - 1; d >= 0; --d) {
        const auto c =
            static_cast<std::uint32_t>(row % chunk_region.extent(d));
        row /= chunk_region.extent(d);
        inside = inside && c >= win_lo[d] && c < win_hi[d];
        coord[d] += c;
      }
      row_base = shape.linearize(coord);
      col_n = inside ? win_hi[last] - col_lo : 0;
    }
    const std::uint64_t col = off - row_begin;
    if (col - col_lo >= col_n) continue;  // wraps when col < col_lo
    const std::uint64_t linear = row_base + col;
    if (spec.position_filter != nullptr &&
        !spec.position_filter->get(linear)) {
      continue;
    }
    if (spec.vc != nullptr && !spec.vc->matches(vals[k])) {
      continue;
    }
    positions.push_back(linear);
    if (spec.values_needed) values.push_back(out_vals[k]);
  }
}

}  // namespace detail::scalar

}  // namespace mloc::exec
