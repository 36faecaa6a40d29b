#include "exec/decode_pipeline.hpp"

#include <utility>

#include "plod/plod.hpp"
#include "util/timer.hpp"

namespace mloc::exec {

DecodedFragment decode_fragment(const DecodeInput& in,
                                std::vector<std::uint64_t>& positions,
                                std::vector<double>& values) {
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

  // --- Positional index: cached decode or blob decode from the batch,
  // straight into the provider candidate when there is a provider.
  std::vector<std::uint32_t> decoded_positions;
  const std::vector<std::uint32_t>* local = nullptr;
  if (task.blob_cached) {
    local = &task.cached->positions;
  } else {
    const std::span<const std::uint8_t> blob = next_bytes();
    if (segment_checksum(var.checksum, blob) != frag.positions.checksum) {
      out.status = corrupt_data("position blob failed checksum");
      return out;
    }
    Stopwatch sw_pos;
    std::shared_ptr<FragmentData> fresh;
    std::vector<std::uint32_t>* target = &decoded_positions;
    if (in.for_provider) {
      fresh = std::make_shared<FragmentData>();
      fresh->count = frag.count;
      target = &fresh->positions;
    }
    const Status decoded = decode_positions_into(blob, frag.count, *target);
    if (!decoded.is_ok()) {
      out.status = decoded;
      return out;
    }
    // Offsets strictly ascend (decode_positions rejects anything else), so
    // the last one bounds them all: nothing past the chunk reaches the
    // filter, the bitmap lookups, the gather's key width, or the cache.
    if (!target->empty() && target->back() >= chunk_region.volume()) {
      out.status = corrupt_data("position index exceeds chunk volume");
      return out;
    }
    out.reconstruct_s += sw_pos.seconds();
    local = target;
    out.fresh_positions = std::move(fresh);
  }

  // --- Values: decode at fetch_level, degrade to the requested level.
  std::vector<double> vals_owned;    // assembled or freshly decoded values
  std::span<const double> vals;      // at fetch_level (filtering basis)
  std::vector<double> degraded;      // q.plod_level < fetch_level only
  std::span<const double> out_vals;  // at q.plod_level (returned values)
  if (task.fetch_values) {
    if (var.plod_capable()) {
      // Cached planes answer groups [0, cached_depth); the batch buffers
      // cover [cached_depth, fetch_level).
      std::shared_ptr<FragmentData> fresh;
      if (task.cached_depth < task.fetch_level) {
        fresh = std::make_shared<FragmentData>();
        fresh->count = frag.count;
        fresh->planes.reserve(static_cast<std::size_t>(task.fetch_level));
        for (int g = 0; g < task.cached_depth; ++g) {
          fresh->planes.push_back(task.cached->planes[g]);
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
          fresh->planes.push_back(std::move(plane).value());
        }
        if (in.for_provider) out.fresh_payload = fresh;
      }
      Stopwatch sw;
      const auto& planes =
          fresh != nullptr ? fresh->planes : task.cached->planes;
      std::vector<std::span<const std::uint8_t>> spans;
      spans.reserve(static_cast<std::size_t>(task.fetch_level));
      for (int g = 0; g < task.fetch_level; ++g) spans.emplace_back(planes[g]);
      vals_owned.resize(frag.count);
      const Status assembled =
          plod::assemble_into(spans, task.fetch_level, vals_owned);
      out.reconstruct_s += sw.seconds();
      if (!assembled.is_ok()) {
        out.status = assembled;
        return out;
      }
      vals = vals_owned;
    } else {
      // Whole-value mode: the decoded buffer is cached at full precision.
      if (task.cached_depth > 0) {
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
        vals_owned = std::move(decoded).value();
        vals = vals_owned;
        if (in.for_provider && vals.size() == frag.count) {
          auto fresh = std::make_shared<FragmentData>();
          fresh->count = frag.count;
          fresh->values = std::move(vals_owned);
          vals = fresh->values;
          out.fresh_payload = std::move(fresh);
        }
      }
    }
    if (vals.size() != frag.count) {
      out.status = corrupt_data("fragment value count mismatch");
      return out;
    }
    out_vals = vals;
    if (q.values_needed && var.plod_capable() &&
        task.fetch_level != q.plod_level) {
      // One masked pass instead of shred + assemble round-tripping
      // through byte planes; bit-identical by degrade_into's contract.
      Stopwatch sw_degrade;
      degraded.resize(vals.size());
      plod::degrade_into(vals, q.plod_level, degraded);
      out.reconstruct_s += sw_degrade.seconds();
      out_vals = degraded;
    }
  }

  // --- Filter + emit (reconstruction), one chunk row at a time. A row is
  // the run along the last dimension; chunk-local row-major order maps
  // monotonically into grid row-major order and the offsets strictly
  // ascend, so per row one delinearize fixes the row's grid base offset
  // and whether its leading coordinates lie inside the SC, and per point
  // the SC test is one subtract and one unsigned window compare.
  Stopwatch sw;
  const NDShape& shape = *in.shape;
  const int last = shape.ndims() - 1;
  const std::uint64_t row_len = chunk_region.extent(last);
  // SC ∩ chunk in chunk-local coordinates, [win_lo, win_hi) per dimension
  // (the whole chunk without an SC).
  const Region win =
      q.sc.has_value() ? chunk_region.intersection(*q.sc) : chunk_region;
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
  for (std::size_t k = 0; k < local->size(); ++k) {
    const std::uint64_t off = (*local)[k];
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
    if (in.position_filter != nullptr && !in.position_filter->get(linear)) {
      continue;
    }
    if (task.needs_vc_filter && !q.vc->matches(vals[k])) {
      continue;
    }
    positions.push_back(linear);
    if (q.values_needed) values.push_back(out_vals[k]);
  }
  out.reconstruct_s += sw.seconds();
  return out;
}

}  // namespace mloc::exec
