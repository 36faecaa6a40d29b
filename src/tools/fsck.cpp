#include "tools/fsck.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "array/chunking.hpp"
#include "bitmap/bitmap.hpp"
#include "core/layout.hpp"
#include "core/store.hpp"
#include "index/hbx.hpp"
#include "plod/plod.hpp"
#include "sfc/hilbert.hpp"
#include "util/assert.hpp"

namespace mloc::fsck {
namespace {

std::string u64str(std::uint64_t v) { return std::to_string(v); }

/// Issue sink with the max_issues cap applied once, centrally.
class Sink {
 public:
  Sink(Report* report, std::size_t max_issues)
      : report_(report), max_issues_(max_issues) {}

  void add(std::string check, std::string object, std::string detail) {
    if (report_->issues.size() >= max_issues_) {
      ++report_->suppressed_issues;
      return;
    }
    report_->issues.push_back(
        {std::move(check), std::move(object), std::move(detail)});
  }

 private:
  Report* report_;
  std::size_t max_issues_;
};

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Read a whole pfs file. No IoLog: fsck is an offline integrity scan, not
/// part of any modeled query.
Result<Bytes> read_all(const pfs::PfsStorage& fs, pfs::FileId id) {
  MLOC_ASSIGN_OR_RETURN(std::uint64_t size, fs.file_size(id));
  return fs.read(id, 0, size);
}

/// Everything the per-bin checks need about the enclosing store, resolved
/// per variable (each variable may carry its own layout).
struct StoreContext {
  const pfs::PfsStorage* fs = nullptr;
  const MlocStore* store = nullptr;
  const VariableState* var = nullptr;  ///< the store's record
  bool lossless = false;
  /// Per-chunk occupancy marks for the cross-bin bijectivity check.
  std::vector<std::vector<bool>> chunk_marks;
  /// Per bin, when the variable has a .hbx: the global position bitmap its
  /// positional index decodes to, the truth its leaf must equal. check_bin
  /// builds it; it stays empty for a bin whose blobs did not all read clean.
  std::vector<std::optional<WahBitmap>> leaf_truth;
};

std::string bin_name(const StoreContext& ctx, int bin) {
  return ctx.var->name + ".bin" + std::to_string(bin);
}
std::string frag_name(const StoreContext& ctx, int bin, std::size_t f,
                      ChunkId chunk) {
  return bin_name(ctx, bin) + " frag " + std::to_string(f) + " (chunk " +
         std::to_string(chunk) + ")";
}

/// The recomputed curve must be a bijection lattice <-> ranks; a broken
/// permutation would scramble every subsequent order check, so verify it
/// first (a violation indicates a code bug, not data corruption).
void check_curve_permutation(const StoreContext& ctx, Sink& sink) {
  const std::uint32_t n = ctx.var->chunk_grid.num_chunks();
  if (ctx.var->curve_order.size() != n) {
    sink.add("order", ctx.var->name,
             "curve order has " + u64str(ctx.var->curve_order.size()) +
             " cells, chunk lattice has " + u64str(n));
    return;
  }
  std::vector<bool> seen(n, false);
  for (std::uint32_t r = 0; r < n; ++r) {
    const ChunkId id = ctx.var->curve_order.chunk_at(r);
    if (id >= n || seen[id]) {
      sink.add("order", ctx.var->name,
               "curve rank " + u64str(r) + " maps to invalid/duplicate chunk " +
               u64str(id));
      return;
    }
    seen[id] = true;
    if (ctx.var->curve_order.rank_of(id) != r) {
      sink.add("order", ctx.var->name,
               "rank_of(chunk_at(" + u64str(r) + ")) != " + u64str(r));
      return;
    }
  }
}

/// Decode one fragment's payload segments and validate plane sizes (and,
/// for lossless storage, that values obey the zone map and route back to
/// the bin holding them).
void check_fragment_payload(StoreContext& ctx, int bin,
                            const FragmentInfo& frag, std::size_t frag_no,
                            const Bytes& dat, std::uint64_t dat_payload,
                            Sink& sink) {
  const std::string name = frag_name(ctx, bin, frag_no, frag.chunk);
  std::vector<Bytes> planes;
  for (std::size_t g = 0; g < frag.groups.size(); ++g) {
    const Segment& seg = frag.groups[g];
    if (seg.offset + seg.length > dat_payload ||
        seg.offset + seg.length < seg.offset) {
      return;  // already reported by the segment-tiling check
    }
    const std::span<const std::uint8_t> raw =
        std::span<const std::uint8_t>(dat).subspan(seg.offset, seg.length);
    if (segment_checksum(ctx.var->checksum, raw) != seg.checksum) {
      sink.add("planes", name,
               "group " + u64str(g) + " segment failed checksum");
      return;
    }
    if (ctx.var->byte_codec != nullptr) {
      auto plane = ctx.var->byte_codec->decode(raw);
      if (!plane.is_ok()) {
        sink.add("planes", name, "group " + u64str(g) + " decode failed: " +
                 plane.status().to_string());
        return;
      }
      const std::uint64_t want =
          frag.count *
          static_cast<std::uint64_t>(plod::group_bytes(static_cast<int>(g)));
      if (plane.value().size() != want) {
        sink.add("planes", name,
                 "group " + u64str(g) + " plane has " +
                 u64str(plane.value().size()) + " bytes, expected " +
                 u64str(want) + " (count " + u64str(frag.count) + ")");
        return;
      }
      planes.push_back(std::move(plane).value());
    }
  }

  std::vector<double> values;
  if (ctx.var->byte_codec != nullptr) {
    // Group count mismatches are reported under "table"; without the full
    // prefix there is nothing coherent to reassemble.
    if (static_cast<int>(planes.size()) != plod::kNumGroups) return;
    std::uint64_t total = 0;
    for (const auto& p : planes) total += p.size();
    if (total != frag.count * 8) {
      sink.add("planes", name, "plane bytes sum to " + u64str(total) +
               ", expected 8 x " + u64str(frag.count));
      return;
    }
    std::vector<std::span<const std::uint8_t>> spans(planes.begin(),
                                                     planes.end());
    auto assembled = plod::assemble(spans, plod::kNumGroups, frag.count);
    if (!assembled.is_ok()) {
      sink.add("planes", name,
               "reassembly failed: " + assembled.status().to_string());
      return;
    }
    values = std::move(assembled).value();
  } else {
    if (frag.groups.size() != 1) return;  // reported under "table"
    const Segment& seg = frag.groups[0];
    auto decoded = ctx.var->double_codec->decode(
        std::span<const std::uint8_t>(dat).subspan(seg.offset, seg.length));
    if (!decoded.is_ok()) {
      sink.add("planes", name,
               "value decode failed: " + decoded.status().to_string());
      return;
    }
    if (decoded.value().size() != frag.count) {
      sink.add("planes", name,
               "decoded " + u64str(decoded.value().size()) +
               " values, fragment table says " + u64str(frag.count));
      return;
    }
    values = std::move(decoded).value();
  }

  if (!ctx.lossless) return;  // lossy codecs may move values across bounds
  const int last_bin = ctx.var->scheme.num_bins() - 1;
  for (double v : values) {
    if (std::isnan(v)) {
      if (bin != last_bin) {
        sink.add("planes", name, "NaN stored outside the last bin");
        return;
      }
      continue;
    }
    if (v < frag.min_value || v > frag.max_value) {
      sink.add("planes", name,
               "value " + std::to_string(v) + " outside zone map [" +
               std::to_string(frag.min_value) + ", " +
               std::to_string(frag.max_value) + "]");
      return;
    }
    if (ctx.var->scheme.bin_of(v) != bin) {
      sink.add("bin-bounds", name,
               "value " + std::to_string(v) + " routes to bin " +
               std::to_string(ctx.var->scheme.bin_of(v)) + ", stored in bin " +
               std::to_string(bin));
      return;
    }
  }
}

void check_bin(StoreContext& ctx, int bin, const Options& opts,
               Report& report, Sink& sink) {
  const std::string name = bin_name(ctx, bin);
  const VariableState::Bin& files =
      ctx.var->bins[static_cast<std::size_t>(bin)];
  const std::uint64_t header_len = files.idx.header_len;
  auto idx = read_all(*ctx.fs, files.idx.file);
  auto dat = read_all(*ctx.fs, files.dat.file);
  if (!idx.is_ok() || !dat.is_ok()) {
    sink.add("footer", name, "cannot read subfiles: " +
             (idx.is_ok() ? dat.status() : idx.status()).to_string());
    return;
  }

  // --- footer: whole-file CRC of both subfiles.
  report.subfiles_checked += 2;
  auto idx_payload = verify_subfile_footer(idx.value());
  if (!idx_payload.is_ok()) {
    sink.add("footer", name + ".idx", idx_payload.status().to_string());
    return;
  }
  auto dat_payload = verify_subfile_footer(dat.value());
  if (!dat_payload.is_ok()) {
    sink.add("footer", name + ".dat", dat_payload.status().to_string());
    return;
  }
  report.bytes_verified += idx.value().size() + dat.value().size();

  // --- table: the fragment table must decode and consume header_len
  // bytes exactly.
  if (header_len > idx_payload.value()) {
    sink.add("table", name, "header_len " + u64str(header_len) +
             " exceeds .idx payload of " + u64str(idx_payload.value()));
    return;
  }
  ByteReader header_reader(
      std::span<const std::uint8_t>(idx.value()).first(header_len));
  auto layout = BinLayout::deserialize(header_reader);
  if (!layout.is_ok()) {
    sink.add("table", name,
             "fragment table corrupt: " + layout.status().to_string());
    return;
  }
  if (!header_reader.exhausted()) {
    sink.add("table", name,
             "fragment table leaves " + u64str(header_reader.remaining()) +
             " trailing header bytes");
  }

  const auto& frags = layout.value().fragments;
  report.fragments_checked += frags.size();
  const std::uint32_t num_chunks = ctx.var->chunk_grid.num_chunks();
  const int want_groups = ctx.var->num_groups();
  const std::uint64_t blob_section = idx_payload.value() - header_len;

  // --- order: strictly increasing curve rank, each chunk at most once.
  for (std::size_t f = 0; f < frags.size(); ++f) {
    if (frags[f].chunk >= num_chunks) {
      sink.add("order", frag_name(ctx, bin, f, frags[f].chunk),
               "chunk id outside lattice of " + u64str(num_chunks));
      continue;
    }
    if (f > 0 && frags[f - 1].chunk < num_chunks &&
        ctx.var->curve_order.rank_of(frags[f].chunk) <=
            ctx.var->curve_order.rank_of(frags[f - 1].chunk)) {
      sink.add("order", frag_name(ctx, bin, f, frags[f].chunk),
               "curve rank " +
               u64str(ctx.var->curve_order.rank_of(frags[f].chunk)) +
               " not after predecessor's rank " +
               u64str(ctx.var->curve_order.rank_of(frags[f - 1].chunk)));
    }
  }

  // --- table: per-fragment shape invariants.
  for (std::size_t f = 0; f < frags.size(); ++f) {
    const FragmentInfo& frag = frags[f];
    const std::string fname = frag_name(ctx, bin, f, frag.chunk);
    if (static_cast<int>(frag.groups.size()) != want_groups) {
      sink.add("table", fname,
               u64str(frag.groups.size()) + " byte groups, store mode has " +
               std::to_string(want_groups));
    }
    if (frag.count == 0) {
      sink.add("table", fname, "empty fragment (count 0) was materialized");
    }
    if (frag.count > 0 && !std::isnan(frag.min_value) &&
        !std::isnan(frag.max_value) && frag.min_value > frag.max_value &&
        // An all-NaN fragment legitimately keeps inverted inf sentinels.
        !(std::isinf(frag.min_value) && std::isinf(frag.max_value))) {
      sink.add("table", fname,
               "zone map inverted: min " + std::to_string(frag.min_value) +
               " > max " + std::to_string(frag.max_value));
    }
  }

  // --- segments: positional blobs tile the .idx blob section exactly...
  std::uint64_t running = 0;
  for (std::size_t f = 0; f < frags.size(); ++f) {
    const Segment& pos = frags[f].positions;
    if (pos.offset != running) {
      sink.add("segments", frag_name(ctx, bin, f, frags[f].chunk),
               "position blob at offset " + u64str(pos.offset) +
               ", expected " + u64str(running));
      running = pos.offset;  // resync so one bad offset reports once
    }
    running += pos.length;
  }
  if (running != blob_section) {
    sink.add("segments", name,
             "position blobs cover " + u64str(running) + " bytes of a " +
             u64str(blob_section) + "-byte blob section");
  }

  // --- ...and payload segments tile the .dat payload in the configured
  // (M,S) emission order — this is the "correct prefix offsets" check.
  running = 0;
  const bool vms = ctx.var->layout.order == LevelOrder::kVMS;
  const std::size_t outer =
      vms ? static_cast<std::size_t>(want_groups) : frags.size();
  const std::size_t inner =
      vms ? frags.size() : static_cast<std::size_t>(want_groups);
  bool segments_ok = true;
  for (std::size_t a = 0; a < outer && segments_ok; ++a) {
    for (std::size_t b = 0; b < inner && segments_ok; ++b) {
      const std::size_t f = vms ? b : a;
      const std::size_t g = vms ? a : b;
      if (f >= frags.size() || g >= frags[f].groups.size()) continue;
      const Segment& seg = frags[f].groups[g];
      if (seg.offset != running) {
        sink.add("segments", frag_name(ctx, bin, f, frags[f].chunk),
                 "group " + u64str(g) + " at offset " + u64str(seg.offset) +
                 ", expected " + u64str(running));
        segments_ok = false;
      }
      running += seg.length;
    }
  }
  if (segments_ok && running != dat_payload.value()) {
    sink.add("segments", name,
             "payload segments cover " + u64str(running) + " bytes of a " +
             u64str(dat_payload.value()) + "-byte .dat payload");
  }

  // --- positions: checksum, decode, range, and cross-bin occupancy. With
  // a .hbx, every clean blob also goes into the bin's leaf truth.
  std::optional<Bitmap> truth;
  if (ctx.var->hbx) truth.emplace(ctx.var->chunk_grid.array_shape().volume());
  std::size_t clean_blobs = 0;
  for (std::size_t f = 0; f < frags.size(); ++f) {
    const FragmentInfo& frag = frags[f];
    const std::string fname = frag_name(ctx, bin, f, frag.chunk);
    const Segment& pos = frag.positions;
    if (pos.offset + pos.length > blob_section ||
        pos.offset + pos.length < pos.offset) {
      sink.add("positions", fname,
               "blob extent [" + u64str(pos.offset) + ", +" +
               u64str(pos.length) + ") outside blob section of " +
               u64str(blob_section));
      continue;
    }
    const auto blob = std::span<const std::uint8_t>(idx.value())
                          .subspan(header_len + pos.offset, pos.length);
    if (segment_checksum(ctx.var->checksum, blob) != pos.checksum) {
      sink.add("positions", fname, "position blob failed checksum");
      continue;
    }
    auto decoded = decode_positions(blob, frag.count);
    if (!decoded.is_ok()) {
      sink.add("positions", fname,
               "blob decode failed: " + decoded.status().to_string());
      continue;
    }
    if (frag.chunk >= num_chunks) continue;  // reported under "order"
    const std::uint64_t chunk_volume =
        ctx.var->chunk_grid.chunk_region(frag.chunk).volume();
    auto& marks = ctx.chunk_marks[frag.chunk];
    if (marks.empty()) marks.resize(chunk_volume, false);
    for (std::uint32_t off : decoded.value()) {
      if (off >= chunk_volume) {
        sink.add("positions", fname,
                 "local offset " + u64str(off) + " outside chunk volume " +
                 u64str(chunk_volume));
        break;
      }
      if (marks[off]) {
        sink.add("positions", fname,
                 "local offset " + u64str(off) +
                 " already claimed by another fragment of chunk " +
                 u64str(frag.chunk));
        break;
      }
      marks[off] = true;
    }
    // Offsets ascend strictly, so the last one bounds them all.
    if (!decoded.value().empty() && decoded.value().back() >= chunk_volume) {
      continue;
    }
    ++clean_blobs;
    if (truth) {
      ctx.var->chunk_grid.for_each_array_offset(
          frag.chunk, decoded.value(),
          [&](std::uint64_t p) { truth->set(p); });
    }
  }
  if (truth && clean_blobs == frags.size()) {
    ctx.leaf_truth[static_cast<std::size_t>(bin)] = WahBitmap::compress(*truth);
  }

  // --- planes: decode payloads (the expensive, optional pass).
  if (opts.decode_payloads) {
    for (std::size_t f = 0; f < frags.size(); ++f) {
      check_fragment_payload(ctx, bin, frags[f], f, dat.value(),
                             dat_payload.value(), sink);
    }
  }
}

std::string node_name(const std::string& hbx, std::size_t i,
                      const index::HbxNode& n) {
  return hbx + " node " + std::to_string(i) + " (level " +
         std::to_string(n.level) + ", bins [" + std::to_string(n.first_bin) +
         ".." + std::to_string(n.last_bin()) + "])";
}

/// The "index" family: hierarchical bitmap index consistency (.hbx).
void check_index(const StoreContext& ctx, VariableLayoutInfo& info,
                 Report& report, Sink& sink) {
  if (!ctx.var->hbx) return;
  info.hbx_present = true;
  const std::string name = ctx.var->name + ".hbx";
  auto raw = read_all(*ctx.fs, ctx.var->hbx->file);
  if (!raw.is_ok()) {
    sink.add("footer", name,
             "cannot read subfile: " + raw.status().to_string());
    return;
  }
  ++report.subfiles_checked;
  info.hbx_bytes = raw.value().size();

  // --- footer: whole-file CRC (catches truncation and trailing damage).
  auto payload = verify_subfile_footer(raw.value());
  if (!payload.is_ok()) {
    sink.add("footer", name, payload.status().to_string());
    return;
  }
  report.bytes_verified += raw.value().size();

  const std::uint64_t header_len = ctx.var->hbx->header_len;
  if (header_len > payload.value()) {
    sink.add("index", name,
             "header_len " + u64str(header_len) + " exceeds payload of " +
             u64str(payload.value()));
    return;
  }
  auto header = index::HbxHeader::deserialize(
      std::span<const std::uint8_t>(raw.value()).first(header_len));
  if (!header.is_ok()) {
    sink.add("index", name,
             "node table corrupt: " + header.status().to_string());
    return;
  }
  const index::HbxHeader& h = header.value();
  info.hbx_levels = h.num_levels();
  info.hbx_nodes = h.nodes.size();
  const NDShape& shape = ctx.store->config().shape;
  if (h.num_bins != ctx.var->scheme.num_bins() || h.nbits != shape.volume()) {
    sink.add("index", name,
             "node table for " + std::to_string(h.num_bins) + " bins x " +
             u64str(h.nbits) + " bits, store has " +
             std::to_string(ctx.var->scheme.num_bins()) + " bins x " +
             u64str(shape.volume()));
    return;
  }

  // --- every node bitmap: extent, checksum, decode, width, popcount.
  const std::uint64_t payload_section = payload.value() - header_len;
  std::vector<WahBitmap> node_bm(h.nodes.size());
  std::vector<bool> node_ok(h.nodes.size(), false);
  for (std::size_t i = 0; i < h.nodes.size(); ++i) {
    const index::HbxNode& n = h.nodes[i];
    if (n.offset + n.length > payload_section ||
        n.offset + n.length < n.offset) {
      sink.add("index", node_name(name, i, n),
               "payload extent [" + u64str(n.offset) + ", +" +
               u64str(n.length) + ") outside payload section of " +
               u64str(payload_section));
      continue;
    }
    const auto seg = std::span<const std::uint8_t>(raw.value())
                         .subspan(header_len + n.offset, n.length);
    if (segment_checksum(ctx.var->checksum, seg) != n.checksum) {
      sink.add("index", node_name(name, i, n),
               "node bitmap failed checksum");
      continue;
    }
    ByteReader r(seg);
    auto bm = WahBitmap::deserialize(r);
    if (!bm.is_ok()) {
      sink.add("index", node_name(name, i, n),
               "bitmap decode failed: " + bm.status().to_string());
      continue;
    }
    if (bm.value().size_bits() != h.nbits) {
      sink.add("index", node_name(name, i, n),
               "bitmap spans " + u64str(bm.value().size_bits()) +
               " bits, grid has " + u64str(h.nbits));
      continue;
    }
    if (bm.value().count() != n.popcount) {
      sink.add("index", node_name(name, i, n),
               "bitmap popcount " + u64str(bm.value().count()) +
               ", node table says " + u64str(n.popcount));
      continue;
    }
    node_bm[i] = std::move(bm).value();
    node_ok[i] = true;
  }

  // --- aggregation: every level-k node equals the OR of its children.
  for (int k = 1; k < h.num_levels(); ++k) {
    const auto children = h.level(k - 1);
    const std::size_t child_base = h.level_begin[static_cast<std::size_t>(k - 1)];
    for (std::size_t j = 0; j < h.level(k).size(); ++j) {
      const std::size_t i = h.level_begin[static_cast<std::size_t>(k)] + j;
      const index::HbxNode& n = h.nodes[i];
      if (!node_ok[i]) continue;
      WahBitmap agg;
      bool all_ok = true;
      for (std::size_t c = 0; c < children.size(); ++c) {
        if (children[c].first_bin < n.first_bin ||
            children[c].last_bin() > n.last_bin()) {
          continue;
        }
        if (!node_ok[child_base + c]) {
          all_ok = false;
          break;
        }
        const WahBitmap& cb = node_bm[child_base + c];
        agg = agg.size_bits() == 0 ? cb : WahBitmap::logical_or(agg, cb);
      }
      if (!all_ok) continue;  // children already reported
      if (!(agg == node_bm[i])) {
        sink.add("index", node_name(name, i, n),
                 "aggregate bitmap is not the OR of its level-" +
                 std::to_string(k - 1) + " children");
      }
    }
  }

  // --- leaves: leaf b must equal the union of bin b's positional-index
  // entries mapped to global grid offsets (ground truth check_bin built
  // from .idx; none for a bin whose blobs it could not read clean).
  const std::size_t leaves =
      std::min(static_cast<std::size_t>(h.num_bins), ctx.leaf_truth.size());
  for (std::size_t i = 0; i < leaves; ++i) {  // leaf node id == bin
    if (!node_ok[i] || !ctx.leaf_truth[i]) continue;
    if (!(*ctx.leaf_truth[i] == node_bm[i])) {
      sink.add("index", node_name(name, i, h.nodes[i]),
               "leaf bitmap disagrees with bin " + std::to_string(i) +
               "'s positional index");
    }
  }
}

}  // namespace

std::string Report::human() const {
  std::string out = "fsck " + store + ": ";
  if (ok()) {
    out += "clean (" + u64str(variables_checked) + " variables, " +
           u64str(subfiles_checked) + " subfiles, " +
           u64str(fragments_checked) + " fragments, " +
           u64str(bytes_verified) + " bytes verified)\n";
    return out;
  }
  out += u64str(issues.size() + suppressed_issues) + " issue(s)\n";
  for (const auto& i : issues) {
    out += "  [" + i.check + "] " + i.object + ": " + i.detail + "\n";
  }
  if (suppressed_issues > 0) {
    out += "  ... and " + u64str(suppressed_issues) + " more\n";
  }
  return out;
}

std::string Report::json() const {
  std::string out = "{\"store\":\"" + json_escape(store) + "\",";
  out += "\"ok\":" + std::string(ok() ? "true" : "false") + ",";
  out += "\"variables_checked\":" + u64str(variables_checked) + ",";
  out += "\"subfiles_checked\":" + u64str(subfiles_checked) + ",";
  out += "\"fragments_checked\":" + u64str(fragments_checked) + ",";
  out += "\"bytes_verified\":" + u64str(bytes_verified) + ",";
  out += "\"suppressed_issues\":" + u64str(suppressed_issues) + ",";
  out += "\"variables\":[";
  for (std::size_t i = 0; i < variable_layouts.size(); ++i) {
    const VariableLayoutInfo& v = variable_layouts[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + json_escape(v.name) + "\",";
    out += "\"checksum\":\"" + json_escape(v.checksum) + "\",";
    out += "\"layout\":{";
    out += "\"order\":\"" + json_escape(v.order) + "\",";
    out += "\"curve\":\"" + json_escape(v.curve) + "\",";
    out += "\"interleave\":\"" + json_escape(v.interleave) + "\",";
    out += "\"codec\":\"" + json_escape(v.codec) + "\",";
    out += "\"chunk_shape\":\"" + json_escape(v.chunk_shape) + "\",";
    out += "\"num_bins\":" + std::to_string(v.num_bins) + ",";
    out += "\"index_fanout\":" + std::to_string(v.index_fanout) + ",";
    out += "\"plod_capable\":" + std::string(v.plod_capable ? "true" : "false");
    out += "},";
    out += "\"hbx\":{";
    out += "\"present\":" + std::string(v.hbx_present ? "true" : "false") + ",";
    out += "\"levels\":" + std::to_string(v.hbx_levels) + ",";
    out += "\"nodes\":" + u64str(v.hbx_nodes) + ",";
    out += "\"bytes\":" + u64str(v.hbx_bytes);
    out += "}}";
  }
  out += "],";
  out += "\"issues\":[";
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"check\":\"" + json_escape(issues[i].check) + "\",";
    out += "\"object\":\"" + json_escape(issues[i].object) + "\",";
    out += "\"detail\":\"" + json_escape(issues[i].detail) + "\"}";
  }
  out += "]}";
  return out;
}

LayoutVerifier::LayoutVerifier(pfs::PfsStorage* fs, Options opts)
    : fs_(fs), opts_(opts) {
  MLOC_CHECK(fs != nullptr);
}

std::vector<std::string> LayoutVerifier::discover_stores() const {
  std::vector<std::string> out;
  constexpr std::string_view kSuffix = ".meta";
  for (const auto& [name, size] : fs_->listing()) {
    (void)size;
    if (name.size() > kSuffix.size() && name.ends_with(kSuffix)) {
      out.push_back(name.substr(0, name.size() - kSuffix.size()));
    }
  }
  return out;
}

Report LayoutVerifier::verify_store(const std::string& name) const {
  Report report;
  report.store = name;
  Sink sink(&report, opts_.max_issues);

  // Opening runs the meta-footer CRC and every metadata decode check; any
  // failure there is the first invariant violation.
  auto opened = MlocStore::open(fs_, name);
  if (!opened.is_ok()) {
    sink.add("meta", name + ".meta", opened.status().to_string());
    return report;
  }
  const MlocStore& store = opened.value();
  ++report.subfiles_checked;  // the .meta file open() just CRC-verified
  if (auto meta_id = fs_->open(name + ".meta"); meta_id.is_ok()) {
    if (auto sz = fs_->file_size(meta_id.value()); sz.is_ok()) {
      report.bytes_verified += sz.value();
    }
  }

  for (const auto& var : store.variables()) {
    ++report.variables_checked;
    auto state = store.variable(var);
    if (!state.is_ok()) {
      sink.add("meta", var, state.status().to_string());
      continue;
    }
    const VariableState& vs = *state.value();
    const VariableLayout& layout = vs.layout;
    VariableLayoutInfo info;
    info.name = var;
    info.order = std::string(level_order_name(layout.order));
    info.curve = std::string(sfc::curve_kind_name(layout.curve));
    info.interleave = layout.interleave;
    info.codec = layout.codec;
    info.chunk_shape = layout.chunk_shape.to_string();
    info.num_bins = layout.num_bins;
    info.plod_capable = vs.plod_capable();
    info.checksum = std::string(checksum_kind_name(vs.checksum));
    info.index_fanout = layout.index_fanout;
    report.variable_layouts.push_back(std::move(info));

    // The codecs and the reference curve come from the record, which open()
    // derived from the recorded layout (a layout naming an unknown codec or
    // an interleave that no longer validates fails the open, reported
    // above as a "meta" violation).
    StoreContext ctx;
    ctx.fs = fs_;
    ctx.store = &store;
    ctx.var = &vs;
    // Byte-plane storage is exact by construction.
    ctx.lossless = vs.plod_capable() || vs.double_codec->lossless();
    ctx.chunk_marks.resize(vs.chunk_grid.num_chunks());
    if (vs.hbx) ctx.leaf_truth.resize(vs.bins.size());

    check_curve_permutation(ctx, sink);

    // --- bin-bounds: strictly increasing interior boundaries covering the
    // whole real line. BinningScheme::deserialize re-validates monotonicity
    // on open, so a violation here means in-memory construction broke.
    const BinningScheme& bs = vs.scheme;
    for (int b = 0; b + 1 < bs.num_bins(); ++b) {
      if (bs.upper(b) != bs.lower(b + 1)) {
        sink.add("bin-bounds", var + ".bin" + std::to_string(b),
                 "bin intervals not contiguous at boundary " +
                 std::to_string(b));
      }
      if (b + 2 < bs.num_bins() && !(bs.upper(b) < bs.upper(b + 1))) {
        sink.add("bin-bounds", var + ".bin" + std::to_string(b),
                 "boundaries not strictly increasing");
      }
    }
    if (!std::isinf(bs.lower(0)) || !std::isinf(bs.upper(bs.num_bins() - 1))) {
      sink.add("bin-bounds", var, "extreme bins do not cover +/-inf");
    }

    if (static_cast<int>(vs.bins.size()) != bs.num_bins()) {
      sink.add("bin-bounds", var,
               u64str(vs.bins.size()) + " bin subfile pairs, scheme has " +
               std::to_string(bs.num_bins()) + " bins");
      continue;
    }

    for (int b = 0; b < static_cast<int>(vs.bins.size()); ++b) {
      check_bin(ctx, b, opts_, report, sink);
    }

    // --- index: hierarchical bitmap index consistency (.hbx), when the
    // variable carries one.
    check_index(ctx, report.variable_layouts.back(), report, sink);

    // --- positions: cross-bin bijectivity — every cell of every chunk
    // claimed exactly once across all bins (duplicates were reported
    // in-bin as they were found).
    for (ChunkId c = 0; c < ctx.var->chunk_grid.num_chunks(); ++c) {
      const std::uint64_t chunk_volume =
          ctx.var->chunk_grid.chunk_region(c).volume();
      const auto& marks = ctx.chunk_marks[c];
      std::uint64_t covered = 0;
      for (bool m : marks) covered += m ? 1 : 0;
      if (covered != chunk_volume) {
        sink.add("positions", var + " chunk " + u64str(c),
                 u64str(covered) + " of " + u64str(chunk_volume) +
                 " cells claimed by positional indexes");
      }
    }
  }
  return report;
}

}  // namespace mloc::fsck
