#include "ingest/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/store.hpp"
#include "parallel/runtime.hpp"
#include "plod/plod.hpp"
#include "util/timer.hpp"

namespace mloc::ingest {

std::string idx_name(const std::string& store, const std::string& var,
                     int bin) {
  return store + "/" + var + ".bin" + std::to_string(bin) + ".idx";
}
std::string dat_name(const std::string& store, const std::string& var,
                     int bin) {
  return store + "/" + var + ".bin" + std::to_string(bin) + ".dat";
}
std::string hbx_name(const std::string& store, const std::string& var) {
  return store + "/" + var + ".hbx";
}

namespace {

/// Open the subfile if it exists (re-ingest of an existing variable reuses
/// its files), otherwise create it.
Result<pfs::FileId> open_or_create(pfs::PfsStorage* fs,
                                   const std::string& name) {
  auto existing = fs->open(name);
  if (existing.is_ok()) return existing;
  return fs->create(name);
}

/// One fragment's staged cells: the points of one chunk that fall into one
/// bin, in chunk-local row-major order.
struct FragStage {
  int bin = 0;
  ChunkId chunk = 0;
  std::vector<std::uint32_t> offsets;  ///< local, ascending
  std::vector<double> values;          ///< parallel to offsets
};

/// Route one chunk's cells to bins: one staged fragment per non-empty bin,
/// bins ascending. Two passes: a bin histogram first, so every staging
/// buffer is reserved to its exact final size (no realloc in the push
/// loop); bin ids are memoized so bin_of runs once per cell.
std::vector<FragStage> route_chunk(const Grid& grid,
                                   const ChunkGrid& chunk_grid,
                                   const BinningScheme& scheme, ChunkId chunk,
                                   int nbins) {
  const Region region = chunk_grid.chunk_region(chunk);
  const std::vector<double> vals = grid.extract(region);

  std::vector<std::uint32_t> histogram(static_cast<std::size_t>(nbins), 0);
  std::vector<int> bin_ids(vals.size());
  scheme.bin_of_batch(vals, bin_ids);
  for (const int b : bin_ids) {
    ++histogram[static_cast<std::size_t>(b)];
  }

  std::vector<FragStage> out;
  std::vector<int> slot_of(static_cast<std::size_t>(nbins), -1);
  for (int b = 0; b < nbins; ++b) {
    const std::uint32_t n = histogram[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    slot_of[static_cast<std::size_t>(b)] = static_cast<int>(out.size());
    FragStage frag;
    frag.bin = b;
    frag.chunk = chunk;
    frag.offsets.reserve(n);
    frag.values.reserve(n);
    out.push_back(std::move(frag));
  }
  for (std::size_t i = 0; i < vals.size(); ++i) {
    FragStage& frag = out[static_cast<std::size_t>(
        slot_of[static_cast<std::size_t>(bin_ids[i])])];
    frag.offsets.push_back(static_cast<std::uint32_t>(i));
    frag.values.push_back(vals[i]);
  }
  return out;
}

/// One encoded fragment: everything the fold stage needs to lay it into
/// its bin's images, plus its private error and timing slots.
struct EncodedFragment {
  Status status = Status::ok();
  int bin = 0;
  ChunkId chunk = 0;
  std::uint64_t count = 0;
  Bytes pos_blob;
  std::uint64_t pos_checksum = 0;
  double min_value = std::numeric_limits<double>::infinity();
  double max_value = -std::numeric_limits<double>::infinity();
  std::vector<Bytes> groups;  ///< one encoded payload per byte group
  std::vector<std::uint64_t> group_checksums;  ///< parallel to `groups`
  double encode_s = 0.0;
};

/// Encode one staged fragment: positional index, zone map, PLoD shredding,
/// per-group codec encode, and every segment checksum (so the fold only
/// concatenates). Pure function of the stage — encoded bytes are identical
/// regardless of which thread runs it, which is what makes the fold
/// stage's output byte-identical to a serial write.
EncodedFragment encode_fragment(const VariableState& var,
                                const FragStage& stage) {
  Stopwatch sw;
  const int groups = var.num_groups();
  EncodedFragment out;
  out.bin = stage.bin;
  out.chunk = stage.chunk;
  out.count = stage.offsets.size();
  out.pos_blob = encode_positions(stage.offsets);
  out.pos_checksum = segment_checksum(var.checksum, out.pos_blob);
  // Zone map over the original values (NaNs excluded: they never satisfy
  // a VC, and an empty range reads as VC-disjoint).
  for (double v : stage.values) {
    if (std::isnan(v)) continue;
    out.min_value = std::min(out.min_value, v);
    out.max_value = std::max(out.max_value, v);
  }
  out.groups.resize(static_cast<std::size_t>(groups));
  if (var.plod_capable()) {
    // One flat scratch buffer sliced into the 7 byte planes: shred_into
    // fills them in place, with no per-fragment Shredded vector churn.
    const std::size_t n = stage.values.size();
    Bytes scratch(n * sizeof(double));
    plod::PlaneSpans planes;
    std::size_t off = 0;
    for (int g = 0; g < plod::kNumGroups; ++g) {
      const std::size_t sz =
          n * static_cast<std::size_t>(plod::group_bytes(g));
      planes[g] = std::span<std::uint8_t>(scratch.data() + off, sz);
      off += sz;
    }
    plod::shred_into(stage.values, planes);
    for (int g = 0; g < groups; ++g) {
      auto enc = var.byte_codec->encode(planes[g]);
      if (!enc.is_ok()) {
        out.status = enc.status();
        return out;
      }
      out.groups[static_cast<std::size_t>(g)] = std::move(enc).value();
    }
  } else {
    auto enc = var.double_codec->encode(stage.values);
    if (!enc.is_ok()) {
      out.status = enc.status();
      return out;
    }
    out.groups[0] = std::move(enc).value();
  }
  out.group_checksums.reserve(out.groups.size());
  for (const Bytes& g : out.groups) {
    out.group_checksums.push_back(segment_checksum(var.checksum, g));
  }
  out.encode_s = sw.seconds();
  return out;
}

/// Chunk-task output: one encoded fragment per non-empty bin, bins
/// ascending, and the seconds spent routing the chunk's cells.
struct EncodedChunk {
  std::vector<EncodedFragment> frags;
  double route_s = 0.0;
};

/// The chunk task: route one chunk's cells to bins, then encode each bin's
/// fragment and release its staged cells. The cells live only inside this
/// call, so a serial ingest stages one chunk at a time.
EncodedChunk encode_chunk(const VariableState& var, const Grid& grid,
                          ChunkId chunk, int nbins) {
  Stopwatch sw;
  std::vector<FragStage> stages =
      route_chunk(grid, var.chunk_grid, var.scheme, chunk, nbins);
  EncodedChunk out;
  out.route_s = sw.seconds();
  out.frags.reserve(stages.size());
  for (FragStage& stage : stages) {
    out.frags.push_back(encode_fragment(var, stage));
    stage = FragStage{};
  }
  return out;
}

/// Flush-task output (write-behind lands these off-thread).
struct FlushSlot {
  Status status = Status::ok();
  std::uint64_t bytes = 0;
  double flush_s = 0.0;
};

}  // namespace

Result<IngestStats> ingest_variable(pfs::PfsStorage* fs,
                                    const std::string& store_name,
                                    VariableState& var, const Grid& grid,
                                    const WriteOptions& opts) {
  Stopwatch sw_wall;
  const VariableLayout& layout = var.layout;
  const ChunkGrid& chunk_grid = var.chunk_grid;
  IngestStats stats;
  stats.threads = std::max(1, opts.threads);
  stats.write_behind = opts.write_behind && opts.threads > 1;
  stats.cells_routed = grid.size();
  // Ingest checksums with CRC-32 only; a re-ingest moves a variable read
  // from an older meta off FNV-1a.
  var.checksum = ChecksumKind::kCrc32;

  // --- Level V: equal-frequency binning boundaries from a sample.
  Stopwatch sw_sample;
  std::vector<double> sample;
  sample.reserve(grid.size() / layout.sample_stride + 1);
  for (std::uint64_t i = 0; i < grid.size(); i += layout.sample_stride) {
    sample.push_back(grid.at_linear(i));
  }
  if (layout.binning == BinningKind::kEqualFrequency) {
    var.scheme = BinningScheme::equal_frequency(sample, layout.num_bins);
  } else {
    double lo = sample[0], hi = sample[0];
    for (double v : sample) {
      if (std::isnan(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (!(hi > lo)) hi = lo + 1.0;
    var.scheme = BinningScheme::equal_width(lo, hi, layout.num_bins);
  }
  const int nbins = var.scheme.num_bins();
  const int groups = var.num_groups();
  stats.partition_s += sw_sample.seconds();

  // Subfiles for every bin, created (or reused on re-ingest) upfront in
  // bin order so FileIds match a serial write and write-behind flushing
  // never mutates the storage's file table concurrently with queries.
  var.bins = std::vector<VariableState::Bin>(static_cast<std::size_t>(nbins));
  for (int b = 0; b < nbins; ++b) {
    auto& bin = var.bins[static_cast<std::size_t>(b)];
    MLOC_ASSIGN_OR_RETURN(
        bin.idx.file, open_or_create(fs, idx_name(store_name, var.name, b)));
    MLOC_ASSIGN_OR_RETURN(
        bin.dat.file, open_or_create(fs, dat_name(store_name, var.name, b)));
  }
  const bool build_hbx = layout.index_fanout >= 2;
  if (build_hbx) {
    var.hbx.emplace();
    MLOC_ASSIGN_OR_RETURN(var.hbx->file,
                          open_or_create(fs, hbx_name(store_name, var.name)));
  }
  // Per-bin leaf bitmaps over global grid offsets, filled during fold.
  std::vector<WahBitmap> hbx_leaves;
  if (build_hbx) hbx_leaves.resize(static_cast<std::size_t>(nbins));

  // The chunk tasks' results, in chunk-rank order. Declared before the pool
  // so an early return destroys the pool (running and joining every queued
  // task) first.
  const std::uint32_t num_chunks = chunk_grid.num_chunks();
  std::vector<EncodedChunk> chunks(num_chunks);
  std::vector<parallel::TaskHandle> chunk_handles;
  chunk_handles.reserve(num_chunks);
  std::vector<FlushSlot> flush_slots(static_cast<std::size_t>(nbins));
  std::vector<parallel::TaskHandle> flush_handles;

  // One executor for every stage. threads <= 1 gives it no workers: each
  // task then runs inline where it is submitted, which is the serial order.
  parallel::ThreadPool pool(opts.threads > 1 ? opts.threads : 0);

  // --- Stages 1+2 (partition + encode): one task per Hilbert-ordered
  // chunk routes its cells to bins and encodes every fragment they form.
  for (std::uint32_t rank = 0; rank < num_chunks; ++rank) {
    const ChunkId chunk = var.curve_order.chunk_at(rank);
    chunk_handles.push_back(pool.submit_waitable([&, rank, chunk] {
      chunks[rank] = encode_chunk(var, grid, chunk, nbins);
    }));
  }
  // Fragments move into their bins in chunk-rank order, so every bin lists
  // them as a serial write does.
  std::vector<std::vector<EncodedFragment>> encoded(
      static_cast<std::size_t>(nbins));
  for (std::uint32_t rank = 0; rank < num_chunks; ++rank) {
    chunk_handles[rank].wait();
    EncodedChunk done = std::move(chunks[rank]);
    stats.partition_s += done.route_s;
    stats.fragments_encoded += done.frags.size();
    for (EncodedFragment& f : done.frags) {
      encoded[static_cast<std::size_t>(f.bin)].push_back(std::move(f));
    }
  }

  // --- Stages 3+4 (fold + flush): bins in order; each bin's images flush
  // while later bins fold.
  for (int b = 0; b < nbins; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    std::vector<EncodedFragment> frags = std::move(encoded[bi]);
    for (const EncodedFragment& f : frags) {
      MLOC_RETURN_IF_ERROR(f.status);
      stats.encode_s += f.encode_s;
    }

    Stopwatch sw_fold;
    BinLayout table;
    table.fragments.resize(frags.size());
    std::uint64_t blob_total = 0;
    std::uint64_t dat_total = 0;
    for (const EncodedFragment& f : frags) {
      blob_total += f.pos_blob.size();
      for (const Bytes& g : f.groups) dat_total += g.size();
    }

    // Fragment table + positional-index blob section, fragment order.
    Bytes blob_section;
    blob_section.reserve(blob_total);
    for (std::size_t f = 0; f < frags.size(); ++f) {
      FragmentInfo& info = table.fragments[f];
      info.chunk = frags[f].chunk;
      info.count = frags[f].count;
      info.positions = {blob_section.size(), frags[f].pos_blob.size(),
                        frags[f].pos_checksum};
      blob_section.insert(blob_section.end(), frags[f].pos_blob.begin(),
                          frags[f].pos_blob.end());
      info.groups.resize(static_cast<std::size_t>(groups));
      info.min_value = frags[f].min_value;
      info.max_value = frags[f].max_value;
    }

    // Payload concatenation in the exact serial order: the (M, S) level
    // order decides whether byte groups or fragments are the outer loop.
    Bytes dat;
    dat.reserve(dat_total + kSubfileFooterSize);
    auto append_segment = [&](std::size_t f, int g) {
      const auto gi = static_cast<std::size_t>(g);
      const Bytes& encoded_bytes = frags[f].groups[gi];
      table.fragments[f].groups[gi] = {dat.size(), encoded_bytes.size(),
                                       frags[f].group_checksums[gi]};
      dat.insert(dat.end(), encoded_bytes.begin(), encoded_bytes.end());
    };
    if (var.plod_capable() && layout.order == LevelOrder::kVMS) {
      for (int g = 0; g < groups; ++g) {
        for (std::size_t f = 0; f < frags.size(); ++f) append_segment(f, g);
      }
    } else {  // kVSM (fragments outer) and whole-value mode (one group)
      for (std::size_t f = 0; f < frags.size(); ++f) {
        for (int g = 0; g < groups; ++g) append_segment(f, g);
      }
    }
    if (build_hbx) {
      // Leaf bitmap: this bin's global grid positions. Chunk-local offsets
      // are re-decoded from the positional blobs (encode dropped the staged
      // offsets).
      Bitmap leaf(grid.size());
      for (const EncodedFragment& f : frags) {
        MLOC_ASSIGN_OR_RETURN(const std::vector<std::uint32_t> locals,
                              decode_positions(f.pos_blob, f.count));
        chunk_grid.for_each_array_offset(
            f.chunk, locals, [&](std::uint64_t p) { leaf.set(p); });
      }
      hbx_leaves[bi] = WahBitmap::compress(leaf);
    }
    frags.clear();  // encoded segments are folded; release them

    ByteWriter header;
    table.serialize(header);
    auto& bin = var.bins[bi];
    bin.idx.header_len = header.size();
    Bytes idx = std::move(header).take();
    idx.reserve(idx.size() + blob_section.size() + kSubfileFooterSize);
    idx.insert(idx.end(), blob_section.begin(), blob_section.end());
    append_subfile_footer(idx);
    append_subfile_footer(dat);
    // The store wrote these bytes itself: no CRC scan on first read, and
    // the fragment table is in hand, so queries never re-read it.
    bin.idx.put_header(std::make_shared<const BinLayout>(std::move(table)));
    bin.idx.footer_checked = true;
    bin.dat.footer_checked = true;
    stats.fold_s += sw_fold.seconds();

    FlushSlot* slot = &flush_slots[bi];
    auto flush = [fs, idx_id = bin.idx.file, dat_id = bin.dat.file, slot](
                     Bytes idx_bytes, Bytes dat_bytes) {
      Stopwatch sw_flush;
      slot->bytes = idx_bytes.size() + dat_bytes.size();
      slot->status = fs->set_contents(idx_id, std::move(idx_bytes));
      if (slot->status.is_ok()) {
        slot->status = fs->set_contents(dat_id, std::move(dat_bytes));
      }
      slot->flush_s = sw_flush.seconds();
    };
    if (opts.write_behind) {
      auto idx_ptr = std::make_shared<Bytes>(std::move(idx));
      auto dat_ptr = std::make_shared<Bytes>(std::move(dat));
      flush_handles.push_back(pool.submit_waitable([flush, idx_ptr, dat_ptr] {
        flush(std::move(*idx_ptr), std::move(*dat_ptr));
      }));
    } else {
      flush(std::move(idx), std::move(dat));
    }
  }

  // --- Hierarchical bitmap index: OR the per-bin leaves up fanout-sized
  // levels and seal the .hbx subfile. Runs on the caller's thread (it only
  // needs the leaves), overlapping any write-behind bin flushes.
  if (build_hbx) {
    Stopwatch sw_hbx;
    index::HbxBuild built = index::build_index(
        hbx_leaves, grid.size(), layout.index_fanout, var.checksum);
    hbx_leaves.clear();
    var.hbx->header_len = built.header.header_len;
    stats.fold_s += sw_hbx.seconds();
    Stopwatch sw_flush;
    const std::uint64_t hbx_bytes = built.file.size();
    MLOC_RETURN_IF_ERROR(
        fs->set_contents(var.hbx->file, std::move(built.file)));
    stats.bytes_written += hbx_bytes;
    stats.flush_s += sw_flush.seconds();
    // Written and parsed here, like the bins.
    var.hbx->put_header(
        std::make_shared<const index::HbxHeader>(std::move(built.header)));
    var.hbx->footer_checked = true;
  }

  for (auto& handle : flush_handles) handle.wait();
  for (int b = 0; b < nbins; ++b) {
    const FlushSlot& slot = flush_slots[static_cast<std::size_t>(b)];
    MLOC_RETURN_IF_ERROR(slot.status);
    stats.bytes_written += slot.bytes;
    stats.flush_s += slot.flush_s;
  }
  stats.bins_written = static_cast<std::uint64_t>(nbins);
  stats.wall_s = sw_wall.seconds();
  return stats;
}

}  // namespace mloc::ingest
