// PlanBuilder — stage 1 of the query engine: resolve a query into a
// ReadPlan and its costable PlanSummary.
//
// Every decision the old monolithic execute path made mid-read is made
// here, up front:
//   - bins from the VC, chunks from the SC (paper Fig. 5 steps 1-2) and,
//     in a multivariable pass 2, from the position filter;
//   - fragment-table and .hbx node-table headers from their subfiles'
//     header slots (cold reads are consumed here by load_header and
//     charged to the owning rank);
//   - zone-map pruning and aligned-bin/-fragment classification;
//   - FragmentProvider consultation: cache hits prune their extents from
//     the plan (hit/miss/bytes_saved accounting is fixed at plan time);
//   - per-rank segment lists with merge classes for the IoScheduler.
//
// The same function serves execution (warm=true) and planner estimation
// (warm=false, side-effect-free), which is what makes planner predictions
// match the executed plan exactly.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "exec/engine.hpp"
#include "exec/io_scheduler.hpp"
#include "parallel/runtime.hpp"
#include "util/timer.hpp"

namespace mloc::exec {
namespace {

// Merge classes (unique within a bin; cross-bin collisions are harmless
// because segments of different bins live in different files).
constexpr std::uint32_t kBlobClass = 1;     ///< positional-index blob stream
constexpr std::uint32_t kStreamClass = 2;   ///< whole-fragment payload scan
constexpr std::uint32_t kSectionClassBase = 3;  ///< VMS byte-group sections
constexpr std::uint32_t kHbxClass = 15;     ///< .hbx node-bitmap stream
constexpr std::uint32_t kPrivateClassBase = 16; ///< per-task (no bridging)

/// Fraction of a chunk's volume the SC overlaps (1 when there is no SC).
double sc_fraction(const Region& chunk_region, const std::optional<Region>& sc) {
  if (!sc.has_value()) return 1.0;
  const Region overlap = chunk_region.intersection(*sc);
  if (overlap.empty() || chunk_region.volume() == 0) return 0.0;
  return static_cast<double>(overlap.volume()) /
         static_cast<double>(chunk_region.volume());
}

/// True when `filter` has a set bit inside `region`, tested one row (the
/// run along the last dimension, contiguous in grid order) at a time.
bool region_has_bit(const Bitmap& filter, const NDShape& shape,
                    const Region& region) {
  if (region.empty()) return false;
  const int last = shape.ndims() - 1;
  const std::uint64_t row_len = region.extent(last);
  Coord c = region.lo();
  while (true) {
    const std::uint64_t row = shape.linearize(c);
    if (filter.any(row, row + row_len)) return true;
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++c[d] < region.hi(d)) break;
      c[d] = region.lo(d);
    }
    if (d < 0) return false;
  }
}

/// The parsed header of `sf`: from its slot, or read and parsed here, with
/// the cold read charged to rank `r` of the plan (execution logs it), and
/// put in the slot when `warm`.
template <class Header, class Parse>
Result<std::shared_ptr<const Header>> load_header(const pfs::PfsStorage& fs,
                                                  const Subfile<Header>& sf,
                                                  RankPlan& rp, int r,
                                                  bool warm, Parse parse) {
  if (std::shared_ptr<const Header> cached = sf.header()) return cached;
  MLOC_ASSIGN_OR_RETURN(Bytes raw, fs.read(sf.file, 0, sf.header_len));
  Stopwatch sw;
  MLOC_ASSIGN_OR_RETURN(Header parsed, parse(raw));
  auto owned = std::make_shared<const Header>(std::move(parsed));
  rp.header_parse_s += sw.seconds();
  if (sf.header_len > 0) {
    rp.header_reads.push_back(
        {sf.file, 0, sf.header_len, static_cast<std::uint32_t>(r)});
  }
  if (warm) sf.put_header(owned);
  return owned;
}

Result<BinLayout> parse_fragment_table(std::span<const std::uint8_t> raw) {
  ByteReader rd(raw);
  return BinLayout::deserialize(rd);
}

}  // namespace

Result<ReadPlan> build_plan(const MlocStore& store, const VariableState& var,
                            const Query& q, int num_ranks,
                            const ExecOptions& opts, bool warm,
                            const Bitmap* position_filter) {
  const pfs::PfsStorage& fs = store.storage();
  const NDShape& shape = store.config().shape;
  FragmentProvider* const provider = store.fragment_provider();
  ReadPlan plan;
  plan.num_ranks = num_ranks;
  plan.ranks.resize(static_cast<std::size_t>(num_ranks));
  PlanSummary& sum = plan.summary;

  const bool plod = var.plod_capable();
  const int ngroups = var.num_groups();
  // Planner calls clamp instead of rejecting; execute_query validates the
  // raw level before planning, so clamping never changes execution.
  const int req_level = plod ? std::clamp(q.plod_level, 1, ngroups) : 1;

  // --- Step 1 (paper Fig. 5): bins to access, from the VC vs bin bounds.
  int first_bin = 0;
  int last_bin = var.scheme.num_bins() - 1;
  if (q.vc.has_value()) {
    const auto span = var.scheme.bins_overlapping(q.vc->lo, q.vc->hi);
    if (span.empty()) return plan;  // no bin can match
    first_bin = span.first;
    last_bin = span.last;
  }

  // --- Step 2: chunks to access, from the SC mapped to the chunk lattice
  // and, in a multivariable pass 2, from the position filter: a chunk with
  // no selected position holds nothing to fetch. Empty = every chunk.
  const ChunkGrid& grid = var.chunk_grid;
  std::vector<bool> chunk_keep;
  if (q.sc.has_value() || position_filter != nullptr) {
    if (q.sc.has_value() && q.sc->empty()) return plan;
    chunk_keep.assign(grid.num_chunks(), !q.sc.has_value());
    if (q.sc.has_value()) {
      for (const ChunkId c : grid.chunks_overlapping(*q.sc)) {
        chunk_keep[c] = true;
      }
    }
    if (position_filter != nullptr) {
      for (ChunkId c = 0; c < grid.num_chunks(); ++c) {
        chunk_keep[c] = chunk_keep[c] &&
                        region_has_bit(*position_filter, shape,
                                       grid.chunk_region(c));
      }
    }
  }

  const int nbins_touched = last_bin - first_bin + 1;
  sum.bins_touched = static_cast<std::uint64_t>(nbins_touched);

  // --- Hierarchical index (tentpole of ISSUE 9): a region-only VC query
  // resolves the aligned interior of its bin span top-down through the
  // .hbx tree — fully-covered subtrees contribute their aggregate bitmap
  // with zero .idx reads, and only the boundary bins fall through to the
  // positional-index path below. Value-retrieval queries keep the flat
  // path: they must touch the fragments anyway.
  int hbx_first = 0, hbx_last = -1;  // empty span
  const bool hbx_usable = opts.use_hbx && var.hbx.has_value() &&
                          q.vc.has_value() && !q.values_needed;
  if (hbx_usable) {
    // A cold node-table read is charged to rank 0 (one small read per
    // store open, the .hbx analogue of a bin header).
    MLOC_ASSIGN_OR_RETURN(
        std::shared_ptr<const index::HbxHeader> header,
        load_header(fs, *var.hbx, plan.ranks[0], 0, warm,
                    index::HbxHeader::deserialize));
    if (header->num_bins != var.scheme.num_bins() ||
        header->nbits != shape.volume()) {
      return corrupt_data("hbx: node table mismatches store geometry");
    }
    // Aligned interior: the maximal contiguous run of VC-aligned bins.
    // With interval binning only the two boundary bins can be misaligned;
    // the full-scan guard below keeps correctness even if they aren't.
    int a = first_bin, b = last_bin;
    while (a <= b && !var.scheme.aligned(a, q.vc->lo, q.vc->hi)) ++a;
    while (b >= a && !var.scheme.aligned(b, q.vc->lo, q.vc->hi)) --b;
    bool contiguous = a <= b;
    for (int bin = a; bin <= b && contiguous; ++bin) {
      contiguous = var.scheme.aligned(bin, q.vc->lo, q.vc->hi);
    }
    if (contiguous && a <= b) {
      hbx_first = a;
      hbx_last = b;
      plan.hbx_header = header;
      sum.aligned_bins +=
          static_cast<std::uint64_t>(hbx_last - hbx_first + 1);
      double sc_vol_frac = 1.0;
      if (q.sc.has_value()) {
        sc_vol_frac = static_cast<double>(q.sc->volume()) /
                      static_cast<double>(shape.volume());
      }
      std::vector<std::size_t> nodes =
          index::cover(*header, hbx_first, hbx_last);
      // cover() emits bin-span order (mixed levels). Node payloads are laid
      // out id-major in the .hbx, so re-sorting by id puts each rank's
      // share in file order and lets sibling runs (consecutive ids, gap 0)
      // coalesce into single extents. Result order is irrelevant: node
      // bitmaps are OR-folded and the gather sorts positions globally.
      std::sort(nodes.begin(), nodes.end());
      const auto node_ranges = parallel::split_even(nodes.size(), num_ranks);
      for (int r = 0; r < num_ranks; ++r) {
        RankPlan& rp = plan.ranks[static_cast<std::size_t>(r)];
        for (std::size_t i = node_ranges[static_cast<std::size_t>(r)].first;
             i < node_ranges[static_cast<std::size_t>(r)].second; ++i) {
          const std::size_t id = nodes[i];
          const index::HbxNode& n = header->nodes[id];
          HbxNodeTask task;
          task.node = id;
          if (provider != nullptr) {
            auto hit = provider->lookup(
                {var.name, static_cast<int>(id), kHbxNodeChunk, var.epoch});
            if (hit != nullptr && hit->has_node) {
              task.cached = std::move(hit);
              ++sum.cache.hits;
              sum.cache.bytes_saved += n.length;
            } else {
              ++sum.cache.misses;
            }
          }
          if (task.cached == nullptr) {
            task.has_segment = true;
            task.seg_index = rp.hbx_segments.size();
            rp.hbx_segments.push_back({var.hbx->file,
                                       var.hbx->header_len + n.offset,
                                       n.length, kHbxClass});
          }
          sum.est_points += static_cast<double>(n.popcount) * sc_vol_frac;
          rp.hbx_tasks.push_back(std::move(task));
        }
      }
    }
  }

  // Bins the flat positional-index path still owns: the span minus the
  // tree-covered interior (at most the two boundary bins when the index
  // ran, the whole span otherwise).
  std::vector<int> flat_bins;
  flat_bins.reserve(static_cast<std::size_t>(nbins_touched));
  for (int bin = first_bin; bin <= last_bin; ++bin) {
    if (bin < hbx_first || bin > hbx_last) flat_bins.push_back(bin);
  }

  // --- Headers: bins split across ranks (phase-1 assignment). A cached
  // header costs nothing; a cold one is read+parsed here and charged to
  // the rank that owns the bin.
  struct BinWork {
    int bin = 0;
    bool aligned = false;
    std::vector<const FragmentInfo*> frags;  ///< chunk-filtered, curve order
  };
  std::vector<BinWork> bin_work(flat_bins.size());
  const auto bin_ranges = parallel::split_even(flat_bins.size(), num_ranks);
  for (int r = 0; r < num_ranks; ++r) {
    RankPlan& rp = plan.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = bin_ranges[static_cast<std::size_t>(r)].first;
         i < bin_ranges[static_cast<std::size_t>(r)].second; ++i) {
      const int bin = flat_bins[i];
      MLOC_ASSIGN_OR_RETURN(
          std::shared_ptr<const BinLayout> layout,
          load_header(fs, var.bins[static_cast<std::size_t>(bin)].idx, rp, r,
                      warm, parse_fragment_table));
      BinWork& w = bin_work[i];
      w.bin = bin;
      // Aligned-bin fast path: the VC contains the bin's interval, so all
      // (original) values qualify without decompression.
      w.aligned = q.vc.has_value() &&
                  var.scheme.aligned(bin, q.vc->lo, q.vc->hi);
      for (const auto& f : layout->fragments) {
        if (chunk_keep.empty() ||
            (f.chunk < chunk_keep.size() && chunk_keep[f.chunk])) {
          w.frags.push_back(&f);
        }
      }
      plan.layouts.push_back(std::move(layout));
    }
  }
  for (const auto& w : bin_work) {
    if (w.aligned) ++sum.aligned_bins;
  }

  // --- Fragments: flatten in column (bin-major) order and split evenly
  // across ranks (phase-2 assignment, unchanged from the monolith).
  struct ItemRef {
    const BinWork* bin;
    const FragmentInfo* frag;
  };
  std::vector<ItemRef> items;
  for (const auto& w : bin_work) {
    for (const FragmentInfo* f : w.frags) items.push_back({&w, f});
  }

  // With the tree covering the aligned interior, only boundary bins reach
  // the flat path. Splitting their fragments mid-bin would shred each
  // bin's byte-group section streams across ranks (one unbridgeable extent
  // per group per rank instead of a single whole-bin scan), so flat bins
  // are then assigned to ranks whole; node reads occupy the other ranks.
  std::vector<std::pair<std::size_t, std::size_t>> item_ranges;
  if (plan.hbx_header != nullptr && !bin_work.empty()) {
    std::vector<std::size_t> first_item(bin_work.size() + 1, 0);
    for (std::size_t w = 0; w < bin_work.size(); ++w) {
      first_item[w + 1] = first_item[w] + bin_work[w].frags.size();
    }
    for (const auto& br : parallel::split_even(bin_work.size(), num_ranks)) {
      item_ranges.emplace_back(first_item[br.first], first_item[br.second]);
    }
  } else {
    item_ranges = parallel::split_even(items.size(), num_ranks);
  }
  std::uint32_t next_private_class = kPrivateClassBase;
  std::uint64_t planned_seg_bytes = 0;
  for (int r = 0; r < num_ranks; ++r) {
    RankPlan& rp = plan.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = item_ranges[static_cast<std::size_t>(r)].first;
         i < item_ranges[static_cast<std::size_t>(r)].second; ++i) {
      const BinWork& bw = *items[i].bin;
      const FragmentInfo& frag = *items[i].frag;
      const VariableState::Bin& files =
          var.bins[static_cast<std::size_t>(bw.bin)];
      FragmentTask task;
      task.bin = bw.bin;
      task.frag = &frag;
      task.bin_aligned = bw.aligned;
      // Empty range even for skipped tasks, so consecutive-run segment
      // arithmetic in the executor stays valid.
      task.seg_begin = rp.segments.size();

      // Zone-map fast paths for misaligned bins: a VC disjoint from the
      // fragment's value range skips it entirely; a VC containing the
      // range qualifies every point without decompression.
      if (q.vc.has_value() && !bw.aligned) {
        if (frag.max_value < q.vc->lo || frag.min_value >= q.vc->hi) {
          task.skipped = true;
          ++sum.fragments_skipped;
          rp.tasks.push_back(std::move(task));
          continue;
        }
        task.frag_aligned =
            q.vc->lo <= frag.min_value && frag.max_value < q.vc->hi;
      }

      // One provider lookup decides both the positional index and the
      // payload prefix — cache hits prune their extents from the plan.
      std::shared_ptr<const FragmentData> hit;
      if (provider != nullptr) {
        hit = provider->lookup({var.name, bw.bin, frag.chunk, var.epoch});
      }
      task.cached = hit;

      const bool pos_usable = hit != nullptr && hit->count == frag.count &&
                              !hit->positions.empty();
      if (pos_usable) {
        task.blob_cached = true;
        sum.cache.bytes_saved += frag.positions.length;
      } else {
        rp.segments.push_back({files.idx.file,
                               files.idx.header_len + frag.positions.offset,
                               frag.positions.length, kBlobClass});
      }

      task.needs_vc_filter =
          q.vc.has_value() && !bw.aligned && !task.frag_aligned;
      task.fetch_values = q.values_needed || task.needs_vc_filter;
      task.fetch_level =
          plod ? (task.needs_vc_filter ? ngroups : req_level) : 1;

      if (task.fetch_values) {
        ++sum.fragments_to_fetch;
        if (plod) {
          const bool planes_usable = hit != nullptr &&
                                     hit->count == frag.count &&
                                     !hit->planes.empty();
          task.cached_depth =
              planes_usable ? std::min(hit->depth(), task.fetch_level) : 0;
          for (int g = 0; g < task.cached_depth; ++g) {
            sum.cache.bytes_saved += frag.groups[g].length;
          }
          if (provider != nullptr) {
            if (task.cached_depth >= task.fetch_level) {
              ++sum.cache.hits;
            } else {
              task.cached_depth > 0 ? ++sum.cache.partial_hits
                                    : ++sum.cache.misses;
            }
          }
          // Merge class: VMS sections bridge within a byte-group section;
          // a VSM full scan bridges across skipped fragments; a VSM
          // partial/reduced fetch stays private so bridging never re-reads
          // the planes the level (or the cache) skipped.
          std::uint32_t cls;
          if (var.layout.order == LevelOrder::kVMS) {
            cls = 0;  // per-group, assigned below
          } else if (task.cached_depth == 0 && task.fetch_level == ngroups) {
            cls = kStreamClass;
          } else {
            cls = next_private_class++;
          }
          for (int g = task.cached_depth; g < task.fetch_level; ++g) {
            const std::uint32_t group_cls =
                var.layout.order == LevelOrder::kVMS
                    ? kSectionClassBase + static_cast<std::uint32_t>(g)
                    : cls;
            rp.segments.push_back({files.dat.file, frag.groups[g].offset,
                                   frag.groups[g].length, group_cls});
          }
        } else {
          const bool vals_usable = hit != nullptr &&
                                   hit->count == frag.count &&
                                   !hit->values.empty();
          if (vals_usable) {
            task.cached_depth = 1;  // full hit: no payload segment
            if (provider != nullptr) ++sum.cache.hits;
            sum.cache.bytes_saved += frag.groups[0].length;
          } else {
            if (provider != nullptr) ++sum.cache.misses;
            rp.segments.push_back({files.dat.file, frag.groups[0].offset,
                                   frag.groups[0].length, kStreamClass});
          }
        }
      }
      task.seg_count = rp.segments.size() - task.seg_begin;

      // Expected qualifying points: fragment count scaled by the SC's
      // chunk-overlap fraction and the VC survival rate (aligned => 1,
      // misaligned => 1/2 in expectation).
      double vc_frac = 1.0;
      if (q.vc.has_value() && !bw.aligned && !task.frag_aligned) {
        vc_frac = 0.5;
      }
      sum.est_points +=
          static_cast<double>(frag.count) * vc_frac *
          sc_fraction(grid.chunk_region(frag.chunk), q.sc);

      rp.tasks.push_back(std::move(task));
    }

    // Predicted I/O for this rank: cold header reads plus the merged
    // extents the IoScheduler will issue (hierarchical-index node reads
    // are scheduled as their own batch, exactly as the executor does).
    for (const auto& rec : rp.header_reads) {
      sum.planned_io.add(rec.file, rec.offset, rec.len, rec.rank);
    }
    const std::vector<pfs::ReadRequest> merged =
        opts.naive_io
            ? naive_schedule(rp.segments, nullptr)
            : coalesce_segments(rp.segments, kCoalesceGapBytes, nullptr,
                                &sum.stats.bytes_bridged);
    for (const auto& m : merged) {
      sum.planned_io.add(m.file, m.offset, m.len,
                         static_cast<std::uint32_t>(r));
    }
    const std::vector<pfs::ReadRequest> hbx_merged =
        opts.naive_io
            ? naive_schedule(rp.hbx_segments, nullptr)
            : coalesce_segments(rp.hbx_segments, kCoalesceGapBytes,
                                nullptr, &sum.stats.bytes_bridged);
    for (const auto& m : hbx_merged) {
      sum.planned_io.add(m.file, m.offset, m.len,
                         static_cast<std::uint32_t>(r));
    }
    std::uint64_t rank_naive = 0;
    for (const auto& s : rp.segments) {
      planned_seg_bytes += s.len;
      if (s.len > 0) ++rank_naive;
    }
    for (const auto& s : rp.hbx_segments) {
      planned_seg_bytes += s.len;
      if (s.len > 0) ++rank_naive;
    }
    sum.stats.extents_naive += rank_naive + rp.header_reads.size();
    sum.stats.extents_coalesced +=
        merged.size() + hbx_merged.size() + rp.header_reads.size();
  }

  std::uint64_t header_bytes = 0;
  for (const auto& rp : plan.ranks) {
    for (const auto& rec : rp.header_reads) header_bytes += rec.len;
  }
  sum.stats.bytes_from_cache = sum.cache.bytes_saved;
  sum.stats.bytes_planned =
      planned_seg_bytes + header_bytes + sum.cache.bytes_saved;
  sum.stats.bytes_read = sum.planned_io.total_bytes();
  sum.stats.modeled_seeks = pfs::coalesced_extent_count(sum.planned_io);
  return plan;
}

}  // namespace mloc::exec
