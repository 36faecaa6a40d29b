// Hot-kernel microbenchmarks: the blocked/SWAR fast paths vs the retained
// scalar references in mloc::detail::scalar (DESIGN.md §11). Each kernel
// runs best-of-reps on both implementations, asserts the outputs are
// byte-/bit-identical, and reports GB/s plus the fast/scalar speedup. The
// mzip rows run per PLoD plane of 1024-value fragments, as ingest and the
// engine do, except mzip_tokenize, which encodes one 4.19 MB buffer to
// time the tokenizer alone. Two rows have another reference:
// mzip_decode_stored times the planes that code stored against inflating
// their dynamic streams, and
// segment_checksum times the folded CRC-32 against FNV-1a. The
// fragment_emit row times the engine's emit pass against the row walk it
// replaced, and the gather rows the engine's gather, writing into its
// reused buffers, against the pair sort. bitmap_count and wah_count time
// the dispatched popcount paths.
// Results land in BENCH_kernels.json (`MLOC_BENCH_JSON` overrides the
// path); the binary exits non-zero if any kernel's outputs differ or its
// speedup drops below 1.0, and CI's bench-smoke job jq-asserts the same
// two claims from the JSON.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "binning/binning.hpp"
#include "bitmap/bitmap.hpp"
#include "common/bench_common.hpp"
#include "compress/mzip.hpp"
#include "core/layout.hpp"
#include "datagen/datagen.hpp"
#include "exec/decode_pipeline.hpp"
#include "exec/gather.hpp"
#include "plod/plod.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace mloc;
using namespace mloc::bench;

namespace {

int g_reps = 5;

/// Best-of-reps wall time of fn().
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < g_reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

struct KernelResult {
  std::string name;
  double mb = 0;  // bytes processed per run, in MB
  double scalar_s = 0;
  double fast_s = 0;
  bool identical = false;

  [[nodiscard]] double speedup() const { return scalar_s / fast_s; }
  [[nodiscard]] double gbps(double s) const { return mb / 1000.0 / s; }
};

std::vector<double> smooth_field(std::size_t n, std::uint64_t seed) {
  // Random walk: smooth enough that PLoD planes compress, noisy enough
  // that mzip's match search actually works (not one giant fill).
  std::vector<double> v(n);
  Rng rng(seed);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.next_gaussian() * 0.01;
    v[i] = std::sin(static_cast<double>(i) * 1e-4) * 100.0 + x;
  }
  return v;
}

plod::Shredded alloc_planes(std::size_t n, plod::PlaneSpans& spans) {
  plod::Shredded buf;
  buf.count = n;
  for (int g = 0; g < plod::kNumGroups; ++g) {
    buf.groups[g].resize(n * static_cast<std::size_t>(plod::group_bytes(g)));
    spans[g] = buf.groups[g];
  }
  return buf;
}

KernelResult bench_plod_shred(const std::vector<double>& values) {
  const std::size_t n = values.size();
  plod::PlaneSpans fast_spans;
  plod::PlaneSpans ref_spans;
  plod::Shredded fast_buf = alloc_planes(n, fast_spans);
  plod::Shredded ref_buf = alloc_planes(n, ref_spans);

  KernelResult out;
  out.name = "plod_shred";
  out.mb = static_cast<double>(n * sizeof(double)) / 1e6;
  out.fast_s = best_seconds([&] { plod::shred_into(values, fast_spans); });
  out.scalar_s = best_seconds(
      [&] { detail::scalar::plod_shred_into(values, ref_spans); });
  out.identical = fast_buf.groups == ref_buf.groups;
  return out;
}

KernelResult bench_plod_assemble(const std::vector<double>& values,
                                 int level) {
  const std::size_t n = values.size();
  plod::PlaneSpans spans;
  plod::Shredded buf = alloc_planes(n, spans);
  plod::shred_into(values, spans);
  std::vector<std::span<const std::uint8_t>> groups;
  for (int g = 0; g < level; ++g) groups.emplace_back(buf.groups[g]);

  std::vector<double> fast_out(n);
  std::vector<double> ref_out(n);
  KernelResult out;
  out.name = "plod_assemble_l" + std::to_string(level);
  out.mb = static_cast<double>(n * sizeof(double)) / 1e6;
  out.fast_s = best_seconds([&] {
    MLOC_CHECK(plod::assemble_into(groups, level, fast_out).is_ok());
  });
  out.scalar_s = best_seconds([&] {
    MLOC_CHECK(
        detail::scalar::plod_assemble_into(groups, level, ref_out).is_ok());
  });
  out.identical =
      std::memcmp(fast_out.data(), ref_out.data(), n * sizeof(double)) == 0;
  return out;
}

KernelResult bench_bin_route(const std::vector<double>& values,
                             int num_bins) {
  BinningScheme scheme = BinningScheme::equal_frequency(
      std::span<const double>(values.data(),
                              std::min<std::size_t>(values.size(), 65536)),
      num_bins);
  std::vector<int> fast_bins(values.size());
  std::vector<int> ref_bins(values.size());
  KernelResult out;
  out.name = "bin_route_" + std::to_string(num_bins);
  out.mb = static_cast<double>(values.size() * sizeof(double)) / 1e6;
  out.fast_s =
      best_seconds([&] { scheme.bin_of_batch(values, fast_bins); });
  out.scalar_s = best_seconds(
      [&] { detail::scalar::bin_of_batch(scheme, values, ref_bins); });
  out.identical = fast_bins == ref_bins;
  return out;
}

/// The field's 7 PLoD byte planes concatenated into one 4.19 MB buffer and
/// encoded once, fast encoder against the retained reference. At this size
/// the tokenizer is almost all of either side's time (one code build, and
/// the fast side's reset of its reused chain heads, one store per
/// position), so this row gates the word-level tokenizer on its own; the
/// mzip_encode row times encode per plane, as ingest calls it.
KernelResult bench_mzip_tokenize(const std::vector<double>& values) {
  plod::PlaneSpans spans;
  plod::Shredded buf = alloc_planes(values.size(), spans);
  plod::shred_into(values, spans);
  Bytes raw;
  for (int g = 0; g < plod::kNumGroups; ++g) {
    raw.insert(raw.end(), buf.groups[g].begin(), buf.groups[g].end());
  }

  const MzipCodec codec;  // default max_chain, as the ingest path uses it
  Bytes fast_out;
  Bytes ref_out;
  KernelResult out;
  out.name = "mzip_tokenize";
  out.mb = static_cast<double>(raw.size()) / 1e6;
  out.fast_s = best_seconds([&] {
    auto enc = codec.encode(raw);
    MLOC_CHECK(enc.is_ok());
    fast_out = std::move(enc).value();
  });
  out.scalar_s = best_seconds([&] {
    auto enc = detail::scalar::mzip_encode(raw, 64);
    MLOC_CHECK(enc.is_ok());
    ref_out = std::move(enc).value();
  });
  out.identical = fast_out == ref_out;
  // Sanity: the stream must still round-trip.
  auto dec = codec.decode(fast_out);
  MLOC_CHECK(dec.is_ok());
  MLOC_CHECK(dec.value() == raw);
  return out;
}

/// The planes ingest writes for `values`: 1024-value fragments, each
/// fragment's 7 PLoD planes mzip-encoded one by one. Split by the stream
/// form they code to: [0] dynamic (Huffman-coded), [1] stored (raw copy).
struct PlaneStreams {
  std::vector<Bytes> raws;
  std::vector<Bytes> streams;
  double raw_bytes = 0;
};

std::array<PlaneStreams, 2> fragment_planes(const std::vector<double>& values) {
  constexpr std::size_t kFragment = 1024;
  const MzipCodec codec;
  std::array<PlaneStreams, 2> out;
  for (std::size_t at = 0; at + kFragment <= values.size(); at += kFragment) {
    const plod::Shredded planes = plod::shred(
        std::span<const double>(values.data() + at, kFragment));
    for (const Bytes& plane : planes.groups) {
      auto enc = codec.encode(plane);
      MLOC_CHECK(enc.is_ok());
      PlaneStreams& form = out[enc.value()[0] == 0 ? 1 : 0];
      form.streams.push_back(std::move(enc).value());
      form.raws.push_back(plane);
      form.raw_bytes += static_cast<double>(plane.size());
    }
  }
  return out;
}

/// The planes as ingest encodes them: every plane of every fragment, one
/// MzipCodec::encode call each, both stream forms, against the exhaustive
/// reference (both codes built and the exact stored-or-dynamic comparison
/// for every plane). The fast side settles most stored planes from the
/// entropy bound, skips the tokenizer below 159 bytes and reuses its
/// thread's tokenizer buffers (DESIGN.md §11). Identical only if every
/// fast stream equals the reference's and the stream fragment_planes
/// recorded for the plane.
KernelResult bench_mzip_encode(const std::array<PlaneStreams, 2>& forms) {
  std::vector<const Bytes*> raws;
  std::vector<const Bytes*> want;
  double raw_bytes = 0;
  for (const PlaneStreams& form : forms) {
    for (std::size_t i = 0; i < form.raws.size(); ++i) {
      raws.push_back(&form.raws[i]);
      want.push_back(&form.streams[i]);
    }
    raw_bytes += form.raw_bytes;
  }
  const MzipCodec codec;  // default max_chain, as the ingest path uses it
  std::vector<Bytes> fast_out(raws.size());
  std::vector<Bytes> ref_out(raws.size());
  KernelResult out;
  out.name = "mzip_encode";
  out.mb = raw_bytes / 1e6;
  out.fast_s = best_seconds([&] {
    for (std::size_t i = 0; i < raws.size(); ++i) {
      auto enc = codec.encode(*raws[i]);
      MLOC_CHECK(enc.is_ok());
      fast_out[i] = std::move(enc).value();
    }
  });
  out.scalar_s = best_seconds([&] {
    for (std::size_t i = 0; i < raws.size(); ++i) {
      auto enc = detail::scalar::mzip_encode(*raws[i], 64);
      MLOC_CHECK(enc.is_ok());
      ref_out[i] = std::move(enc).value();
    }
  });
  out.identical = fast_out == ref_out;
  for (std::size_t i = 0; i < raws.size() && out.identical; ++i) {
    out.identical = fast_out[i] == *want[i];
  }
  return out;
}

/// The dynamic streams a cold query inflates, fast decoder against the
/// retained reference. Identical only if every output equals both the
/// other side's output and the raw plane.
KernelResult bench_mzip_decode(const PlaneStreams& dynamic) {
  const MzipCodec codec;
  const std::vector<Bytes>& streams = dynamic.streams;
  std::vector<Bytes> fast_out(streams.size());
  std::vector<Bytes> ref_out(streams.size());
  KernelResult out;
  out.name = "mzip_decode";
  out.mb = dynamic.raw_bytes / 1e6;
  out.fast_s = best_seconds([&] {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      auto dec = codec.decode(streams[i]);
      MLOC_CHECK(dec.is_ok());
      fast_out[i] = std::move(dec).value();
    }
  });
  out.scalar_s = best_seconds([&] {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      auto dec = detail::scalar::mzip_decode(streams[i]);
      MLOC_CHECK(dec.is_ok());
      ref_out[i] = std::move(dec).value();
    }
  });
  out.identical = fast_out == ref_out && fast_out == dynamic.raws;
  return out;
}

/// The planes that code stored: the copy out of the stored stream against
/// inflating the dynamic stream the encoder would otherwise have written
/// for the same plane (MzipCodec::decode both times). The reference side
/// is what every such plane cost before mzip had a stored form.
KernelResult bench_mzip_decode_stored(const PlaneStreams& stored) {
  const MzipCodec codec;
  std::vector<Bytes> dynamic;
  for (const Bytes& raw : stored.raws) {
    std::size_t predicted = 0;
    auto enc = detail::mzip_encode_dynamic(raw, 64, predicted);
    MLOC_CHECK(enc.is_ok());
    dynamic.push_back(std::move(enc).value());
  }
  std::vector<Bytes> fast_out(stored.streams.size());
  std::vector<Bytes> ref_out(stored.streams.size());
  KernelResult out;
  out.name = "mzip_decode_stored";
  out.mb = stored.raw_bytes / 1e6;
  out.fast_s = best_seconds([&] {
    for (std::size_t i = 0; i < stored.streams.size(); ++i) {
      auto dec = codec.decode(stored.streams[i]);
      MLOC_CHECK(dec.is_ok());
      fast_out[i] = std::move(dec).value();
    }
  });
  out.scalar_s = best_seconds([&] {
    for (std::size_t i = 0; i < dynamic.size(); ++i) {
      auto dec = codec.decode(dynamic[i]);
      MLOC_CHECK(dec.is_ok());
      ref_out[i] = std::move(dec).value();
    }
  });
  out.identical = fast_out == stored.raws && ref_out == stored.raws;
  return out;
}

/// One response-sized buffer: the CRC-32 every TCP frame payload and every
/// subfile footer pays, sealed on one side and verified on the other.
KernelResult bench_crc32(std::span<const std::uint8_t> bytes) {
  KernelResult out;
  out.name = "crc32";
  out.mb = static_cast<double>(bytes.size()) / 1e6;
  std::uint32_t fast_crc = 0;
  std::uint32_t ref_crc = 0;
  out.fast_s = best_seconds([&] { fast_crc = crc32(bytes); });
  out.scalar_s =
      best_seconds([&] { ref_crc = detail::scalar::crc32(bytes); });
  out.identical = fast_crc == ref_crc;
  return out;
}

/// The check every cold read makes before decode, over the plane streams
/// as ingest lays them out (one segment each, both stream forms): FNV-1a,
/// which variables written before meta v6 carry, against the folded
/// CRC-32 that ingest writes now (segment_checksum). Identical when every
/// folded CRC equals the byte-at-a-time reference.
KernelResult bench_segment_checksum(const std::array<PlaneStreams, 2>& forms) {
  std::vector<std::span<const std::uint8_t>> segments;
  for (const PlaneStreams& form : forms) {
    for (const Bytes& stream : form.streams) segments.emplace_back(stream);
  }
  KernelResult out;
  out.name = "segment_checksum";
  for (const auto& seg : segments) out.mb += static_cast<double>(seg.size());
  out.mb /= 1e6;
  std::vector<std::uint64_t> fnv(segments.size());
  std::vector<std::uint64_t> crc(segments.size());
  out.scalar_s = best_seconds([&] {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      fnv[i] = segment_checksum(ChecksumKind::kFnv1a64, segments[i]);
    }
  });
  out.fast_s = best_seconds([&] {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      crc[i] = segment_checksum(ChecksumKind::kCrc32, segments[i]);
    }
  });
  out.identical = true;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    out.identical = out.identical &&
                    crc[i] == detail::scalar::crc32(segments[i]) &&
                    fnv[i] == fnv1a64(segments[i]);
  }
  return out;
}

/// The engine's gather: `n` distinct (position, value) pairs over a 2048^2
/// grid, scattered by an odd multiplier (a bijection mod 2^22), written
/// into grid order. The fast side copies the pairs into a reused arrival
/// buffer and gathers them into reused output vectors, as the engine does
/// with its per-thread scratch; the reference copies them into the vectors
/// it sorts in place. The `gather` row (300,000 pairs) is dense
/// (n * 64 >= 2^22) and runs the bitmap placement; `gather_sparse` (30,000
/// pairs) runs the radix sort.
KernelResult bench_gather(std::size_t n, const char* name) {
  constexpr std::uint64_t kVolume = 1ull << 22;
  std::vector<std::uint64_t> positions(n);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions[i] = (i * 0x9E3779B1ull) & (kVolume - 1);
    values[i] = static_cast<double>(i) * 0.5;
  }
  KernelResult out;
  out.name = name;
  out.mb = static_cast<double>(n * (sizeof(std::uint64_t) + sizeof(double))) /
           1e6;
  exec::ArrivalBuffer arrivals;
  exec::GatherScratch scratch;
  std::vector<std::uint64_t> fast_pos;
  std::vector<double> fast_vals;
  std::vector<std::uint64_t> ref_pos;
  std::vector<double> ref_vals;
  out.fast_s = best_seconds([&] {
    arrivals.clear();
    std::copy(positions.begin(), positions.end(),
              arrivals.positions.grow_tail(n));
    arrivals.positions.commit(n);
    std::copy(values.begin(), values.end(), arrivals.values.grow_tail(n));
    arrivals.values.commit(n);
    exec::gather(arrivals, kVolume, scratch, fast_pos, fast_vals);
  });
  out.scalar_s = best_seconds([&] {
    ref_pos = positions;
    ref_vals = values;
    exec::detail::scalar::sort_by_position(ref_pos, ref_vals);
  });
  out.identical = fast_pos == ref_pos && fast_vals == ref_vals;
  return out;
}

/// The engine's emit pass over the V-M-S fragments of a 1024^2 GTS-like
/// field in 256^2 chunks and 100 equal-frequency bins: per chunk and bin,
/// the bin's ascending chunk-local offsets and their values. The query
/// returns values at PLoD level 3 under an SC that clips the edge chunks
/// and a VC whose bounds fall inside bins: the fragments of the two
/// misaligned bins carry full-precision values and the VC test, those of
/// aligned bins level-3 values and no test, and the rest are skipped as
/// the planner skips them. Identical when both sides give equal positions
/// and value bits.
KernelResult bench_fragment_emit() {
  constexpr std::uint32_t kEdge = 1024;
  constexpr std::uint32_t kChunk = 256;
  constexpr int kBins = 100;
  constexpr int kLevel = 3;
  const Grid grid = datagen::gts_like(kEdge, 20120910);
  const NDShape& shape = grid.shape();
  const BinningScheme scheme = BinningScheme::equal_frequency(grid.values(),
                                                              kBins);
  // Bounds a third of the way into bins 30 and 60.
  const auto inside = [&](int bin) {
    return scheme.lower(bin) + (scheme.upper(bin) - scheme.lower(bin)) / 3;
  };
  const ValueConstraint vc{inside(30), inside(60)};
  const Region sc(2, {100, 60}, {900, 1000});

  struct Fragment {
    Region chunk;
    bool misaligned = false;
    std::vector<std::uint32_t> local;
    std::vector<double> vals;  // at the fetch level
  };
  std::vector<Fragment> frags;
  double bytes = 0;
  for (std::uint32_t c0 = 0; c0 < kEdge; c0 += kChunk) {
    for (std::uint32_t c1 = 0; c1 < kEdge; c1 += kChunk) {
      const Region chunk(2, {c0, c1}, {c0 + kChunk, c1 + kChunk});
      std::vector<Fragment> by_bin(kBins);
      for (std::uint32_t i = 0; i < kChunk; ++i) {
        for (std::uint32_t j = 0; j < kChunk; ++j) {
          const double v = grid.at({c0 + i, c1 + j, 0, 0});
          Fragment& f = by_bin[static_cast<std::size_t>(scheme.bin_of(v))];
          f.local.push_back(i * kChunk + j);
          f.vals.push_back(v);
        }
      }
      for (int b = 0; b < kBins; ++b) {
        Fragment& f = by_bin[static_cast<std::size_t>(b)];
        const bool aligned = scheme.aligned(b, vc.lo, vc.hi);
        if (f.local.empty() || (!aligned && (scheme.upper(b) <= vc.lo ||
                                             scheme.lower(b) >= vc.hi))) {
          continue;
        }
        f.chunk = chunk;
        f.misaligned = !aligned;
        if (aligned) plod::degrade_into(f.vals, kLevel, f.vals);
        bytes += static_cast<double>(f.local.size()) *
                 (sizeof(std::uint32_t) + sizeof(double));
        frags.push_back(std::move(f));
      }
    }
  }

  const auto spec_of = [&](const Fragment& f) {
    exec::EmitSpec spec;
    spec.shape = &shape;
    spec.chunk = f.chunk;
    spec.sc = &sc;
    spec.vc = f.misaligned ? &vc : nullptr;
    spec.values_needed = true;
    spec.level = kLevel;
    return spec;
  };
  // The fast side appends to one arrival buffer reused across reps, as a
  // query-running thread does; the reference to vectors it clears.
  exec::ArrivalBuffer arrivals;
  std::vector<std::uint64_t> ref_pos;
  std::vector<double> ref_vals;
  KernelResult out;
  out.name = "fragment_emit";
  out.mb = bytes / 1e6;
  out.fast_s = best_seconds([&] {
    arrivals.clear();
    for (const Fragment& f : frags) {
      exec::emit_fragment(spec_of(f), f.local, f.vals, arrivals);
    }
  });
  out.scalar_s = best_seconds([&] {
    ref_pos.clear();
    ref_vals.clear();
    for (const Fragment& f : frags) {
      exec::detail::scalar::emit_fragment(spec_of(f), f.local, f.vals,
                                          ref_pos, ref_vals);
    }
  });
  const std::span<const std::uint64_t> fast_pos = arrivals.positions.span();
  const std::span<const double> fast_vals = arrivals.values.span();
  out.identical = !fast_pos.empty() &&
                  std::equal(fast_pos.begin(), fast_pos.end(),
                             ref_pos.begin(), ref_pos.end()) &&
                  fast_vals.size() == ref_vals.size() &&
                  std::memcmp(fast_vals.data(), ref_vals.data(),
                              fast_vals.size() * sizeof(double)) == 0;
  return out;
}

Bitmap random_bitmap(std::uint64_t nbits, double density, std::uint64_t seed) {
  Bitmap bm(nbits);
  Rng rng(seed);
  const auto nset = static_cast<std::uint64_t>(
      static_cast<double>(nbits) * density);
  for (std::uint64_t i = 0; i < nset; ++i) {
    bm.set(rng.next_below(nbits));
  }
  return bm;
}

/// Bitmap::count as the engine calls it (POPCNT where the CPU has it)
/// against the bit-at-a-time reference.
KernelResult bench_bitmap_count(const Bitmap& bm) {
  KernelResult out;
  out.name = "bitmap_count";
  out.mb = static_cast<double>(bm.byte_size()) / 1e6;
  std::uint64_t fast_n = 0;
  std::uint64_t ref_n = 0;
  out.fast_s = best_seconds([&] { fast_n = bm.count(); });
  out.scalar_s = best_seconds([&] { ref_n = detail::scalar::bitmap_count(bm); });
  out.identical = fast_n == ref_n;
  return out;
}

/// WahBitmap::count as the engine calls it (POPCNT where the CPU has it)
/// against the group-at-a-time reference.
KernelResult bench_wah_count(const Bitmap& plain) {
  const WahBitmap bm = WahBitmap::compress(plain);
  KernelResult out;
  out.name = "wah_count";
  out.mb = static_cast<double>(bm.byte_size()) / 1e6;
  std::uint64_t fast_n = 0;
  std::uint64_t ref_n = 0;
  out.fast_s = best_seconds([&] { fast_n = bm.count(); });
  out.scalar_s = best_seconds([&] { ref_n = detail::scalar::wah_count(bm); });
  out.identical = fast_n == ref_n && fast_n == plain.count();
  return out;
}

KernelResult bench_bitmap_for_each(const Bitmap& bm) {
  KernelResult out;
  out.name = "bitmap_for_each";
  out.mb = static_cast<double>(bm.byte_size()) / 1e6;
  std::vector<std::uint64_t> fast_idx;
  std::vector<std::uint64_t> ref_idx;
  out.fast_s = best_seconds([&] {
    fast_idx.clear();
    fast_idx.reserve(bm.count());
    bm.for_each_set([&](std::uint64_t i) { fast_idx.push_back(i); });
  });
  out.scalar_s = best_seconds([&] {
    ref_idx.clear();
    detail::scalar::bitmap_collect_set(bm, ref_idx);
  });
  out.identical = fast_idx == ref_idx;
  return out;
}

/// Clustered bitmap (long zero stretches + dense islands) — the shape WAH
/// compresses well and the annihilator fast path feeds on.
Bitmap clustered_bitmap(std::uint64_t nbits, std::uint64_t seed) {
  Bitmap bm(nbits);
  Rng rng(seed);
  std::uint64_t pos = 0;
  while (pos < nbits) {
    pos += 512 + rng.next_below(8192);  // zero gap
    const std::uint64_t run = 32 + rng.next_below(512);
    for (std::uint64_t i = 0; i < run && pos + i < nbits; ++i) {
      if (rng.next_below(4) != 0) bm.set(pos + i);
    }
    pos += run;
  }
  return bm;
}

KernelResult bench_wah_and(std::uint64_t nbits) {
  const WahBitmap a = WahBitmap::compress(clustered_bitmap(nbits, 1));
  const WahBitmap b = WahBitmap::compress(clustered_bitmap(nbits, 2));
  KernelResult out;
  out.name = "wah_and";
  out.mb = static_cast<double>(a.byte_size() + b.byte_size()) / 1e6;
  WahBitmap fast_out;
  WahBitmap ref_out;
  out.fast_s =
      best_seconds([&] { fast_out = WahBitmap::logical_and(a, b); });
  out.scalar_s =
      best_seconds([&] { ref_out = detail::scalar::wah_logical_and(a, b); });
  Bitmap plain_and = clustered_bitmap(nbits, 1);
  plain_and &= clustered_bitmap(nbits, 2);
  out.identical =
      fast_out == ref_out && fast_out == WahBitmap::compress(plain_and);
  return out;
}

}  // namespace

int main() {
  const char* reps_env = std::getenv("MLOC_KERNEL_REPS");
  if (reps_env != nullptr) g_reps = std::max(1, std::atoi(reps_env));
  const int host_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::printf("Kernel microbench — best of %d rep(s)\n", g_reps);

  constexpr std::size_t kValues = 1u << 20;  // 8 MB of doubles
  const std::vector<double> field = smooth_field(kValues, 20120910);
  std::vector<double> mixed = field;  // add NaNs/extremes for bin routing
  Rng rng(7);
  for (int i = 0; i < 1024; ++i) {
    mixed[rng.next_below(kValues)] = std::numeric_limits<double>::quiet_NaN();
  }

  std::vector<KernelResult> results;
  results.push_back(bench_plod_shred(field));
  results.push_back(bench_plod_assemble(field, plod::kNumGroups));
  results.push_back(bench_plod_assemble(field, 2));
  results.push_back(bench_bin_route(mixed, 64));
  results.push_back(bench_bin_route(mixed, 1024));
  results.push_back(bench_mzip_tokenize(
      std::vector<double>(field.begin(), field.begin() + (1u << 19))));
  const std::array<PlaneStreams, 2> planes = fragment_planes(
      std::vector<double>(field.begin(), field.begin() + (1u << 19)));
  results.push_back(bench_mzip_encode(planes));
  results.push_back(bench_mzip_decode(planes[0]));
  results.push_back(bench_mzip_decode_stored(planes[1]));
  results.push_back(bench_crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(field.data()), 300u << 10)));
  results.push_back(bench_segment_checksum(planes));
  results.push_back(bench_gather(300000, "gather"));
  results.push_back(bench_gather(30000, "gather_sparse"));
  results.push_back(bench_fragment_emit());
  const Bitmap dense = random_bitmap(1u << 26, 0.5, 11);
  const Bitmap sparse = random_bitmap(1u << 26, 0.01, 13);
  results.push_back(bench_bitmap_count(dense));
  results.push_back(bench_wah_count(sparse));
  results.push_back(bench_bitmap_for_each(sparse));
  results.push_back(bench_wah_and(1u << 26));

  TablePrinter table("Kernel throughput (GB/s, higher is better)",
                     {"MB", "scalar GB/s", "fast GB/s", "speedup"});
  bool all_identical = true;
  bool all_speedup_ok = true;
  for (const KernelResult& k : results) {
    table.add_row(k.name,
                  {k.mb, k.gbps(k.scalar_s), k.gbps(k.fast_s), k.speedup()},
                  "%.2f");
    all_identical = all_identical && k.identical;
    all_speedup_ok = all_speedup_ok && k.speedup() >= 1.0;
    if (!k.identical) {
      std::fprintf(stderr, "FAIL: %s fast output differs from scalar\n",
                   k.name.c_str());
    }
    if (k.speedup() < 1.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.3f < 1.0\n", k.name.c_str(),
                   k.speedup());
    }
  }
  table.print();

  const char* json_path = std::getenv("MLOC_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_kernels.json";
  std::FILE* f = std::fopen(json_path, "w");
  MLOC_CHECK_MSG(f != nullptr, "cannot open BENCH_kernels.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"reps\": %d,\n", g_reps);
  std::fprintf(f, "  \"host_threads\": %d,\n", host_threads);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& k = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"mb\": %.2f, "
                 "\"scalar_gbps\": %.3f, \"fast_gbps\": %.3f, "
                 "\"speedup\": %.3f, \"identical\": %s}%s\n",
                 k.name.c_str(), k.mb, k.gbps(k.scalar_s), k.gbps(k.fast_s),
                 k.speedup(), k.identical ? "true" : "false",
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"all_speedup_ok\": %s\n",
               all_speedup_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  if (!all_identical || !all_speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: a kernel differs from its scalar reference or "
                 "regressed below 1.0x\n");
    return 1;
  }
  return 0;
}
