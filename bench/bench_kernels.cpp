// Hot-kernel microbenchmarks: the blocked/SWAR fast paths vs the retained
// scalar references in mloc::detail::scalar (DESIGN.md §11). Each kernel
// runs best-of-reps on both implementations, asserts the outputs are
// byte-/bit-identical, and reports GB/s plus the fast/scalar speedup.
// Results land in BENCH_kernels.json (`MLOC_BENCH_JSON` overrides the
// path); the binary exits non-zero if any kernel's outputs differ or its
// speedup drops below 1.0, and CI's bench-smoke job jq-asserts the same
// two claims from the JSON.
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

KernelResult bench_mzip_encode(const std::vector<double>& values) {
  // Encode the PLoD byte planes — the exact payload the ingest encode
  // stage feeds mzip, fragment by fragment.
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
  out.name = "mzip_encode";
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

/// The streams a cold query inflates: the field shredded into 1024-value
/// fragments, each fragment's 7 PLoD planes mzip-encoded one by one, as
/// ingest writes them. Identical only if every output equals both the
/// other side's output and the raw plane.
KernelResult bench_mzip_decode(const std::vector<double>& values) {
  constexpr std::size_t kFragment = 1024;
  const MzipCodec codec;
  std::vector<Bytes> raws;
  std::vector<Bytes> streams;
  double raw_bytes = 0;
  for (std::size_t at = 0; at + kFragment <= values.size(); at += kFragment) {
    const plod::Shredded planes = plod::shred(
        std::span<const double>(values.data() + at, kFragment));
    for (const Bytes& plane : planes.groups) {
      auto enc = codec.encode(plane);
      MLOC_CHECK(enc.is_ok());
      streams.push_back(std::move(enc).value());
      raws.push_back(plane);
      raw_bytes += static_cast<double>(plane.size());
    }
  }

  std::vector<Bytes> fast_out(streams.size());
  std::vector<Bytes> ref_out(streams.size());
  KernelResult out;
  out.name = "mzip_decode";
  out.mb = raw_bytes / 1e6;
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
  out.identical = fast_out == ref_out && fast_out == raws;
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

/// The engine's gather: `n` distinct (position, value) pairs over a 2048^2
/// grid, scattered by an odd multiplier (a bijection mod 2^22), sorted into
/// grid order. Both sides start each rep from the same unsorted copy.
KernelResult bench_gather(std::size_t n) {
  constexpr std::uint64_t kVolume = 1ull << 22;
  std::vector<std::uint64_t> positions(n);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions[i] = (i * 0x9E3779B1ull) & (kVolume - 1);
    values[i] = static_cast<double>(i) * 0.5;
  }
  KernelResult out;
  out.name = "gather";
  out.mb = static_cast<double>(n * (sizeof(std::uint64_t) + sizeof(double))) /
           1e6;
  std::vector<std::uint64_t> fast_pos;
  std::vector<double> fast_vals;
  std::vector<std::uint64_t> ref_pos;
  std::vector<double> ref_vals;
  out.fast_s = best_seconds([&] {
    fast_pos = positions;
    fast_vals = values;
    exec::sort_by_position(fast_pos, fast_vals, kVolume);
  });
  out.scalar_s = best_seconds([&] {
    ref_pos = positions;
    ref_vals = values;
    exec::detail::scalar::sort_by_position(ref_pos, ref_vals);
  });
  out.identical = fast_pos == ref_pos && fast_vals == ref_vals;
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
  results.push_back(bench_mzip_encode(
      std::vector<double>(field.begin(), field.begin() + (1u << 19))));
  results.push_back(bench_mzip_decode(
      std::vector<double>(field.begin(), field.begin() + (1u << 19))));
  results.push_back(bench_crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(field.data()), 300u << 10)));
  results.push_back(bench_gather(300000));
  const Bitmap dense = random_bitmap(1u << 26, 0.5, 11);
  const Bitmap sparse = random_bitmap(1u << 26, 0.01, 13);
  results.push_back(bench_bitmap_count(dense));
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
