#include "index/hbx.hpp"

#include <algorithm>
#include <utility>

#include "core/layout.hpp"
#include "util/assert.hpp"

namespace mloc::index {

Bytes HbxHeader::serialize() const {
  ByteWriter w;
  w.put_u32(kHbxMagic);
  w.put_u32(kHbxVersion);
  w.put_varint(static_cast<std::uint64_t>(fanout));
  w.put_varint(static_cast<std::uint64_t>(num_bins));
  w.put_varint(nbits);
  w.put_varint(static_cast<std::uint64_t>(num_levels()));
  for (int k = 0; k < num_levels(); ++k) {
    w.put_varint(level(k).size());
  }
  for (const HbxNode& n : nodes) {
    w.put_varint(static_cast<std::uint64_t>(n.first_bin));
    w.put_varint(static_cast<std::uint64_t>(n.bin_count));
    w.put_varint(n.offset);
    w.put_varint(n.length);
    w.put_u64(n.checksum);
    w.put_varint(n.popcount);
  }
  return std::move(w).take();
}

Result<HbxHeader> HbxHeader::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  MLOC_ASSIGN_OR_RETURN(const std::uint32_t magic, r.get_u32());
  if (magic != kHbxMagic) return corrupt_data("hbx: bad magic");
  MLOC_ASSIGN_OR_RETURN(const std::uint32_t version, r.get_u32());
  if (version != kHbxVersion) return corrupt_data("hbx: unsupported version");

  HbxHeader h;
  MLOC_ASSIGN_OR_RETURN(const std::uint64_t fanout, r.get_varint());
  MLOC_ASSIGN_OR_RETURN(const std::uint64_t num_bins, r.get_varint());
  MLOC_ASSIGN_OR_RETURN(h.nbits, r.get_varint());
  if (fanout < 2 || fanout > 1u << 20) return corrupt_data("hbx: bad fanout");
  if (num_bins == 0 || num_bins > 1u << 24) {
    return corrupt_data("hbx: bad bin count");
  }
  h.fanout = static_cast<int>(fanout);
  h.num_bins = static_cast<int>(num_bins);

  MLOC_ASSIGN_OR_RETURN(const std::uint64_t num_levels, r.get_varint());
  if (num_levels == 0 || num_levels > 64) {
    return corrupt_data("hbx: bad level count");
  }
  h.level_begin.resize(num_levels + 1, 0);
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < num_levels; ++k) {
    MLOC_ASSIGN_OR_RETURN(const std::uint64_t count, r.get_varint());
    if (count == 0 || count > num_bins) {
      return corrupt_data("hbx: bad level node count");
    }
    total += count;
    h.level_begin[k + 1] = total;
  }
  if (h.level_begin[1] != num_bins) {
    return corrupt_data("hbx: leaf level must have one node per bin");
  }
  if (total > (std::uint64_t{1} << 28)) {
    return corrupt_data("hbx: node table too large");
  }

  h.nodes.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    HbxNode& n = h.nodes[i];
    MLOC_ASSIGN_OR_RETURN(const std::uint64_t first_bin, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(const std::uint64_t bin_count, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(n.offset, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(n.length, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(n.checksum, r.get_u64());
    MLOC_ASSIGN_OR_RETURN(n.popcount, r.get_varint());
    if (bin_count == 0 || first_bin + bin_count > num_bins) {
      return corrupt_data("hbx: node bin span out of range");
    }
    n.first_bin = static_cast<int>(first_bin);
    n.bin_count = static_cast<int>(bin_count);
  }
  // Assign levels and check each level tiles [0, num_bins) in order.
  for (int k = 0; k < static_cast<int>(num_levels); ++k) {
    int next_bin = 0;
    for (std::size_t i = h.level_begin[static_cast<std::size_t>(k)];
         i < h.level_begin[static_cast<std::size_t>(k) + 1]; ++i) {
      HbxNode& n = h.nodes[i];
      n.level = k;
      if (n.first_bin != next_bin) {
        return corrupt_data("hbx: level does not tile the bin span");
      }
      next_bin = n.first_bin + n.bin_count;
    }
    if (next_bin != h.num_bins) {
      return corrupt_data("hbx: level does not cover all bins");
    }
  }
  h.header_len = r.position();
  return h;
}

HbxBuild build_index(const std::vector<WahBitmap>& leaves,
                     std::uint64_t nbits, int fanout, ChecksumKind checksum) {
  MLOC_CHECK(fanout >= 2);
  MLOC_CHECK(!leaves.empty());

  HbxBuild out;
  out.bitmaps = leaves;
  out.header.fanout = fanout;
  out.header.num_bins = static_cast<int>(leaves.size());
  out.header.nbits = nbits;
  out.header.level_begin.push_back(0);
  out.header.level_begin.push_back(leaves.size());
  for (std::size_t b = 0; b < leaves.size(); ++b) {
    HbxNode n;
    n.level = 0;
    n.first_bin = static_cast<int>(b);
    n.bin_count = 1;
    out.header.nodes.push_back(n);
  }

  // OR consecutive fanout-sized groups of the previous level until a
  // single root remains (a one-bin variable stops at the leaf level).
  std::size_t prev_begin = 0;
  std::size_t prev_end = leaves.size();
  int level = 0;
  while (prev_end - prev_begin > 1) {
    ++level;
    const std::size_t begin = out.header.nodes.size();
    for (std::size_t i = prev_begin; i < prev_end;
         i += static_cast<std::size_t>(fanout)) {
      const std::size_t hi =
          std::min(prev_end, i + static_cast<std::size_t>(fanout));
      WahBitmap agg = out.bitmaps[i];
      for (std::size_t j = i + 1; j < hi; ++j) {
        agg = WahBitmap::logical_or(agg, out.bitmaps[j]);
      }
      HbxNode n;
      n.level = level;
      n.first_bin = out.header.nodes[i].first_bin;
      n.bin_count = out.header.nodes[hi - 1].first_bin +
                    out.header.nodes[hi - 1].bin_count - n.first_bin;
      out.header.nodes.push_back(n);
      out.bitmaps.push_back(std::move(agg));
    }
    prev_begin = begin;
    prev_end = out.header.nodes.size();
    out.header.level_begin.push_back(prev_end);
  }

  // Serialize payloads and fill node extents.
  ByteWriter payload;
  for (std::size_t i = 0; i < out.bitmaps.size(); ++i) {
    HbxNode& n = out.header.nodes[i];
    const std::size_t start = payload.size();
    out.bitmaps[i].serialize(payload);
    n.offset = start;
    n.length = payload.size() - start;
    n.checksum = segment_checksum(
        checksum, std::span<const std::uint8_t>(
                      payload.bytes().data() + start, n.length));
    n.popcount = out.bitmaps[i].count();
  }

  out.file = out.header.serialize();
  out.header.header_len = out.file.size();
  const Bytes payload_bytes = std::move(payload).take();
  out.file.insert(out.file.end(), payload_bytes.begin(), payload_bytes.end());
  append_subfile_footer(out.file);
  return out;
}

namespace {

/// Children of node `id` (at level k > 0) are the level-(k-1) nodes whose
/// bin span falls inside the parent's. Levels tile the bin range in
/// order, so a binary search by first_bin finds the child run.
std::pair<std::size_t, std::size_t> child_range(const HbxHeader& h,
                                                std::size_t id) {
  const HbxNode& parent = h.nodes[id];
  MLOC_DCHECK(parent.level > 0);
  const std::size_t lo = h.level_begin[static_cast<std::size_t>(parent.level) - 1];
  const std::size_t hi = h.level_begin[static_cast<std::size_t>(parent.level)];
  std::size_t first = lo;
  while (first < hi && h.nodes[first].first_bin < parent.first_bin) ++first;
  std::size_t last = first;
  while (last < hi && h.nodes[last].last_bin() <= parent.last_bin()) ++last;
  return {first, last};
}

void cover_node(const HbxHeader& h, std::size_t id, int first_bin,
                int last_bin, std::vector<std::size_t>& out) {
  const HbxNode& n = h.nodes[id];
  if (n.last_bin() < first_bin || n.first_bin > last_bin) return;  // pruned
  if (n.first_bin >= first_bin && n.last_bin() <= last_bin) {
    out.push_back(id);  // fully covered: take the aggregate whole
    return;
  }
  MLOC_DCHECK(n.level > 0);  // a leaf spans one bin, so it can't straddle
  const auto [lo, hi] = child_range(h, id);
  for (std::size_t c = lo; c < hi; ++c) cover_node(h, c, first_bin, last_bin, out);
}

}  // namespace

std::vector<std::size_t> cover(const HbxHeader& h, int first_bin,
                               int last_bin) {
  std::vector<std::size_t> out;
  if (first_bin > last_bin || last_bin < 0 || first_bin >= h.num_bins) {
    return out;
  }
  const int top = h.num_levels() - 1;
  for (std::size_t id = h.level_begin[static_cast<std::size_t>(top)];
       id < h.level_begin[static_cast<std::size_t>(top) + 1]; ++id) {
    cover_node(h, id, std::max(first_bin, 0),
               std::min(last_bin, h.num_bins - 1), out);
  }
  return out;
}

}  // namespace mloc::index
