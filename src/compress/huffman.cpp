#include "compress/huffman.hpp"

#include <algorithm>
#include <queue>

namespace mloc {
namespace {

std::uint32_t reverse_bits(std::uint32_t v, int nbits) {
  std::uint32_t out = 0;
  for (int i = 0; i < nbits; ++i) {
    out = (out << 1) | ((v >> i) & 1u);
  }
  return out;
}

}  // namespace

HuffmanCode HuffmanCode::from_frequencies(
    std::span<const std::uint64_t> freqs) {
  MLOC_CHECK(!freqs.empty() && freqs.size() <= 512);
  HuffmanCode hc;
  hc.len_.assign(freqs.size(), 0);

  // Collect used symbols.
  std::vector<int> used;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) used.push_back(static_cast<int>(s));
  }
  MLOC_CHECK_MSG(!used.empty(), "Huffman over empty frequency table");
  if (used.size() == 1) {
    hc.len_[used[0]] = 1;
    hc.assign_canonical_codes();
    return hc;
  }

  // Heap-based Huffman tree; node ids: [0, n) leaves, then internal.
  struct Node {
    std::uint64_t freq;
    int id;
  };
  auto cmp = [](const Node& a, const Node& b) {
    return a.freq > b.freq || (a.freq == b.freq && a.id > b.id);
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<int> parent(2 * used.size() - 1, -1);
  for (std::size_t i = 0; i < used.size(); ++i) {
    heap.push({freqs[used[i]], static_cast<int>(i)});
  }
  int next_id = static_cast<int>(used.size());
  while (heap.size() > 1) {
    const Node a = heap.top();
    heap.pop();
    const Node b = heap.top();
    heap.pop();
    parent[a.id] = next_id;
    parent[b.id] = next_id;
    heap.push({a.freq + b.freq, next_id});
    ++next_id;
  }

  // Depth of each leaf = code length.
  std::vector<int> depth(used.size(), 0);
  for (std::size_t i = 0; i < used.size(); ++i) {
    int d = 0;
    for (int n = static_cast<int>(i); parent[n] != -1; n = parent[n]) ++d;
    depth[i] = d;
  }

  // Limit code lengths to kMaxCodeLen (zlib-style rebalancing): demote
  // overlong codes to kMaxCodeLen, then restore the Kraft equality by
  // deepening the shallowest over-allocated level.
  std::vector<int> bl_count(kMaxCodeLen + 1, 0);
  for (std::size_t i = 0; i < used.size(); ++i) {
    depth[i] = std::min(depth[i], kMaxCodeLen);
    ++bl_count[depth[i]];
  }
  // Kraft sum in units of 2^-kMaxCodeLen.
  auto kraft = [&] {
    std::int64_t sum = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
      sum += static_cast<std::int64_t>(bl_count[l]) << (kMaxCodeLen - l);
    }
    return sum;
  };
  const std::int64_t budget = 1ll << kMaxCodeLen;
  while (kraft() > budget) {
    // Find a code at the deepest non-max level and push it one deeper;
    // equivalently zlib moves one node from max-1... standard fix:
    int l = kMaxCodeLen - 1;
    while (bl_count[l] == 0) --l;
    --bl_count[l];
    ++bl_count[l + 1];
  }
  // Re-assign lengths: sort symbols by original depth (stable by frequency
  // order), hand out lengths from the adjusted histogram shallow-first to
  // the most frequent symbols.
  std::vector<std::size_t> order(used.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return freqs[used[a]] > freqs[used[b]];
  });
  std::vector<int> lengths_sorted;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    for (int c = 0; c < bl_count[l]; ++c) lengths_sorted.push_back(l);
  }
  MLOC_CHECK(lengths_sorted.size() == used.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    hc.len_[used[order[i]]] = static_cast<std::uint8_t>(lengths_sorted[i]);
  }

  hc.assign_canonical_codes();
  return hc;
}

Result<HuffmanCode> HuffmanCode::from_lengths(
    std::span<const std::uint8_t> lengths) {
  if (lengths.empty() || lengths.size() > 512) {
    return corrupt_data("Huffman alphabet size out of range");
  }
  HuffmanCode hc;
  hc.len_.assign(lengths.begin(), lengths.end());
  std::int64_t kraft_sum = 0;
  bool any = false;
  for (auto l : lengths) {
    if (l > kMaxCodeLen) return corrupt_data("Huffman code length > 15");
    if (l > 0) {
      any = true;
      kraft_sum += 1ll << (kMaxCodeLen - l);
    }
  }
  if (!any) return corrupt_data("Huffman table has no symbols");
  if (kraft_sum > (1ll << kMaxCodeLen)) {
    return corrupt_data("Huffman lengths over-subscribed");
  }
  hc.assign_canonical_codes();
  hc.build_decode_table();
  return hc;
}

void HuffmanCode::assign_canonical_codes() {
  code_.assign(len_.size(), 0);
  max_len_ = 0;
  for (auto l : len_) max_len_ = std::max<int>(max_len_, l);

  std::vector<int> bl_count(max_len_ + 1, 0);
  for (auto l : len_) {
    if (l > 0) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(max_len_ + 2, 0);
  std::uint32_t code = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code + bl_count[l - 1]) << 1;
    next_code[l] = code;
  }
  for (std::size_t s = 0; s < len_.size(); ++s) {
    if (len_[s] == 0) continue;
    // Canonical code is MSB-first; the bitstream is LSB-first, so store the
    // reversed pattern for both encode and table-driven decode.
    code_[s] = reverse_bits(next_code[len_[s]]++, len_[s]);
  }
}

void HuffmanCode::build_decode_table() {
  decode_table_.assign(1ull << max_len_, -1);
  for (std::size_t s = 0; s < len_.size(); ++s) {
    const int l = len_[s];
    if (l == 0) continue;
    const std::uint32_t base = code_[s];
    const std::uint32_t step = 1u << l;
    for (std::uint32_t w = base; w < decode_table_.size();
         w += step) {
      decode_table_[w] = static_cast<std::int16_t>(s);
    }
    if (static_cast<std::size_t>(l) == static_cast<std::size_t>(max_len_)) {
      decode_table_[base] = static_cast<std::int16_t>(s);
    }
  }
}

void HuffmanCode::serialize_lengths(ByteWriter& w) const {
  // Nibble-packed lengths (each <= 15). Alphabet size is implied by caller.
  for (std::size_t i = 0; i < len_.size(); i += 2) {
    const std::uint8_t lo = len_[i];
    const std::uint8_t hi = (i + 1 < len_.size()) ? len_[i + 1] : 0;
    w.put_u8(static_cast<std::uint8_t>(lo | (hi << 4)));
  }
}

Result<std::vector<std::uint8_t>> HuffmanCode::deserialize_lengths(
    ByteReader& r, std::size_t alphabet_size) {
  std::vector<std::uint8_t> lengths(alphabet_size, 0);
  for (std::size_t i = 0; i < alphabet_size; i += 2) {
    MLOC_ASSIGN_OR_RETURN(std::uint8_t packed, r.get_u8());
    lengths[i] = packed & 0x0F;
    if (i + 1 < alphabet_size) lengths[i + 1] = packed >> 4;
  }
  return lengths;
}

}  // namespace mloc
