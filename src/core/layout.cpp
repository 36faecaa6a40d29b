#include "core/layout.hpp"

#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace mloc {

std::string_view checksum_kind_name(ChecksumKind kind) noexcept {
  return kind == ChecksumKind::kCrc32 ? "crc32" : "fnv1a64";
}

void append_subfile_footer(Bytes& file) {
  ByteWriter w;
  w.put_u32(crc32(file));
  w.put_u32(kSubfileFooterMagic);
  const Bytes footer = std::move(w).take();
  file.insert(file.end(), footer.begin(), footer.end());
}

Result<std::uint64_t> verify_subfile_footer(
    std::span<const std::uint8_t> file) {
  if (file.size() < kSubfileFooterSize) {
    return corrupt_data("subfile footer: file shorter than footer");
  }
  const std::uint64_t payload = file.size() - kSubfileFooterSize;
  ByteReader r(file.subspan(payload));
  MLOC_ASSIGN_OR_RETURN(std::uint32_t stored_crc, r.get_u32());
  MLOC_ASSIGN_OR_RETURN(std::uint32_t magic, r.get_u32());
  if (magic != kSubfileFooterMagic) {
    return corrupt_data("subfile footer: bad magic");
  }
  if (stored_crc != crc32(file.first(payload))) {
    return corrupt_data("subfile footer: CRC mismatch");
  }
  return payload;
}

void BinLayout::serialize(ByteWriter& w) const {
  w.put_varint(fragments.size());
  for (const auto& f : fragments) {
    w.put_varint(f.chunk);
    w.put_varint(f.count);
    w.put_varint(f.positions.offset);
    w.put_varint(f.positions.length);
    w.put_u64(f.positions.checksum);
    w.put_varint(f.groups.size());
    for (const auto& g : f.groups) {
      w.put_varint(g.offset);
      w.put_varint(g.length);
      w.put_u64(g.checksum);
    }
    w.put_f64(f.min_value);
    w.put_f64(f.max_value);
  }
}

Result<BinLayout> BinLayout::deserialize(ByteReader& r) {
  BinLayout out;
  MLOC_ASSIGN_OR_RETURN(std::uint64_t count, r.get_varint());
  if (count > (1ull << 32)) {
    return corrupt_data("bin layout: implausible fragment count");
  }
  out.fragments.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FragmentInfo f;
    MLOC_ASSIGN_OR_RETURN(std::uint64_t chunk, r.get_varint());
    f.chunk = static_cast<ChunkId>(chunk);
    MLOC_ASSIGN_OR_RETURN(f.count, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(f.positions.offset, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(f.positions.length, r.get_varint());
    MLOC_ASSIGN_OR_RETURN(f.positions.checksum, r.get_u64());
    MLOC_ASSIGN_OR_RETURN(std::uint64_t ngroups, r.get_varint());
    if (ngroups > 8) return corrupt_data("bin layout: too many byte groups");
    f.groups.resize(ngroups);
    for (auto& g : f.groups) {
      MLOC_ASSIGN_OR_RETURN(g.offset, r.get_varint());
      MLOC_ASSIGN_OR_RETURN(g.length, r.get_varint());
      MLOC_ASSIGN_OR_RETURN(g.checksum, r.get_u64());
    }
    MLOC_ASSIGN_OR_RETURN(f.min_value, r.get_f64());
    MLOC_ASSIGN_OR_RETURN(f.max_value, r.get_f64());
    out.fragments.push_back(std::move(f));
  }
  return out;
}

Bytes encode_positions(std::span<const std::uint32_t> local_offsets) {
  ByteWriter w(local_offsets.size() + 8);
  std::uint32_t prev = 0;
  bool first = true;
  for (std::uint32_t off : local_offsets) {
    if (first) {
      w.put_varint(off);
      first = false;
    } else {
      MLOC_DCHECK(off > prev);
      w.put_varint(off - prev);
    }
    prev = off;
  }
  return std::move(w).take();
}

Result<std::vector<std::uint32_t>> decode_positions(
    std::span<const std::uint8_t> blob, std::uint64_t count) {
  std::vector<std::uint32_t> out;
  MLOC_RETURN_IF_ERROR(decode_positions_into(blob, count, out));
  return out;
}

Status decode_positions_into(std::span<const std::uint8_t> blob,
                             std::uint64_t count,
                             std::vector<std::uint32_t>& out) {
  // Every varint takes at least one byte, so a count above the blob size
  // is corrupt; `count` comes from the fragment table unchecked.
  if (count > blob.size()) {
    return corrupt_data("position count exceeds blob size");
  }
  out.resize(count);
  const std::uint8_t* p = blob.data();
  const std::uint8_t* const end = p + blob.size();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    // Deltas of one and two bytes (below 2^14) decode inline; anything
    // longer, and every malformed varint, goes through ByteReader so the
    // verdicts stay its own.
    std::uint64_t delta;
    const std::size_t left = static_cast<std::size_t>(end - p);
    if (left >= 1 && p[0] < 0x80) {
      delta = p[0];
      p += 1;
    } else if (left >= 2 && p[1] < 0x80) {
      delta = (p[0] & 0x7fu) | (std::uint64_t{p[1]} << 7);
      p += 2;
    } else {
      ByteReader r(std::span<const std::uint8_t>(p, left));
      MLOC_ASSIGN_OR_RETURN(delta, r.get_varint());
      p += r.position();
    }
    if (i != 0 && delta == 0) {
      return corrupt_data("position index not strictly ascending");
    }
    // Checked before the add: prev + delta must not wrap back below prev.
    if (delta > 0xFFFFFFFFull - prev) {
      return corrupt_data("position index exceeds 32 bits");
    }
    prev += delta;
    out[i] = static_cast<std::uint32_t>(prev);
  }
  if (p != end) return corrupt_data("position blob has trailing bytes");
  return Status::ok();
}

}  // namespace mloc
