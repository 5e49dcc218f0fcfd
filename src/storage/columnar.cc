#include "storage/columnar.h"

#include <algorithm>
#include <cstring>

namespace sitm::storage {

std::uint64_t Checksum(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV 64 prime
  }
  return h;
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutVarint64(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutSVarint64(std::string& out, std::int64_t v) {
  PutVarint64(out, ZigZagEncode(v));
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return Status::Corruption("columnar: truncated u32 at offset " +
                              std::to_string(pos_));
  }
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) {
    return Status::Corruption("columnar: truncated u64 at offset " +
                              std::to_string(pos_));
  }
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<std::uint64_t> ByteReader::ReadVarint64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (empty()) {
      return Status::Corruption("columnar: truncated varint at offset " +
                                std::to_string(pos_));
    }
    const auto byte = static_cast<unsigned char>(data_[pos_++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the top bit of the value.
      if (shift == 63 && byte > 1) {
        return Status::Corruption("columnar: varint overflows 64 bits");
      }
      return v;
    }
  }
  return Status::Corruption("columnar: varint longer than 10 bytes");
}

Result<std::int64_t> ByteReader::ReadSVarint64() {
  SITM_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadVarint64());
  return ZigZagDecode(raw);
}

Result<std::string_view> ByteReader::ReadBytes(std::size_t n) {
  if (remaining() < n) {
    return Status::Corruption("columnar: truncated byte run of " +
                              std::to_string(n) + " at offset " +
                              std::to_string(pos_));
  }
  std::string_view view(data_ + pos_, n);
  pos_ += n;
  return view;
}

void PutDeltaColumn(std::string& out,
                    const std::vector<std::int64_t>& values) {
  // Deltas are computed mod 2^64 (unsigned, wrap-defined) so every
  // int64 pair round-trips exactly through the wrap-adding decoder —
  // including adjacent values at the two ends of the int64 range.
  std::uint64_t previous = 0;
  for (std::int64_t v : values) {
    const auto u = static_cast<std::uint64_t>(v);
    PutSVarint64(out, static_cast<std::int64_t>(u - previous));
    previous = u;
  }
}

Result<std::vector<std::int64_t>> ReadDeltaColumn(ByteReader& reader,
                                                  std::size_t n) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  // Unsigned accumulation: crafted delta sequences that would overflow
  // int64 wrap deterministically instead of being UB (this decoder sees
  // untrusted bytes; later semantic validation rejects nonsense values).
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SITM_ASSIGN_OR_RETURN(const std::int64_t delta, reader.ReadSVarint64());
    previous += static_cast<std::uint64_t>(delta);
    out.push_back(static_cast<std::int64_t>(previous));
  }
  return out;
}

void PutVarintColumn(std::string& out,
                     const std::vector<std::uint64_t>& values) {
  for (std::uint64_t v : values) PutVarint64(out, v);
}

Result<std::vector<std::uint64_t>> ReadVarintColumn(ByteReader& reader,
                                                    std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t v, reader.ReadVarint64());
    out.push_back(v);
  }
  return out;
}

void PutBitColumn(std::string& out, const std::vector<bool>& values) {
  unsigned char byte = 0;
  int bit = 0;
  for (bool v : values) {
    if (v) byte |= static_cast<unsigned char>(1u << bit);
    if (++bit == 8) {
      out.push_back(static_cast<char>(byte));
      byte = 0;
      bit = 0;
    }
  }
  if (bit != 0) out.push_back(static_cast<char>(byte));
}

Result<std::vector<bool>> ReadBitColumn(ByteReader& reader, std::size_t n) {
  SITM_ASSIGN_OR_RETURN(const std::string_view bytes,
                        reader.ReadBytes((n + 7) / 8));
  std::vector<bool> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[i / 8]);
    out.push_back((byte >> (i % 8)) & 1u);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chunked frame-of-reference bitpacking.
// ---------------------------------------------------------------------------

namespace {

/// Bits needed to represent v (0 for v == 0).
int BitWidth(std::uint64_t v) {
  int width = 0;
  while (v != 0) {
    ++width;
    v >>= 1;
  }
  return width;
}

}  // namespace

void PutPackedColumn(std::string& out,
                     const std::vector<std::uint64_t>& values) {
  for (std::size_t begin = 0; begin < values.size();
       begin += kPackedChunkSize) {
    const std::size_t end =
        std::min(begin + kPackedChunkSize, values.size());
    std::uint64_t reference = values[begin];
    for (std::size_t i = begin + 1; i < end; ++i) {
      reference = std::min(reference, values[i]);
    }
    int width = 0;
    for (std::size_t i = begin; i < end; ++i) {
      width = std::max(width, BitWidth(values[i] - reference));
    }
    PutVarint64(out, reference);
    out.push_back(static_cast<char>(width));
    // LSB-first bit stream: value bits land in ascending bit positions
    // across consecutive bytes, mirroring PutBitColumn. The accumulator
    // is filled at most 8 bits at a time, so no shift can overflow even
    // at width 64.
    unsigned acc = 0;
    int acc_bits = 0;
    for (std::size_t i = begin; i < end; ++i) {
      std::uint64_t rebased = values[i] - reference;
      int remaining = width;
      while (remaining > 0) {
        const int take = std::min(8 - acc_bits, remaining);
        acc |= static_cast<unsigned>(rebased & ((1ull << take) - 1))
               << acc_bits;
        rebased >>= take;
        remaining -= take;
        acc_bits += take;
        if (acc_bits == 8) {
          out.push_back(static_cast<char>(acc));
          acc = 0;
          acc_bits = 0;
        }
      }
    }
    if (acc_bits > 0) out.push_back(static_cast<char>(acc));
  }
}

Result<std::vector<std::uint64_t>> ReadPackedColumn(ByteReader& reader,
                                                    std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t len = std::min(kPackedChunkSize, n - out.size());
    SITM_ASSIGN_OR_RETURN(const std::uint64_t reference,
                          reader.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(const std::string_view width_byte,
                          reader.ReadBytes(1));
    const int width = static_cast<unsigned char>(width_byte[0]);
    if (width > 64) {
      return Status::Corruption("columnar: packed chunk bit width " +
                                std::to_string(width) + " exceeds 64");
    }
    const std::size_t payload_bytes =
        (len * static_cast<std::size_t>(width) + 7) / 8;
    SITM_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.ReadBytes(payload_bytes));
    std::uint64_t acc = 0;
    int acc_bits = 0;
    std::size_t next_byte = 0;
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t rebased = 0;
      int have = 0;
      while (have < width) {
        if (acc_bits == 0) {
          acc = static_cast<unsigned char>(payload[next_byte++]);
          acc_bits = 8;
        }
        const int take = std::min(acc_bits, width - have);
        rebased |= (acc & ((take == 64 ? 0 : (1ull << take)) - 1)) << have;
        acc >>= take;
        acc_bits -= take;
        have += take;
      }
      // Additions are mod 2^64 by construction (unsigned), matching the
      // encoder's wrap-defined subtraction.
      out.push_back(reference + rebased);
    }
  }
  return out;
}

void PutPackedDeltaColumn(std::string& out,
                          const std::vector<std::int64_t>& values) {
  std::vector<std::uint64_t> zigzag;
  zigzag.reserve(values.size());
  std::uint64_t previous = 0;
  for (std::int64_t v : values) {
    const auto u = static_cast<std::uint64_t>(v);
    zigzag.push_back(ZigZagEncode(static_cast<std::int64_t>(u - previous)));
    previous = u;
  }
  PutPackedColumn(out, zigzag);
}

Result<std::vector<std::int64_t>> ReadPackedDeltaColumn(ByteReader& reader,
                                                        std::size_t n) {
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> zigzag,
                        ReadPackedColumn(reader, n));
  std::vector<std::int64_t> out;
  out.reserve(n);
  std::uint64_t previous = 0;
  for (std::uint64_t z : zigzag) {
    previous += static_cast<std::uint64_t>(ZigZagDecode(z));
    out.push_back(static_cast<std::int64_t>(previous));
  }
  return out;
}

void PutPackedSignedColumn(std::string& out,
                           const std::vector<std::int64_t>& values) {
  std::vector<std::uint64_t> zigzag;
  zigzag.reserve(values.size());
  for (std::int64_t v : values) zigzag.push_back(ZigZagEncode(v));
  PutPackedColumn(out, zigzag);
}

Result<std::vector<std::int64_t>> ReadPackedSignedColumn(ByteReader& reader,
                                                         std::size_t n) {
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> zigzag,
                        ReadPackedColumn(reader, n));
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::uint64_t z : zigzag) out.push_back(ZigZagDecode(z));
  return out;
}

// ---------------------------------------------------------------------------
// LZ byte codec.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxDistance = 1u << 16;
constexpr int kLzHashBits = 16;
constexpr int kLzMaxChain = 64;
/// Chain positions are 32-bit; this marks an empty slot, so positions at
/// or past it are never indexed (the tail of a >= 4 GiB input is emitted
/// as literals).
constexpr std::uint32_t kLzNoPosition = UINT32_MAX;

std::uint32_t Load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t LzHash(const char* p) {
  // Multiplicative hash of the next 4 bytes (Fibonacci constant).
  return (Load32(p) * 2654435761u) >> (32 - kLzHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `limit` bytes:
/// eight bytes per step, the first differing byte located from the XOR
/// of the two words.
std::size_t CommonPrefix(const char* a, const char* b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    const std::uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return len + static_cast<std::size_t>(__builtin_clzll(diff) / 8);
#else
      return len + static_cast<std::size_t>(__builtin_ctzll(diff) / 8);
#endif
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Hash-chained match finder: head[h] is the most recent position whose
/// 4-byte prefix hashed to h, prev[] threads earlier ones. Bounded
/// probing (kLzMaxChain) keeps compression O(n) while finding much
/// longer matches than a single-slot table on repetitive column bytes.
class LzMatcher {
 public:
  explicit LzMatcher(std::string_view input)
      : input_(input),
        head_(std::size_t{1} << kLzHashBits, kLzNoPosition),
        prev_(std::min<std::size_t>(input.size(), kLzNoPosition)) {}

  /// Longest match (>= kLzMinMatch) ending the probe at `pos`, as
  /// (length, distance); length 0 when none. Ties prefer the nearer
  /// candidate (shorter distance varint).
  std::pair<std::size_t, std::size_t> Find(std::size_t pos) const {
    const char* const data = input_.data();
    const std::size_t limit = input_.size() - pos;
    std::size_t best_len = 0, best_dist = 0;
    std::uint32_t candidate = head_[LzHash(data + pos)];
    for (int probes = 0; probes < kLzMaxChain && candidate != kLzNoPosition;
         ++probes, candidate = prev_[candidate]) {
      if (pos - candidate > kLzMaxDistance) break;  // chain only ages
      // Cheap rejection: a longer match must agree on the 4 bytes ending
      // at best_len too (best_len >= kLzMinMatch whenever it is set).
      if (best_len > 0 &&
          (best_len >= limit ||
           Load32(data + candidate + best_len - 3) !=
               Load32(data + pos + best_len - 3))) {
        continue;
      }
      const std::size_t len = CommonPrefix(data + candidate, data + pos, limit);
      if (len >= kLzMinMatch && len > best_len) {
        best_len = len;
        best_dist = pos - candidate;
        if (len >= limit) break;  // cannot improve
      }
    }
    return {best_len, best_dist};
  }

  void Insert(std::size_t pos) {
    const std::uint32_t h = LzHash(input_.data() + pos);
    prev_[pos] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

 private:
  std::string_view input_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
};

}  // namespace

std::string CompressBytes(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 16);
  LzMatcher matcher(input);
  // Only positions below kLzNoPosition are searched and indexed.
  const std::size_t end = std::min<std::size_t>(input.size(), kLzNoPosition);
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t until) {
    PutVarint64(out, until - literal_start);
    out.append(input.data() + literal_start, until - literal_start);
  };
  while (pos + kLzMinMatch <= end) {
    auto [len, dist] = matcher.Find(pos);
    matcher.Insert(pos);
    if (len == 0) {
      ++pos;
      continue;
    }
    // Lazy matching: when the very next position starts a longer match,
    // emit this byte as a literal and take the later one instead.
    while (pos + 1 + kLzMinMatch <= end && len < input.size() - pos) {
      const auto [next_len, next_dist] = matcher.Find(pos + 1);
      if (next_len <= len) break;
      matcher.Insert(pos + 1);
      ++pos;
      len = next_len;
      dist = next_dist;
    }
    flush_literals(pos);
    PutVarint64(out, len - kLzMinMatch);
    PutVarint64(out, dist);
    // Index every position the match covers so repeats right after it
    // are still found (bounded chains keep this O(n) overall).
    for (std::size_t i = pos + 1; i + kLzMinMatch <= end && i < pos + len;
         ++i) {
      matcher.Insert(i);
    }
    pos += len;
    literal_start = pos;
  }
  flush_literals(input.size());
  return out;
}

Result<std::string> DecompressBytes(std::string_view compressed,
                                    std::size_t decompressed_size) {
  std::string out;
  out.reserve(decompressed_size);
  ByteReader reader(compressed);
  while (true) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t literal_len,
                          reader.ReadVarint64());
    if (literal_len > decompressed_size - out.size()) {
      return Status::Corruption(
          "columnar: LZ literal run overflows the declared size");
    }
    SITM_ASSIGN_OR_RETURN(const std::string_view literals,
                          reader.ReadBytes(literal_len));
    out.append(literals);
    if (reader.empty()) break;
    SITM_ASSIGN_OR_RETURN(const std::uint64_t extra, reader.ReadVarint64());
    if (extra > decompressed_size ||
        kLzMinMatch + extra > decompressed_size - out.size()) {
      return Status::Corruption(
          "columnar: LZ match overflows the declared size");
    }
    const std::size_t match = kLzMinMatch + static_cast<std::size_t>(extra);
    SITM_ASSIGN_OR_RETURN(const std::uint64_t distance,
                          reader.ReadVarint64());
    if (distance == 0 || distance > out.size()) {
      return Status::Corruption("columnar: LZ distance " +
                                std::to_string(distance) +
                                " outside the produced window");
    }
    // Byte-wise copy: matches may overlap their own output (distance <
    // match length), which is how runs compress.
    std::size_t from = out.size() - static_cast<std::size_t>(distance);
    for (std::size_t i = 0; i < match; ++i) {
      out.push_back(out[from + i]);
    }
  }
  if (out.size() != decompressed_size) {
    return Status::Corruption("columnar: LZ stream decodes to " +
                              std::to_string(out.size()) + " bytes, not " +
                              std::to_string(decompressed_size));
  }
  return out;
}

}  // namespace sitm::storage
