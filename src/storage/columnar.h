#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace sitm::storage {

/// \brief Byte-level encoding primitives for the EventStore's columnar
/// on-disk format (see storage/event_store.h for the file layout).
///
/// All multi-byte fixed-width integers are little-endian regardless of
/// host order. Variable-width integers use LEB128 varints; signed
/// values are zigzag-mapped first so small magnitudes of either sign
/// stay short — the property delta-encoded id and timestamp columns
/// rely on.

/// Seed/offset basis of the FNV-1a 64-bit checksum.
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over a byte range. Chainable: pass a previous digest as
/// `seed` to extend it. Used as the block/footer corruption check — this
/// guards against bit rot and truncation, not adversaries.
std::uint64_t Checksum(std::string_view bytes,
                       std::uint64_t seed = kChecksumSeed);

/// Zigzag mapping: small negative numbers become small unsigned ones.
constexpr std::uint64_t ZigZagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t ZigZagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Fixed-width little-endian appends.
void PutU32(std::string& out, std::uint32_t v);
void PutU64(std::string& out, std::uint64_t v);

/// LEB128 varint appends (PutVarint64 unsigned; signed via zigzag).
void PutVarint64(std::string& out, std::uint64_t v);
void PutSVarint64(std::string& out, std::int64_t v);

/// \brief Bounds-checked sequential decoder over a borrowed byte range.
///
/// Every read validates against the remaining bytes and returns
/// Corruption on truncation — the reader-side guarantee that untrusted
/// or damaged files can never run the decoder out of bounds.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

  [[nodiscard]] Result<std::uint32_t> ReadU32();
  [[nodiscard]] Result<std::uint64_t> ReadU64();
  [[nodiscard]] Result<std::uint64_t> ReadVarint64();
  [[nodiscard]] Result<std::int64_t> ReadSVarint64();
  /// Borrows `n` raw bytes (valid while the underlying buffer lives).
  [[nodiscard]] Result<std::string_view> ReadBytes(std::size_t n);

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// \brief Appends a delta-encoded signed column: the first value
/// absolute, every later one as the difference to its predecessor, all
/// zigzag varints. Ids assigned in roughly increasing order and sorted
/// timestamps shrink to one or two bytes per row.
void PutDeltaColumn(std::string& out, const std::vector<std::int64_t>& values);

/// Decodes `n` values of a PutDeltaColumn column.
[[nodiscard]] Result<std::vector<std::int64_t>> ReadDeltaColumn(ByteReader& reader,
                                                  std::size_t n);

/// Appends an unsigned varint column (no delta).
void PutVarintColumn(std::string& out,
                     const std::vector<std::uint64_t>& values);

/// Decodes `n` values of a PutVarintColumn column.
[[nodiscard]] Result<std::vector<std::uint64_t>> ReadVarintColumn(ByteReader& reader,
                                                    std::size_t n);

/// Appends a bit-packed bool column ((n + 7) / 8 bytes, LSB first).
void PutBitColumn(std::string& out, const std::vector<bool>& values);

/// Decodes `n` values of a PutBitColumn column.
[[nodiscard]] Result<std::vector<bool>> ReadBitColumn(ByteReader& reader, std::size_t n);

// ---------------------------------------------------------------------------
// Chunked frame-of-reference bitpacking (the v3 kPacked block codec).
// ---------------------------------------------------------------------------

/// Values per bitpacked chunk. Small enough that one large outlier
/// (e.g. the timestamp jump between consecutive trajectories) widens at
/// most 32 values, large enough that the 2-byte-ish chunk header
/// amortizes away.
inline constexpr std::size_t kPackedChunkSize = 32;

/// \brief Appends a frame-of-reference bitpacked unsigned column: the
/// values are cut into chunks of kPackedChunkSize; each chunk stores a
/// varint reference (its minimum), one byte of bit width w, and
/// ceil(len * w / 8) bytes of (value - reference) packed LSB-first.
/// Constant runs cost ~2 bytes per chunk (w = 0 stores no payload).
void PutPackedColumn(std::string& out,
                     const std::vector<std::uint64_t>& values);

/// Decodes `n` values of a PutPackedColumn column. Corruption on a bit
/// width over 64 or truncated chunk payloads.
[[nodiscard]] Result<std::vector<std::uint64_t>> ReadPackedColumn(
    ByteReader& reader, std::size_t n);

/// Delta + zigzag + PutPackedColumn: the packed twin of PutDeltaColumn
/// (same wrap-defined mod 2^64 delta semantics, so every int64 sequence
/// round-trips exactly).
void PutPackedDeltaColumn(std::string& out,
                          const std::vector<std::int64_t>& values);

/// Decodes `n` values of a PutPackedDeltaColumn column.
[[nodiscard]] Result<std::vector<std::int64_t>> ReadPackedDeltaColumn(
    ByteReader& reader, std::size_t n);

/// Zigzag + PutPackedColumn for signed columns that are not deltas
/// (e.g. raw boundary ids where -1 means "unknown").
void PutPackedSignedColumn(std::string& out,
                           const std::vector<std::int64_t>& values);

/// Decodes `n` values of a PutPackedSignedColumn column.
[[nodiscard]] Result<std::vector<std::int64_t>> ReadPackedSignedColumn(
    ByteReader& reader, std::size_t n);

// ---------------------------------------------------------------------------
// LZ byte codec (the v3 kLz block codec, and the read-only packed+lz).
// ---------------------------------------------------------------------------

/// \brief Compresses `input` with a greedy LZ77: the stream is a
/// sequence of (varint literal length, literal bytes) groups, each
/// followed — except possibly the last — by a back-reference (varint
/// match length - 4, varint distance). Matches are at least 4 bytes and
/// may overlap their own output (RLE falls out for free). Self-framing
/// except for the decompressed size, which callers must convey.
std::string CompressBytes(std::string_view input);

/// Decompresses a CompressBytes stream into exactly `decompressed_size`
/// bytes. Corruption — never UB or unbounded allocation — on truncated
/// streams, zero or out-of-window distances, or any size mismatch.
[[nodiscard]] Result<std::string> DecompressBytes(
    std::string_view compressed, std::size_t decompressed_size);

}  // namespace sitm::storage

