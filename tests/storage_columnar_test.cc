// Byte-level edge cases for the columnar encoding primitives, with the
// varint decoder's shift-width boundaries pinned explicitly: the 10-byte
// maximum-length varint shifts its last payload by 63, one step short of
// the width of uint64 — the sanitizer matrix (SITM_SANITIZE=undefined)
// runs these to prove no decode path ever shifts by >= 64 or overflows,
// no matter what bytes a corrupt file feeds in.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/columnar.h"

namespace sitm::storage {
namespace {

std::vector<std::uint64_t> U64Corners() {
  return {0,
          1,
          0x7f,
          0x80,
          0x3fff,
          0x4000,
          (1ull << 35) - 1,
          1ull << 35,
          (1ull << 56) - 1,
          1ull << 56,
          (1ull << 63) - 1,
          1ull << 63,
          std::numeric_limits<std::uint64_t>::max()};
}

TEST(ColumnarVarintTest, RoundTripsEveryShiftBoundary) {
  for (const std::uint64_t v : U64Corners()) {
    std::string buf;
    PutVarint64(buf, v);
    ASSERT_LE(buf.size(), 10u) << v;
    ByteReader reader(buf);
    const Result<std::uint64_t> decoded = reader.ReadVarint64();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(ColumnarVarintTest, MaxValueUsesTenBytesWithTopBitOnly) {
  std::string buf;
  PutVarint64(buf, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(buf.size(), 10u);
  // The 10th byte contributes only bit 63: its payload must be 1.
  EXPECT_EQ(static_cast<unsigned char>(buf[9]), 0x01);
}

TEST(ColumnarVarintTest, TenthByteAboveOneIsCorruptionNotOverflow) {
  // 9 continuation bytes followed by a 10th whose payload would need
  // shifts past bit 63. A naive decoder shifts those bits into the void
  // (or into UB); ours must refuse the encoding.
  std::string buf(9, static_cast<char>(0x80));
  buf.push_back(static_cast<char>(0x02));
  ByteReader reader(buf);
  const Result<std::uint64_t> decoded = reader.ReadVarint64();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
}

TEST(ColumnarVarintTest, ElevenContinuationBytesIsCorruption) {
  const std::string buf(11, static_cast<char>(0x80));
  ByteReader reader(buf);
  const Result<std::uint64_t> decoded = reader.ReadVarint64();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
}

TEST(ColumnarVarintTest, TruncatedMidVarintIsCorruption) {
  std::string full;
  PutVarint64(full, 1ull << 62);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader(full.data(), cut);
    const Result<std::uint64_t> decoded = reader.ReadVarint64();
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_TRUE(decoded.status().Is(StatusCode::kCorruption));
  }
}

TEST(ColumnarZigZagTest, RoundTripsInt64Extremes) {
  const std::vector<std::int64_t> corners = {
      0,
      -1,
      1,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max() - 1};
  for (const std::int64_t v : corners) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
    std::string buf;
    PutSVarint64(buf, v);
    ByteReader reader(buf);
    const Result<std::int64_t> decoded = reader.ReadSVarint64();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
  }
}

TEST(ColumnarDeltaColumnTest, AdjacentInt64ExtremesRoundTrip) {
  // Deltas wrap mod 2^64 by design: consecutive values at the two ends
  // of the int64 range produce the largest possible wrapped deltas.
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      0,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      -1,
      1};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const Result<std::vector<std::int64_t>> decoded =
      ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarDeltaColumnTest, CraftedOverflowingDeltasDecodeDefined) {
  // A hostile column whose running sum overflows int64 repeatedly must
  // decode to *some* deterministic values (wrap semantics), never trap.
  std::string buf;
  for (int i = 0; i < 8; ++i) {
    PutSVarint64(buf, std::numeric_limits<std::int64_t>::max());
  }
  ByteReader reader(buf);
  const Result<std::vector<std::int64_t>> decoded = ReadDeltaColumn(reader, 8);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 8u);
  // Running sum of int64::max mod 2^64; spot-check the wrap landed where
  // two's-complement arithmetic says it must.
  EXPECT_EQ((*decoded)[0], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ((*decoded)[1], -2);
}

TEST(ColumnarBitColumnTest, TailBitsRoundTripAtEveryWidth) {
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<bool> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) values.push_back((i % 3) == 0);
    std::string buf;
    PutBitColumn(buf, values);
    EXPECT_EQ(buf.size(), (n + 7) / 8);
    ByteReader reader(buf);
    const Result<std::vector<bool>> decoded = ReadBitColumn(reader, n);
    ASSERT_TRUE(decoded.ok()) << n;
    EXPECT_EQ(*decoded, values);
  }
}

TEST(ColumnarFixedWidthTest, U32U64RoundTripAndTruncationChecks) {
  std::string buf;
  PutU32(buf, 0xdeadbeefu);
  PutU64(buf, 0x0123456789abcdefull);
  ByteReader reader(buf);
  const Result<std::uint32_t> u32 = reader.ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xdeadbeefu);
  const Result<std::uint64_t> u64 = reader.ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789abcdefull);

  ByteReader short_reader(buf.data(), 3);
  ASSERT_FALSE(short_reader.ReadU32().ok());
  ByteReader short_reader64(buf.data(), 7);
  ASSERT_FALSE(short_reader64.ReadU64().ok());
}

// ---------------------------------------------------------------------------
// Chunked FOR bitpacking (the v3 kPacked codec's column layer).
// ---------------------------------------------------------------------------

/// Deterministic xorshift so the property tests need no <random> and
/// reproduce bit-for-bit everywhere.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

TEST(ColumnarPackedTest, RoundTripsCornersAndRandomWidths) {
  // Corner values exercise every chunk bit width 0..64; random vectors
  // of every length around the chunk size cover the tail handling.
  std::vector<std::uint64_t> corners = U64Corners();
  std::string buf;
  PutPackedColumn(buf, corners);
  ByteReader reader(buf);
  const auto corner_decoded = ReadPackedColumn(reader, corners.size());
  ASSERT_TRUE(corner_decoded.ok()) << corner_decoded.status();
  EXPECT_EQ(*corner_decoded, corners);
  EXPECT_TRUE(reader.empty());

  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (const std::size_t n :
       {0ul, 1ul, kPackedChunkSize - 1, kPackedChunkSize, kPackedChunkSize + 1,
        3 * kPackedChunkSize + 7}) {
    for (const int width : {1, 7, 13, 31, 64}) {
      std::vector<std::uint64_t> values(n);
      const std::uint64_t mask =
          width == 64 ? ~0ull : (1ull << width) - 1;
      for (auto& v : values) v = NextRand(state) & mask;
      std::string packed;
      PutPackedColumn(packed, values);
      ByteReader packed_reader(packed);
      const auto decoded = ReadPackedColumn(packed_reader, n);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(*decoded, values) << "n=" << n << " width=" << width;
      EXPECT_TRUE(packed_reader.empty());
    }
  }
}

TEST(ColumnarPackedTest, ConstantRunsPackToReferenceOnly) {
  // A constant chunk has bit width 0: only the reference varint and the
  // width byte remain, the whole point of frame-of-reference packing.
  const std::vector<std::uint64_t> values(kPackedChunkSize, 123456789ull);
  std::string buf;
  PutPackedColumn(buf, values);
  EXPECT_LE(buf.size(), 6u);
  ByteReader reader(buf);
  const auto decoded = ReadPackedColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
}

TEST(ColumnarPackedTest, DeltaAndSignedVariantsRoundTripExtremes) {
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      0,
      -1,
      1,
      std::numeric_limits<std::int64_t>::min(),
      42};
  std::string delta;
  PutPackedDeltaColumn(delta, values);
  ByteReader delta_reader(delta);
  const auto delta_decoded = ReadPackedDeltaColumn(delta_reader,
                                                   values.size());
  ASSERT_TRUE(delta_decoded.ok()) << delta_decoded.status();
  EXPECT_EQ(*delta_decoded, values);

  std::string zz;
  PutPackedSignedColumn(zz, values);
  ByteReader zz_reader(zz);
  const auto zz_decoded = ReadPackedSignedColumn(zz_reader, values.size());
  ASSERT_TRUE(zz_decoded.ok()) << zz_decoded.status();
  EXPECT_EQ(*zz_decoded, values);
}

TEST(ColumnarPackedTest, TruncationAndBadWidthAreCorruption) {
  std::vector<std::uint64_t> values(kPackedChunkSize + 3, 0);
  std::uint64_t state = 7;
  for (auto& v : values) v = NextRand(state);
  std::string buf;
  PutPackedColumn(buf, values);
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader reader(buf.data(), cut);
    EXPECT_EQ(ReadPackedColumn(reader, values.size()).status().code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
  }
  // A forged chunk bit width above 64 can never be honest.
  std::string forged = buf;
  std::size_t width_at = 0;  // first chunk: varint reference, then width
  while (static_cast<unsigned char>(forged[width_at]) & 0x80) ++width_at;
  ++width_at;
  forged[width_at] = 65;
  ByteReader forged_reader(forged);
  EXPECT_EQ(ReadPackedColumn(forged_reader, values.size()).status().code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// LZ byte codec (the byte layer of the v3 kLz codec and of the
// read-only packed+lz codec).
// ---------------------------------------------------------------------------

std::vector<std::string> LzCorpus() {
  std::vector<std::string> corpus;
  corpus.emplace_back();                      // empty
  corpus.emplace_back("a");                   // below min match
  corpus.emplace_back(std::string(100, 'x'));  // pure run (self-overlap)
  corpus.push_back([] {                       // page of repeating records
    std::string s;
    for (int i = 0; i < 200; ++i) {
      s += "object=" + std::to_string(i % 17) + ";cell=" +
           std::to_string(i % 23) + ";";
    }
    return s;
  }());
  corpus.push_back([] {  // incompressible pseudo-random bytes
    std::string s;
    std::uint64_t state = 0xdeadbeefcafef00dull;
    for (int i = 0; i < 4096; ++i) {
      s.push_back(static_cast<char>(NextRand(state) & 0xff));
    }
    return s;
  }());
  corpus.push_back([] {  // long-range repeat straddling the 64KB window
    std::string s(70000, '\0');
    std::uint64_t state = 3;
    for (auto& c : s) c = static_cast<char>(NextRand(state) & 0x0f);
    s += s.substr(0, 3000);
    return s;
  }());
  return corpus;
}

TEST(ColumnarLzTest, RoundTripsCorpusLosslessly) {
  for (const std::string& input : LzCorpus()) {
    const std::string compressed = CompressBytes(input);
    const auto decompressed = DecompressBytes(compressed, input.size());
    ASSERT_TRUE(decompressed.ok()) << decompressed.status();
    EXPECT_EQ(*decompressed, input);
  }
}

TEST(ColumnarLzTest, RepetitiveInputActuallyCompresses) {
  const std::string input(LzCorpus()[3]);  // repeating records
  EXPECT_LT(CompressBytes(input).size(), input.size() / 2);
}

TEST(ColumnarLzTest, EveryTruncationIsCorruption) {
  // A truncated stream either cuts a literal run / match token (bounds
  // check) or ends early (declared-size check) — always Corruption.
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  for (std::size_t cut = 0; cut < compressed.size(); ++cut) {
    const auto decompressed =
        DecompressBytes(compressed.substr(0, cut), input.size());
    EXPECT_EQ(decompressed.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(ColumnarLzTest, WrongDeclaredSizeIsCorruption) {
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  EXPECT_EQ(DecompressBytes(compressed, input.size() - 1).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecompressBytes(compressed, input.size() + 1).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecompressBytes(compressed, 0).status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnarLzTest, BitFlippedStreamsNeverMisbehave) {
  // A flipped byte may still decode (a literal changed in place) but the
  // decoder must never crash, over-read, or return the wrong size.
  const std::string input = LzCorpus()[3];
  const std::string compressed = CompressBytes(input);
  for (std::size_t pos = 0; pos < compressed.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string flipped = compressed;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      const auto decompressed = DecompressBytes(flipped, input.size());
      if (decompressed.ok()) {
        EXPECT_EQ(decompressed->size(), input.size());
      } else {
        EXPECT_EQ(decompressed.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(ColumnarLzTest, ForgedDistanceAndLengthAreCorruption) {
  // Hand-built streams hitting each decoder guard: distance 0, distance
  // beyond the produced window, and runs overflowing the declared size.
  std::string zero_distance;
  PutVarint64(zero_distance, 4);
  zero_distance += "abcd";
  PutVarint64(zero_distance, 0);  // match length 4
  PutVarint64(zero_distance, 0);  // distance 0: invalid
  EXPECT_EQ(DecompressBytes(zero_distance, 8).status().code(),
            StatusCode::kCorruption);

  std::string far_distance;
  PutVarint64(far_distance, 4);
  far_distance += "abcd";
  PutVarint64(far_distance, 0);
  PutVarint64(far_distance, 5);  // only 4 bytes produced so far
  EXPECT_EQ(DecompressBytes(far_distance, 8).status().code(),
            StatusCode::kCorruption);

  std::string fat_literal;
  PutVarint64(fat_literal, 100);  // literal run beyond declared size
  fat_literal += std::string(100, 'z');
  EXPECT_EQ(DecompressBytes(fat_literal, 10).status().code(),
            StatusCode::kCorruption);

  std::string fat_match;
  PutVarint64(fat_match, 4);
  fat_match += "abcd";
  PutVarint64(fat_match, 1u << 20);  // match overflowing declared size
  PutVarint64(fat_match, 1);
  EXPECT_EQ(DecompressBytes(fat_match, 16).status().code(),
            StatusCode::kCorruption);
}

/// The columns of one trajectory block in the EventStore writer's layout
/// (per trajectory: id, object, dictionary id, rows; per row: cell,
/// transition, start, duration, stay and transition dictionary ids),
/// over 2000 seeded visits of 2-6 stays, bitpacked or as varints.
std::string TrajectoryBlock(bool packed) {
  std::uint64_t state = 0x5eed5eedull;
  std::vector<std::int64_t> ids, objects, cells, transitions, starts;
  std::vector<std::uint64_t> traj_dicts, rows, durations, stays, moves;
  std::int64_t clock = 1700000000;
  for (int t = 0; t < 2000; ++t) {
    ids.push_back(t + 1);
    objects.push_back(1 + t / 3 +
                      static_cast<std::int64_t>(NextRand(state) % 2));
    traj_dicts.push_back(NextRand(state) % 2);
    const std::uint64_t n = 2 + NextRand(state) % 5;
    rows.push_back(n);
    clock += static_cast<std::int64_t>(NextRand(state) % 600);
    std::int64_t at = clock;
    for (std::uint64_t r = 0; r < n; ++r) {
      cells.push_back(1 + static_cast<std::int64_t>(NextRand(state) % 60));
      transitions.push_back(
          r == 0 ? -1 : static_cast<std::int64_t>(NextRand(state) % 90));
      const std::uint64_t stay = 30 + NextRand(state) % 1800;
      starts.push_back(at);
      durations.push_back(stay);
      at += static_cast<std::int64_t>(stay) + 1;
      stays.push_back(2 + NextRand(state) % 4);
      moves.push_back(r == 0 ? 0 : 6 + NextRand(state) % 2);
    }
  }
  std::string block;
  const auto put_delta = packed ? PutPackedDeltaColumn : PutDeltaColumn;
  const auto put_unsigned = packed ? PutPackedColumn : PutVarintColumn;
  put_delta(block, ids);
  put_delta(block, objects);
  put_unsigned(block, traj_dicts);
  put_unsigned(block, rows);
  put_delta(block, cells);
  if (packed) {
    PutPackedSignedColumn(block, transitions);
  } else {
    for (const std::int64_t t : transitions) PutSVarint64(block, t);
  }
  put_delta(block, starts);
  put_unsigned(block, durations);
  put_unsigned(block, stays);
  put_unsigned(block, moves);
  return block;
}

TEST(ColumnarLzTest, CompressedBytesMatchPinnedGoldens) {
  // The LZ parse (hash chains, lazy matching, nearest-wins ties) is part
  // of the v3 file format's bytes: a faster matcher must emit exactly
  // these streams. FNV-1a of the compressed output over fixed corpora.
  std::string random(1 << 16, '\0');
  std::uint64_t state = 0x0123456789abcdefull;
  for (auto& c : random) c = static_cast<char>(NextRand(state) & 0xff);
  struct Golden {
    const char* name;
    std::string input;
    std::uint64_t checksum;
  };
  const Golden goldens[] = {
      {"zero run", std::string(200000, '\0'), 0xac2c9e3ef52417caull},
      {"seeded random", random, 0x44d0b010e381fcf2ull},
      {"packed block", TrajectoryBlock(/*packed=*/true), 0x27e8319320dcdb2bull},
      {"raw block", TrajectoryBlock(/*packed=*/false), 0x0028f91b05fbbf47ull},
      {"long-range repeat", LzCorpus()[5], 0x94240f839e32b133ull},
  };
  for (const Golden& golden : goldens) {
    const std::string compressed = CompressBytes(golden.input);
    EXPECT_EQ(Checksum(compressed), golden.checksum)
        << golden.name << " (" << golden.input.size() << " -> "
        << compressed.size() << " bytes)";
    const auto decompressed = DecompressBytes(compressed, golden.input.size());
    ASSERT_TRUE(decompressed.ok()) << decompressed.status();
    EXPECT_EQ(*decompressed, golden.input) << golden.name;
  }
}

}  // namespace
}  // namespace sitm::storage
