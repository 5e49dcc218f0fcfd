#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sched/executor.h"
#include "core/pipeline.h"
#include "io/csv.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "storage/columnar.h"
#include "storage/event_store.h"

namespace sitm::storage {
namespace {

// ---------------------------------------------------------------------------
// Columnar encoding primitives.
// ---------------------------------------------------------------------------

TEST(ColumnarTest, VarintRoundTrip) {
  std::string buf;
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 300, (1ull << 32), ~0ull};
  for (std::uint64_t v : values) PutVarint64(buf, v);
  ByteReader reader(buf);
  for (std::uint64_t v : values) {
    const auto decoded = reader.ReadVarint64();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarTest, ZigZagRoundTrip) {
  for (std::int64_t v : {std::int64_t(0), std::int64_t(-1), std::int64_t(1),
                         std::int64_t(-123456789), std::int64_t(1) << 62,
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
}

TEST(ColumnarTest, DeltaColumnRoundTrip) {
  const std::vector<std::int64_t> values = {100, 101, 101, 90, -5, 1000000};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const auto decoded = ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
}

TEST(ColumnarTest, DeltaColumnExtremeValuesRoundTrip) {
  // Adjacent values at the two ends of the int64 range: the deltas wrap
  // mod 2^64 and must still round-trip exactly (and never be UB).
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(), 0,
      std::numeric_limits<std::int64_t>::max()};
  std::string buf;
  PutDeltaColumn(buf, values);
  ByteReader reader(buf);
  const auto decoded = ReadDeltaColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
  EXPECT_TRUE(reader.empty());
}

TEST(ColumnarTest, BitColumnRoundTrip) {
  const std::vector<bool> values = {true, false, false, true, true,
                                    false, true, false, true};
  std::string buf;
  PutBitColumn(buf, values);
  EXPECT_EQ(buf.size(), 2u);
  ByteReader reader(buf);
  const auto decoded = ReadBitColumn(reader, values.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, values);
}

TEST(ColumnarTest, TruncatedReadsAreCorruption) {
  std::string buf;
  PutVarint64(buf, 1u << 20);
  buf.pop_back();
  ByteReader reader(buf);
  EXPECT_EQ(reader.ReadVarint64().status().code(), StatusCode::kCorruption);
  ByteReader empty("", 0);
  EXPECT_EQ(empty.ReadU64().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(empty.ReadBytes(1).status().code(), StatusCode::kCorruption);
}

TEST(ColumnarTest, OverlongVarintIsCorruption) {
  // 11 continuation bytes can never be a valid 64-bit varint.
  const std::string buf(11, '\x80');
  ByteReader reader(buf);
  EXPECT_EQ(reader.ReadVarint64().status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// EventStore fixtures.
// ---------------------------------------------------------------------------

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map =
      new louvre::LouvreMap(louvre::LouvreMap::Build().value());
  return *map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

std::vector<core::RawDetection> SimulatedDetections(std::uint64_t seed,
                                                    int visitors = 150) {
  louvre::SimulatorOptions options;
  options.seed = seed;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return dataset->ToRawDetections();
}

core::PipelineOptions FullPipelineOptions() {
  core::PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateWhereAttribute("requiresTicket", "true",
                                   {core::AnnotationKind::kOther, "ticketed"}),
      core::AnnotateFinalExit(Map().exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  return options;
}

std::vector<core::SemanticTrajectory> BuildTrajectories(
    std::vector<core::RawDetection> detections) {
  core::BatchPipeline pipeline(FullPipelineOptions());
  auto result = pipeline.Run(std::move(detections));
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

std::string TempPath(const std::string& name) {
  // Pid-suffixed: gtest_discover_tests runs every TEST as its own ctest
  // entry, so concurrent test processes share TempDir — a bare shared
  // name lets one process's TearDown unlink a file another process is
  // mid-SetUp on (seen as flakes under TSan's slowdown).
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

void ExpectTrajectoriesEqual(
    const std::vector<core::SemanticTrajectory>& expected,
    const std::vector<core::SemanticTrajectory>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const core::SemanticTrajectory& a = expected[i];
    const core::SemanticTrajectory& b = actual[i];
    EXPECT_EQ(a.id(), b.id()) << i;
    EXPECT_EQ(a.object(), b.object()) << i;
    EXPECT_EQ(a.annotations(), b.annotations()) << i;
    ASSERT_EQ(a.trace().size(), b.trace().size()) << i;
    for (std::size_t k = 0; k < a.trace().size(); ++k) {
      EXPECT_EQ(a.trace().at(k), b.trace().at(k)) << i << "/" << k;
    }
  }
}

Status WriteTrajectoryStore(const std::string& path,
                            const std::vector<core::SemanticTrajectory>& ts,
                            WriterOptions options = {}) {
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories,
                                         options);
  SITM_RETURN_IF_ERROR(writer.status());
  SITM_RETURN_IF_ERROR(writer->Append(ts));
  return writer->Finish();
}

Status WriteDetectionStore(const std::string& path,
                           const std::vector<core::RawDetection>& ds,
                           WriterOptions options = {}) {
  auto writer =
      EventStoreWriter::Create(path, StoreKind::kDetections, options);
  SITM_RETURN_IF_ERROR(writer.status());
  SITM_RETURN_IF_ERROR(writer->Append(ds));
  return writer->Finish();
}

/// A fixed dataset for the byte-identity goldens: 7 trajectories over 5
/// objects with shared and distinct annotations, an inferred tuple, and
/// named transitions. Do not change it: the v3 goldens below and the
/// checked-in tests/data/ fixtures were made from it, and the writer can
/// no longer produce the fixtures' formats.
std::vector<core::SemanticTrajectory> GoldenTrajectories() {
  std::vector<core::SemanticTrajectory> out;
  for (int t = 0; t < 7; ++t) {
    core::Trace trace;
    const int rows = 2 + (t * 3) % 5;
    const std::int64_t base = 1000000 + t * 7777;
    for (int r = 0; r < rows; ++r) {
      core::PresenceInterval p;
      p.transition = (r % 3 == 1) ? BoundaryId(40 + r) : BoundaryId();
      p.cell = CellId((t * 11 + r * 5) % 23);
      p.interval =
          qsr::TimeInterval::Make(Timestamp(base + r * 60),
                                  Timestamp(base + r * 60 + 30 + r))
              .value();
      if (r % 2 == 0) {
        p.annotations.Add({core::AnnotationKind::kActivity, "stop"});
      } else {
        p.annotations.Add({core::AnnotationKind::kBehavior, "move"});
      }
      if (t % 3 == 0 && r == 0) {
        p.annotations.Add({core::AnnotationKind::kGoal, "visit"});
      }
      if (r % 4 == 3) {
        p.transition_annotations.Add({core::AnnotationKind::kOther, "door"});
      }
      p.inferred = (t == 2 && r == 1);
      trace.Append(p);
    }
    core::AnnotationSet traj_ann;
    traj_ann.Add({core::AnnotationKind::kActivity, t % 2 ? "tour" : "work"});
    out.emplace_back(TrajectoryId(t), ObjectId(t % 5), std::move(trace),
                     std::move(traj_ann));
  }
  return out;
}

/// Stores of GoldenTrajectories() in the formats the writer no longer
/// emits, checked in under tests/data/. They were written by the last
/// writer able to produce them; the checksums pin their bytes, so the
/// v1/v2 footers and the packed+lz codec (id 3) keep reader coverage.
struct LegacyFixture {
  const char* file;
  std::uint32_t version;
  std::size_t rows_per_block;
  std::uint64_t checksum;
};

constexpr LegacyFixture kLegacyFixtures[] = {
    {"golden_v1_rpb3.evst", 1, 3, 0x71df166c06b47831ull},
    {"golden_v1_rpb4096.evst", 1, 4096, 0x6bf1f71ef7d37ad1ull},
    {"golden_v2_rpb3.evst", 2, 3, 0x72c00a0f6e4a2625ull},
    {"golden_v2_rpb4096.evst", 2, 4096, 0xc24024e8c4324573ull},
    {"golden_v3_packed_lz_rpb3.evst", 3, 3, 0xda80c33ce9ee3f5aull},
    {"golden_v3_packed_lz_rpb4096.evst", 3, 4096, 0x7d84d1d311e00d28ull},
};

std::string FixturePath(const char* file) {
  return std::string(SITM_TEST_DATA_DIR) + "/" + file;
}

std::string FixtureBytes(const char* file) {
  const auto bytes = io::ReadFile(FixturePath(file));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

// ---------------------------------------------------------------------------
// Roundtrip property tests.
// ---------------------------------------------------------------------------

TEST(EventStoreRoundTripTest, RandomDatasetsRoundTripLosslessly) {
  // Property: for random VisitSimulator datasets, pipeline output written
  // to a store and read back is identical, for several block sizes.
  for (const std::uint64_t seed : {1u, 7u, 20170119u}) {
    const auto trajectories = BuildTrajectories(SimulatedDetections(seed));
    ASSERT_FALSE(trajectories.empty());
    for (const std::size_t rows_per_block : {16ul, 4096ul}) {
      const std::string path = TempPath("roundtrip.evst");
      WriterOptions options;
      options.rows_per_block = rows_per_block;
      ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
      const auto reader = EventStoreReader::Open(path);
      ASSERT_TRUE(reader.ok()) << reader.status();
      EXPECT_EQ(reader->kind(), StoreKind::kTrajectories);
      EXPECT_EQ(reader->trajectories(), trajectories.size());
      const auto restored = reader->ReadTrajectories();
      ASSERT_TRUE(restored.ok()) << restored.status();
      ExpectTrajectoriesEqual(trajectories, *restored);
      std::remove(path.c_str());
    }
  }
}

TEST(EventStoreRoundTripTest, DetectionsRoundTripLosslessly) {
  const auto detections = SimulatedDetections(42);
  const std::string path = TempPath("detections.evst");
  WriterOptions options;
  options.rows_per_block = 128;
  ASSERT_TRUE(WriteDetectionStore(path, detections, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->kind(), StoreKind::kDetections);
  EXPECT_EQ(reader->rows(), detections.size());
  EXPECT_GT(reader->num_blocks(), 1u);
  const auto restored = reader->ReadDetections();
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), detections.size());
  for (std::size_t i = 0; i < detections.size(); ++i) {
    EXPECT_EQ((*restored)[i].object, detections[i].object) << i;
    EXPECT_EQ((*restored)[i].cell, detections[i].cell) << i;
    EXPECT_EQ((*restored)[i].start, detections[i].start) << i;
    EXPECT_EQ((*restored)[i].end, detections[i].end) << i;
  }
  std::remove(path.c_str());
}

TEST(EventStoreRoundTripTest, PipelineConsumesStraightFromStore) {
  // Store raw detections, run the pipeline off the store, and compare
  // with the pipeline over the in-memory batch: byte-identical.
  const auto detections = SimulatedDetections(99);
  const auto expected = BuildTrajectories(detections);
  const std::string path = TempPath("pipeline_source.evst");
  ASSERT_TRUE(WriteDetectionStore(path, detections).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto detections_from_store = reader->ReadDetections();
  ASSERT_TRUE(detections_from_store.ok()) << detections_from_store.status();
  core::BatchPipeline pipeline(FullPipelineOptions());
  const auto from_store = pipeline.Run(std::move(detections_from_store).value());
  ASSERT_TRUE(from_store.ok()) << from_store.status();
  ExpectTrajectoriesEqual(expected, *from_store);
  std::remove(path.c_str());
}

TEST(EventStoreRoundTripTest, ParallelEncodingIsByteIdentical) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(5));
  const std::string seq_path = TempPath("seq.evst");
  const std::string par_path = TempPath("par.evst");
  WriterOptions seq_options;
  seq_options.rows_per_block = 64;
  ASSERT_TRUE(WriteTrajectoryStore(seq_path, trajectories, seq_options).ok());
  sched::Executor executor(3);
  WriterOptions par_options;
  par_options.rows_per_block = 64;
  par_options.executor = &executor;
  ASSERT_TRUE(WriteTrajectoryStore(par_path, trajectories, par_options).ok());
  const auto seq_bytes = io::ReadFile(seq_path);
  const auto par_bytes = io::ReadFile(par_path);
  ASSERT_TRUE(seq_bytes.ok());
  ASSERT_TRUE(par_bytes.ok());
  EXPECT_EQ(*seq_bytes, *par_bytes);
  std::remove(seq_path.c_str());
  std::remove(par_path.c_str());
}

TEST(EventStoreRoundTripTest, MultipleBatchesAccumulate) {
  const auto a = BuildTrajectories(SimulatedDetections(11));
  const auto b = BuildTrajectories(SimulatedDetections(12));
  const std::string path = TempPath("batches.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(a).ok());
  ASSERT_TRUE(writer->Append(b).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok()) << restored.status();
  std::vector<core::SemanticTrajectory> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  ExpectTrajectoriesEqual(expected, *restored);
  std::remove(path.c_str());
}

TEST(EventStoreRoundTripTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->num_blocks(), 0u);
  const auto restored = reader->ReadTrajectories();
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Predicate pushdown.
// ---------------------------------------------------------------------------

TEST(EventStoreScanTest, ObjectPushdownMatchesPostFilter) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(3));
  const std::string path = TempPath("scan_object.evst");
  WriterOptions options;
  options.rows_per_block = 32;  // many blocks -> real pruning
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_GT(reader->num_blocks(), 3u);

  const ObjectId target = trajectories[trajectories.size() / 2].object();
  ScanOptions scan;
  scan.objects = {target};
  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (t.object() == target) expected.push_back(t);
  }
  ExpectTrajectoriesEqual(expected, *scanned);

  // The footer stats must actually prune blocks for a single object.
  std::size_t matching_blocks = 0;
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    matching_blocks += reader->BlockMatches(i, scan) ? 1 : 0;
  }
  EXPECT_LT(matching_blocks, reader->num_blocks());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, TimeRangePushdownMatchesPostFilter) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(8));
  const std::string path = TempPath("scan_time.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Window around the middle of the dataset's span.
  std::int64_t min_t = trajectories.front().start().seconds_since_epoch();
  std::int64_t max_t = min_t;
  for (const auto& t : trajectories) {
    min_t = std::min(min_t, t.start().seconds_since_epoch());
    max_t = std::max(max_t, t.end().seconds_since_epoch());
  }
  ScanOptions scan;
  scan.min_time = Timestamp(min_t + (max_t - min_t) / 3);
  scan.max_time = Timestamp(min_t + 2 * (max_t - min_t) / 3);
  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (t.end() >= *scan.min_time && t.start() <= *scan.max_time) {
      expected.push_back(t);
    }
  }
  ASSERT_FALSE(expected.empty());
  ExpectTrajectoriesEqual(expected, *scanned);
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, DetectionScanFiltersRowWise) {
  const auto detections = SimulatedDetections(17);
  const std::string path = TempPath("scan_rows.evst");
  WriterOptions options;
  options.rows_per_block = 64;
  ASSERT_TRUE(WriteDetectionStore(path, detections, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ScanOptions scan;
  const ObjectId scan_object = detections[detections.size() / 2].object;
  scan.objects = {scan_object};
  const auto scanned = reader->ReadDetections(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::size_t expected = 0;
  for (const auto& d : detections) expected += d.object == scan_object;
  EXPECT_EQ(scanned->size(), expected);
  for (const auto& d : *scanned) EXPECT_EQ(d.object, scan_object);
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, TimeRangeInclusiveAtBlockBoundaries) {
  // Two-row blocks with known timestamps: block 0 = [100,110],[120,130],
  // block 1 = [130,140],[150,160], block 2 = [200,210]. Tuples exactly
  // at a block's min/max timestamp must match a window touching them at
  // a single instant (closed-interval, inclusive-bound semantics).
  const ObjectId object(7);
  const CellId cell(1);
  const std::vector<core::RawDetection> detections = {
      {object, cell, Timestamp(100), Timestamp(110)},
      {object, cell, Timestamp(120), Timestamp(130)},
      {object, cell, Timestamp(130), Timestamp(140)},
      {object, cell, Timestamp(150), Timestamp(160)},
      {object, cell, Timestamp(200), Timestamp(210)},
  };
  const std::string path = TempPath("scan_boundaries.evst");
  WriterOptions options;
  options.rows_per_block = 2;
  ASSERT_TRUE(WriteDetectionStore(path, detections, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->num_blocks(), 3u);
  ASSERT_EQ(reader->block(0).max_time, 130);
  ASSERT_EQ(reader->block(1).min_time, 130);

  // Window [130, 130]: exactly block 0's max and block 1's min. Both
  // blocks survive pruning; the two touching tuples match.
  ScanOptions scan;
  scan.min_time = Timestamp(130);
  scan.max_time = Timestamp(130);
  EXPECT_TRUE(reader->BlockMatches(0, scan));
  EXPECT_TRUE(reader->BlockMatches(1, scan));
  EXPECT_FALSE(reader->BlockMatches(2, scan));
  auto scanned = reader->ReadDetections(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ASSERT_EQ(scanned->size(), 2u);
  EXPECT_EQ((*scanned)[0].start, Timestamp(120));
  EXPECT_EQ((*scanned)[1].start, Timestamp(130));

  // Window ending exactly at the last block's min: inclusive there too.
  scan.min_time = Timestamp(161);
  scan.max_time = Timestamp(200);
  scanned = reader->ReadDetections(scan);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 1u);
  EXPECT_EQ((*scanned)[0].start, Timestamp(200));

  // A window in the gap between blocks matches nothing.
  scan.min_time = Timestamp(161);
  scan.max_time = Timestamp(199);
  scanned = reader->ReadDetections(scan);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->empty());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, InvertedWindowMatchesNothing) {
  // Regression: a row spanning the inversion gap (end >= min_time and
  // start <= max_time despite max < min) used to pass both one-sided
  // tests. The empty window must match no row and no block.
  const ObjectId object(3);
  const CellId cell(2);
  const std::vector<core::RawDetection> detections = {
      {object, cell, Timestamp(100), Timestamp(300)},  // spans [150, 200]
      {object, cell, Timestamp(120), Timestamp(130)},
  };
  const std::string path = TempPath("scan_inverted.evst");
  ASSERT_TRUE(WriteDetectionStore(path, detections).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ScanOptions scan;
  scan.min_time = Timestamp(200);
  scan.max_time = Timestamp(150);
  ASSERT_TRUE(scan.EmptyWindow());
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    EXPECT_FALSE(reader->BlockMatches(i, scan));
  }
  EXPECT_TRUE(reader->CandidateBlocks(scan).empty());
  const auto scanned = reader->ReadDetections(scan);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Secondary object-id index (format v2).
// ---------------------------------------------------------------------------

TEST(EventStoreObjectIndexTest, PostingListsPruneBlocksExactly) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(31));
  const std::string path = TempPath("object_index.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), kStoreVersion);
  ASSERT_TRUE(reader->has_object_index());
  ASSERT_GT(reader->num_blocks(), 4u);

  for (std::size_t pick : {std::size_t{0}, trajectories.size() / 2,
                           trajectories.size() - 1}) {
    const ObjectId target = trajectories[pick].object();
    ScanOptions scan;
    scan.objects = {target};
    // The posting list must be a subset of what min/max pruning admits,
    // and scanning only it must still find every match.
    const std::vector<std::size_t> candidates = reader->CandidateBlocks(scan);
    std::size_t min_max_blocks = 0;
    for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
      min_max_blocks += reader->BlockMatches(i, scan) ? 1 : 0;
    }
    EXPECT_LE(candidates.size(), min_max_blocks);
    const auto scanned = reader->ReadTrajectories(scan);
    ASSERT_TRUE(scanned.ok()) << scanned.status();
    std::vector<core::SemanticTrajectory> expected;
    for (const auto& t : trajectories) {
      if (t.object() == target) expected.push_back(t);
    }
    ExpectTrajectoriesEqual(expected, *scanned);
  }

  // An object id the store never saw: the index answers "no blocks"
  // without touching any payload.
  ScanOptions missing;
  missing.objects = {ObjectId(1u << 30)};
  EXPECT_TRUE(reader->CandidateBlocks(missing).empty());
  const auto none = reader->ReadTrajectories(missing);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  std::remove(path.c_str());
}

TEST(EventStoreObjectIndexTest, Version1FilesStayReadable) {
  // The same trajectories as a v1 file (no sections) and a v2 file
  // (object index), both cut into 3-row blocks.
  const auto v1 = EventStoreReader::Open(FixturePath("golden_v1_rpb3.evst"));
  const auto v2 = EventStoreReader::Open(FixturePath("golden_v2_rpb3.evst"));
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_FALSE(v1->has_object_index());
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_TRUE(v2->has_object_index());
  ASSERT_GT(v1->num_blocks(), 2u);

  // Same data, same answers — with and without the index, for full
  // scans and for point lookups.
  const auto trajectories = GoldenTrajectories();
  const auto v1_all = v1->ReadTrajectories();
  const auto v2_all = v2->ReadTrajectories();
  ASSERT_TRUE(v1_all.ok() && v2_all.ok());
  ExpectTrajectoriesEqual(trajectories, *v1_all);
  ExpectTrajectoriesEqual(*v1_all, *v2_all);
  for (const auto& target : trajectories) {
    const ScanOptions scan = ScanOptions::ForObject(target.object());
    const auto v1_point = v1->ReadTrajectories(scan);
    const auto v2_point = v2->ReadTrajectories(scan);
    ASSERT_TRUE(v1_point.ok() && v2_point.ok());
    ExpectTrajectoriesEqual(*v1_point, *v2_point);
    // v1 falls back to min/max pruning: its candidates are exactly the
    // blocks whose footer stats admit the object, and the v2 posting
    // list never needs more.
    std::vector<std::size_t> min_max;
    for (std::size_t i = 0; i < v1->num_blocks(); ++i) {
      if (v1->BlockMatches(i, scan)) min_max.push_back(i);
    }
    EXPECT_EQ(v1->CandidateBlocks(scan), min_max);
    EXPECT_LE(v2->CandidateBlocks(scan).size(), min_max.size());
  }
}

TEST(EventStoreObjectIndexTest, ForgedPostingBlockIsCorruption) {
  // A forged index that names a nonexistent block must be rejected even
  // when the footer checksum is made consistent again. One object, one
  // block: the final footer byte is that object's single posting delta.
  const ObjectId object(5);
  const CellId cell(1);
  const std::vector<core::RawDetection> detections = {
      {object, cell, Timestamp(100), Timestamp(110)},
      {object, cell, Timestamp(120), Timestamp(130)},
  };
  const std::string path = TempPath("forged_index.evst");
  ASSERT_TRUE(WriteDetectionStore(path, detections).ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  std::string bytes = *bytes_result;

  // Trailer: footer offset u64, length u64, checksum u64, magic.
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  ASSERT_EQ(bytes[footer_offset + footer_length - 1], 0)  // posting delta 0
      << "test assumes the posting delta is the footer's last byte";
  bytes[footer_offset + footer_length - 1] = 9;  // block 9 of 1
  std::string fixed_checksum;
  PutU64(fixed_checksum,
         Checksum(std::string_view(bytes).substr(footer_offset,
                                                 footer_length)));
  bytes.replace(trailer_at + 16, 8, fixed_checksum);

  const std::string forged_path = TempPath("forged_index_variant.evst");
  ASSERT_TRUE(io::WriteFile(forged_path, bytes).ok());
  const auto reader = EventStoreReader::Open(forged_path);
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
  std::remove(forged_path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption: truncation, bit flips, bad metadata. Never UB, always a
// Corruption status.
// ---------------------------------------------------------------------------

class EventStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.evst");
    const auto trajectories = BuildTrajectories(SimulatedDetections(23, 60));
    WriterOptions options;
    options.rows_per_block = 64;
    ASSERT_TRUE(WriteTrajectoryStore(path_, trajectories, options).ok());
    const auto bytes = io::ReadFile(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `content` to the store path and returns the status of a full
  /// open + checksum verify + scan.
  Status OpenAndScan(const std::string& content) {
    const std::string path = TempPath("corrupt_variant.evst");
    if (!io::WriteFile(path, content).ok()) {
      return Status::Internal("test setup: cannot write variant");
    }
    Status status = Status::OK();
    auto reader = EventStoreReader::Open(path);
    if (!reader.ok()) {
      status = reader.status();
    } else {
      status = reader->VerifyChecksums();
      if (status.ok()) status = reader->ReadTrajectories().status();
    }
    std::remove(path.c_str());
    return status;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(EventStoreCorruptionTest, TruncationIsCorruption) {
  // Any prefix of a store file must fail cleanly — trailer magic, footer
  // bounds, or block checksum, depending on the cut.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(bytes_.size()) * fraction);
    const Status status = OpenAndScan(bytes_.substr(0, cut));
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut at " << cut;
  }
}

TEST_F(EventStoreCorruptionTest, BadChecksumIsCorruption) {
  // Flip one byte in the middle of the first block's payload.
  std::string flipped = bytes_;
  flipped[kStoreHeaderSize + 3] =
      static_cast<char>(flipped[kStoreHeaderSize + 3] ^ 0x40);
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, WrongVersionIsCorruption) {
  std::string flipped = bytes_;
  flipped[8] = 99;  // version field follows the 8-byte magic
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, WrongMagicIsCorruption) {
  std::string flipped = bytes_;
  flipped[0] = 'X';
  EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption);
  // A non-store file entirely.
  EXPECT_EQ(OpenAndScan(std::string(4096, 'z')).code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCorruptionTest, EveryByteFlipIsDetected) {
  // Single-byte corruption anywhere — header, block payloads, footer,
  // trailer — must surface as Corruption somewhere in open/verify/scan.
  const std::size_t step = std::max<std::size_t>(1, bytes_.size() / 64);
  for (std::size_t pos = 0; pos < bytes_.size(); pos += step) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    const Status status = OpenAndScan(flipped);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "undetected flip at byte " << pos;
  }
}

// The truncation and byte-flip sweeps again, over every old-format
// fixture: a v1 footer with no sections, a v2 section area without
// bitmaps, and codec-3 (packed+lz) blocks. The fixtures are a few
// hundred bytes, so every cut and every byte is tried.

TEST_F(EventStoreCorruptionTest, LegacyFixtureTruncationIsCorruption) {
  for (const LegacyFixture& fixture : kLegacyFixtures) {
    const std::string bytes = FixtureBytes(fixture.file);
    ASSERT_FALSE(bytes.empty()) << fixture.file;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_EQ(OpenAndScan(bytes.substr(0, cut)).code(),
                StatusCode::kCorruption)
          << fixture.file << " cut at " << cut;
    }
  }
}

TEST_F(EventStoreCorruptionTest, LegacyFixtureByteFlipsAreCorruption) {
  for (const LegacyFixture& fixture : kLegacyFixtures) {
    const std::string bytes = FixtureBytes(fixture.file);
    ASSERT_FALSE(bytes.empty()) << fixture.file;
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
      EXPECT_EQ(OpenAndScan(flipped).code(), StatusCode::kCorruption)
          << fixture.file << " undetected flip at byte " << pos;
    }
  }
}

TEST_F(EventStoreCorruptionTest, LegacyFixtureRepairedFlipsNeverMisbehave) {
  // Flips inside each fixture block with the block and footer checksums
  // repaired, so the old column layouts and the codec-3 decoder see the
  // damage themselves: OK (a flip into another valid value) or
  // Corruption, never UB.
  for (const LegacyFixture& fixture : kLegacyFixtures) {
    const std::string bytes = FixtureBytes(fixture.file);
    const auto reader = EventStoreReader::Open(FixturePath(fixture.file));
    ASSERT_TRUE(reader.ok()) << reader.status();
    const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
    ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
    const std::uint64_t footer_offset = *trailer.ReadU64();
    const std::uint64_t footer_length = *trailer.ReadU64();
    for (const BlockMeta& meta : reader->blocks()) {
      // The block's checksum sits in its footer index entry as a u64.
      std::string checksum_bytes;
      PutU64(checksum_bytes, meta.checksum);
      const std::size_t checksum_at =
          bytes.find(checksum_bytes, footer_offset);
      ASSERT_NE(checksum_at, std::string::npos) << fixture.file;
      for (std::size_t pos = 0; pos < meta.length; ++pos) {
        std::string forged = bytes;
        forged[meta.offset + pos] =
            static_cast<char>(forged[meta.offset + pos] ^ 0x11);
        std::string fixed;
        PutU64(fixed, Checksum(std::string_view(forged).substr(
                          meta.offset, meta.length)));
        forged.replace(checksum_at, 8, fixed);
        fixed.clear();
        PutU64(fixed, Checksum(std::string_view(forged).substr(
                          footer_offset, footer_length)));
        forged.replace(trailer_at + 16, 8, fixed);
        const Status status = OpenAndScan(forged);
        EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCorruption)
            << fixture.file << " flip at block byte " << meta.offset + pos
            << ": " << status;
      }
    }
  }
}

TEST_F(EventStoreCorruptionTest, MissingFileIsIOError) {
  EXPECT_EQ(EventStoreReader::Open("/nonexistent/store.evst").status().code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Writer misuse and stats.
// ---------------------------------------------------------------------------

TEST(EventStoreWriterTest, KindMismatchIsInvalidArgument) {
  const std::string path = TempPath("kind.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kDetections);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->Append(std::vector<core::SemanticTrajectory>{}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Finish().ok());
  // And the matching reader-side check.
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadTrajectories().status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, EmptyTraceIsRejected) {
  const std::string path = TempPath("emptytrace.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  const std::vector<core::SemanticTrajectory> bad = {core::SemanticTrajectory(
      TrajectoryId(1), ObjectId(1), core::Trace(),
      core::AnnotationSet{{core::AnnotationKind::kActivity, "visit"}})};
  EXPECT_EQ(writer->Append(bad).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, UnknownCodecIsInvalidArgument) {
  // Id 3 (packed+lz) is read-only: the writer refuses it like any other
  // id outside BlockCodec.
  WriterOptions options;
  options.codec = static_cast<BlockCodec>(3);
  EXPECT_EQ(EventStoreWriter::Create(TempPath("codec3.evst"),
                                     StoreKind::kTrajectories, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

core::SemanticTrajectory OneStayTrajectory(std::int64_t id,
                                           const std::string& tag) {
  core::Trace trace;
  core::PresenceInterval p;
  p.cell = CellId(3);
  p.interval = qsr::TimeInterval::Make(Timestamp(500), Timestamp(560)).value();
  p.annotations.Add({core::AnnotationKind::kActivity, tag});
  trace.Append(p);
  return core::SemanticTrajectory(
      TrajectoryId(id), ObjectId(id), std::move(trace),
      core::AnnotationSet{{core::AnnotationKind::kActivity, "visit"}});
}

TEST(EventStoreWriterTest, RejectedBatchLeavesNoDictionaryEntries) {
  // A batch whose later trajectory is invalid must be rejected before
  // any of its annotation sets are interned: the finished file and the
  // stats equal those of a writer that never saw the batch.
  const std::vector<core::SemanticTrajectory> good = {
      OneStayTrajectory(2, "kept")};
  const std::vector<core::SemanticTrajectory> rejected = {
      OneStayTrajectory(1, "orphan"),
      core::SemanticTrajectory(
          TrajectoryId(9), ObjectId(9), core::Trace(),
          core::AnnotationSet{{core::AnnotationKind::kActivity, "visit"}})};

  const std::string clean_path = TempPath("clean.evst");
  auto clean = EventStoreWriter::Create(clean_path, StoreKind::kTrajectories);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->Append(good).ok());
  ASSERT_TRUE(clean->Finish().ok());

  const std::string path = TempPath("rejected.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kTrajectories);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->Append(rejected).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer->stats().dictionary_entries, 0u);
  ASSERT_TRUE(writer->Append(good).ok());
  ASSERT_TRUE(writer->Finish().ok());

  const auto clean_bytes = io::ReadFile(clean_path);
  const auto bytes = io::ReadFile(path);
  ASSERT_TRUE(clean_bytes.ok());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *clean_bytes);
  const StoreStats& a = writer->stats();
  const StoreStats& b = clean->stats();
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.trajectories, b.trajectories);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.dictionary_entries, b.dictionary_entries);
  EXPECT_EQ(a.file_bytes, b.file_bytes);
  std::remove(clean_path.c_str());
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, MovedWriterFinishesTheSameBytes) {
  // Every piece of writer state (dictionary and its index, object
  // postings, per-block ids, the open file) must survive a move made
  // between appends.
  const auto trajectories = BuildTrajectories(SimulatedDetections(12, 60));
  ASSERT_GT(trajectories.size(), 4u);
  const std::vector<core::SemanticTrajectory> first(
      trajectories.begin(), trajectories.begin() + trajectories.size() / 2);
  const std::vector<core::SemanticTrajectory> second(
      trajectories.begin() + trajectories.size() / 2, trajectories.end());
  WriterOptions options;
  options.rows_per_block = 64;

  const std::string unmoved_path = TempPath("unmoved.evst");
  auto unmoved = EventStoreWriter::Create(unmoved_path,
                                          StoreKind::kTrajectories, options);
  ASSERT_TRUE(unmoved.ok());
  ASSERT_TRUE(unmoved->Append(first).ok());
  ASSERT_TRUE(unmoved->Append(second).ok());
  ASSERT_TRUE(unmoved->Finish().ok());

  const std::string moved_path = TempPath("moved.evst");
  auto created = EventStoreWriter::Create(moved_path,
                                          StoreKind::kTrajectories, options);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(created->Append(first).ok());
  EventStoreWriter constructed(std::move(*created));
  EventStoreWriter assigned;
  assigned = std::move(constructed);
  ASSERT_TRUE(assigned.Append(second).ok());
  ASSERT_TRUE(assigned.Finish().ok());
  EXPECT_EQ(assigned.stats().dictionary_entries,
            unmoved->stats().dictionary_entries);

  const auto unmoved_bytes = io::ReadFile(unmoved_path);
  const auto moved_bytes = io::ReadFile(moved_path);
  ASSERT_TRUE(unmoved_bytes.ok());
  ASSERT_TRUE(moved_bytes.ok());
  EXPECT_EQ(*moved_bytes, *unmoved_bytes);
  std::remove(unmoved_path.c_str());
  std::remove(moved_path.c_str());
}

TEST(EventStoreWriterTest, AppendAfterFinishFails) {
  const std::string path = TempPath("finished.evst");
  auto writer = EventStoreWriter::Create(path, StoreKind::kDetections);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->Append(std::vector<core::RawDetection>{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Finish().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(EventStoreWriterTest, StatsCountRowsBlocksAndBytes) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(31));
  std::size_t rows = 0;
  for (const auto& t : trajectories) rows += t.trace().size();
  const std::string path = TempPath("stats.evst");
  WriterOptions options;
  options.rows_per_block = 100;
  auto writer =
      EventStoreWriter::Create(path, StoreKind::kTrajectories, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const StoreStats& stats = writer->stats();
  EXPECT_EQ(stats.rows, rows);
  EXPECT_EQ(stats.trajectories, trajectories.size());
  EXPECT_GE(stats.blocks, rows / 100 / 2);
  EXPECT_GT(stats.dictionary_entries, 0u);
  EXPECT_GT(stats.file_bytes, stats.payload_bytes);
  // The columnar event layout beats ~20 bytes/tuple on this workload.
  EXPECT_LT(stats.payload_bytes, rows * 20);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v3 block codecs: property roundtrips across codecs and block sizes.
// ---------------------------------------------------------------------------

TEST(EventStoreCodecTest, EveryCodecRoundTripsRandomDatasets) {
  // Property: any (codec, block size) combination is lossless, for both
  // store kinds, and the reader reports version 3.
  for (const std::uint64_t seed : {4u, 77u}) {
    const auto detections = SimulatedDetections(seed, 80);
    const auto trajectories = BuildTrajectories(detections);
    for (const std::size_t rows_per_block : {16ul, 512ul, 8192ul}) {
      for (const BlockCodec codec :
           {BlockCodec::kRaw, BlockCodec::kPacked, BlockCodec::kLz}) {
        WriterOptions options;
        options.rows_per_block = rows_per_block;
        options.codec = codec;
        SCOPED_TRACE(std::string("codec=") + BlockCodecName(codec) +
                     " rpb=" + std::to_string(rows_per_block));

        const std::string traj_path = TempPath("codec_traj.evst");
        ASSERT_TRUE(WriteTrajectoryStore(traj_path, trajectories,
                                         options).ok());
        const auto traj_reader = EventStoreReader::Open(traj_path);
        ASSERT_TRUE(traj_reader.ok()) << traj_reader.status();
        EXPECT_EQ(traj_reader->version(), 3u);
        EXPECT_TRUE(traj_reader->VerifyChecksums().ok());
        const auto restored = traj_reader->ReadTrajectories();
        ASSERT_TRUE(restored.ok()) << restored.status();
        ExpectTrajectoriesEqual(trajectories, *restored);
        std::remove(traj_path.c_str());

        const std::string det_path = TempPath("codec_det.evst");
        ASSERT_TRUE(WriteDetectionStore(det_path, detections, options).ok());
        const auto det_reader = EventStoreReader::Open(det_path);
        ASSERT_TRUE(det_reader.ok()) << det_reader.status();
        const auto det_restored = det_reader->ReadDetections();
        ASSERT_TRUE(det_restored.ok()) << det_restored.status();
        ASSERT_EQ(det_restored->size(), detections.size());
        std::remove(det_path.c_str());
      }
    }
  }
}

TEST(EventStoreCodecTest, CompressedCodecsShrinkThePayload) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(8));
  std::uint64_t payload_bytes[3] = {0, 0, 0};
  for (int c = 0; c <= 2; ++c) {
    const std::string path = TempPath("codec_size.evst");
    WriterOptions options;
    options.codec = static_cast<BlockCodec>(c);
    auto writer =
        EventStoreWriter::Create(path, StoreKind::kTrajectories, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(trajectories).ok());
    ASSERT_TRUE(writer->Finish().ok());
    payload_bytes[c] = writer->stats().payload_bytes;
    std::remove(path.c_str());
  }
  // Every compressed codec beats raw; LZ beats plain packing on this
  // workload (the measured ordering the default codec pins).
  EXPECT_LT(payload_bytes[1], payload_bytes[0]);
  EXPECT_LT(payload_bytes[2], payload_bytes[1]);
}

TEST(EventStoreCodecTest, ParallelCodecEncodingIsByteIdentical) {
  // The determinism contract extends to compressed blocks: encode on 1
  // vs several workers, compare whole files.
  const auto trajectories = BuildTrajectories(SimulatedDetections(6));
  for (const BlockCodec codec : {BlockCodec::kPacked, BlockCodec::kLz}) {
    const std::string seq_path = TempPath("codec_seq.evst");
    WriterOptions seq_options;
    seq_options.rows_per_block = 64;
    seq_options.codec = codec;
    ASSERT_TRUE(WriteTrajectoryStore(seq_path, trajectories,
                                     seq_options).ok());
    sched::Executor executor(4);
    const std::string par_path = TempPath("codec_par.evst");
    WriterOptions par_options = seq_options;
    par_options.executor = &executor;
    ASSERT_TRUE(WriteTrajectoryStore(par_path, trajectories,
                                     par_options).ok());
    const auto seq_bytes = io::ReadFile(seq_path);
    const auto par_bytes = io::ReadFile(par_path);
    ASSERT_TRUE(seq_bytes.ok());
    ASSERT_TRUE(par_bytes.ok());
    EXPECT_EQ(*seq_bytes, *par_bytes) << BlockCodecName(codec);
    std::remove(seq_path.c_str());
    std::remove(par_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Version compatibility: the reader accepts the checked-in v1/v2 and
// packed+lz fixtures, and the writer's v3 bytes stay pinned.
// ---------------------------------------------------------------------------

TEST(EventStoreCompatTest, LegacyFixturesMatchPinnedChecksums) {
  // Each checked-in fixture still has the bytes the old writer produced
  // (the checksums once pinned that writer's output), and the current
  // reader decodes it to GoldenTrajectories().
  const auto trajectories = GoldenTrajectories();
  for (const LegacyFixture& fixture : kLegacyFixtures) {
    SCOPED_TRACE(fixture.file);
    const std::string bytes = FixtureBytes(fixture.file);
    EXPECT_EQ(Checksum(bytes), fixture.checksum);
    const auto reader = EventStoreReader::Open(FixturePath(fixture.file));
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(reader->version(), fixture.version);
    if (fixture.version == 3) {
      // The only coverage of codec id 3, which the writer no longer
      // emits: every block must carry it.
      for (const BlockMeta& meta : reader->blocks()) {
        EXPECT_EQ(bytes[meta.offset], 3) << "block @" << meta.offset;
      }
    }
    EXPECT_EQ(reader->has_object_index(), fixture.version >= 2);
    EXPECT_EQ(reader->has_annotation_bitmaps(), fixture.version >= 3);
    EXPECT_EQ(reader->num_blocks() > 1, fixture.rows_per_block == 3);
    EXPECT_TRUE(reader->VerifyChecksums().ok());
    const auto restored = reader->ReadTrajectories();
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectTrajectoriesEqual(trajectories, *restored);
  }
}

/// A fixed detection set for the v3 detection-store golden: 40 rows over
/// 6 objects, unsorted, with repeated cells and a zero-length stay.
std::vector<core::RawDetection> GoldenDetections() {
  std::vector<core::RawDetection> out;
  for (int i = 0; i < 40; ++i) {
    const std::int64_t start = 2000000 + (i * 7919) % 4001;
    out.emplace_back(ObjectId((i * 5) % 6 + 1), CellId((i * 3) % 11 + 1),
                     Timestamp(start), Timestamp(start + (i % 9) * 45));
  }
  return out;
}

TEST(EventStoreCompatTest, V3EmissionIsByteIdenticalToPinnedGoldens) {
  // Every writable codec's bytes over GoldenTrajectories(), at a block size
  // that splits the fixture and at one that keeps it whole, plus a
  // default-option detection store. An encoder rewrite must reproduce
  // these exactly: readers of existing files and the store-size gate
  // both depend on it.
  struct Golden {
    BlockCodec codec;
    std::size_t rows_per_block;
    std::uint64_t checksum;
  };
  const Golden goldens[] = {
      {BlockCodec::kRaw, 3, 0x19e9005cef8bca23ull},
      {BlockCodec::kRaw, 4096, 0xbc5b826def36d9e2ull},
      {BlockCodec::kPacked, 3, 0xc5ee29cd068c0c94ull},
      {BlockCodec::kPacked, 4096, 0x586e67f22383498aull},
      {BlockCodec::kLz, 3, 0xec1bf504d77067fbull},
      {BlockCodec::kLz, 4096, 0x072c23b292f7add2ull},
  };
  const auto trajectories = GoldenTrajectories();
  for (const Golden& golden : goldens) {
    WriterOptions options;
    options.codec = golden.codec;
    options.rows_per_block = golden.rows_per_block;
    const std::string path = TempPath("golden_v3.evst");
    ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
    const auto bytes = io::ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(Checksum(*bytes), golden.checksum)
        << BlockCodecName(golden.codec) << " rpb=" << golden.rows_per_block;
    std::remove(path.c_str());
  }

  const std::string path = TempPath("golden_v3_detections.evst");
  ASSERT_TRUE(WriteDetectionStore(path, GoldenDetections()).ok());
  const auto bytes = io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(Checksum(*bytes), 0xdefcd3a5a3787f87ull);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v3 corruption: forged codec bytes behind a *valid* checksum, so the
// failures exercise the block decoder rather than the checksum verify.
// ---------------------------------------------------------------------------

class EventStoreCodecCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A detection store keeps the footer trivially parseable (empty
    // annotation dictionary), which the byte surgery below relies on.
    path_ = TempPath("codec_corrupt.evst");
    WriterOptions options;
    options.codec = BlockCodec::kLz;
    ASSERT_TRUE(
        WriteDetectionStore(path_, SimulatedDetections(17, 60), options)
            .ok());
    const auto bytes = io::ReadFile(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;

    // Locate block 0's payload and its checksum slot in the footer.
    const std::size_t trailer_at = bytes_.size() - kStoreTrailerSize;
    ByteReader trailer(bytes_.data() + trailer_at, kStoreTrailerSize);
    footer_offset_ = *trailer.ReadU64();
    footer_length_ = *trailer.ReadU64();
    ByteReader footer(bytes_.data() + footer_offset_, footer_length_);
    ASSERT_EQ(*footer.ReadVarint64(), 0u) << "detection stores have an "
                                             "empty annotation dictionary";
    ASSERT_GT(*footer.ReadVarint64(), 0u);  // block count
    block_offset_ = *footer.ReadVarint64();
    block_length_ = *footer.ReadVarint64();
    (void)*footer.ReadVarint64();   // rows
    (void)*footer.ReadVarint64();   // trajectories
    (void)*footer.ReadSVarint64();  // min_object
    (void)*footer.ReadSVarint64();  // max_object
    (void)*footer.ReadSVarint64();  // min_time
    (void)*footer.ReadSVarint64();  // max_time
    checksum_at_ =
        footer_offset_ + (footer_length_ - footer.remaining()) - 8;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites payload bytes in place, then repairs the block checksum
  /// and the footer checksum so only the decoder can notice.
  Status MutatePayloadAndScan(std::size_t payload_pos,
                              std::string_view new_bytes) {
    std::string bytes = bytes_;
    bytes.replace(block_offset_ + payload_pos, new_bytes.size(), new_bytes);
    std::string block_checksum;
    PutU64(block_checksum,
           Checksum(std::string_view(bytes).substr(block_offset_,
                                                   block_length_)));
    bytes.replace(checksum_at_, 8, block_checksum);
    std::string footer_checksum;
    PutU64(footer_checksum,
           Checksum(std::string_view(bytes).substr(footer_offset_,
                                                   footer_length_)));
    bytes.replace(bytes.size() - kStoreTrailerSize + 16, 8,
                  footer_checksum);

    const std::string path = TempPath("codec_corrupt_variant.evst");
    Status status = io::WriteFile(path, bytes);
    if (!status.ok()) return status;
    auto reader = EventStoreReader::Open(path);
    if (reader.ok()) status = reader->ReadDetections().status();
    else status = reader.status();
    std::remove(path.c_str());
    return status;
  }

  std::string path_;
  std::string bytes_;
  std::uint64_t footer_offset_ = 0;
  std::uint64_t footer_length_ = 0;
  std::uint64_t block_offset_ = 0;
  std::uint64_t block_length_ = 0;
  std::size_t checksum_at_ = 0;
};

TEST_F(EventStoreCodecCorruptionTest, UnknownCodecIdIsCorruption) {
  // The codec id is the first varint of every v3 block payload.
  ASSERT_EQ(static_cast<unsigned char>(bytes_[block_offset_]),
            static_cast<unsigned char>(BlockCodec::kLz));
  EXPECT_EQ(MutatePayloadAndScan(0, "\x09").code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCodecCorruptionTest, ForgedHugeRawSizeIsCorruption) {
  // Rewrite the raw-size varint to declare ~2^34 bytes: the decode
  // allocation cap (a function of the block's row count) must reject it
  // before any allocation happens.
  ASSERT_GT(block_length_, 6u);
  EXPECT_EQ(MutatePayloadAndScan(1, "\xff\xff\xff\xff\x3f").code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCodecCorruptionTest, ShrunkenRawSizeIsCorruption) {
  // A raw size smaller than what the stream decodes to trips the LZ
  // overflow guards (a truncated-payload shape, seen from the other
  // side: stream and size no longer agree).
  EXPECT_EQ(MutatePayloadAndScan(1, std::string_view("\x00", 1)).code(),
            StatusCode::kCorruption);
}

TEST_F(EventStoreCodecCorruptionTest, BitFlippedStreamNeverMisbehaves) {
  // Arbitrary flips inside the compressed stream, hidden behind a
  // repaired checksum: decode must end in OK or Corruption, never UB
  // (the sanitizer matrix runs this test to prove the "never UB" half).
  const std::size_t step = std::max<std::size_t>(1, block_length_ / 48);
  for (std::size_t pos = 2; pos < block_length_; pos += step) {
    const char flipped =
        static_cast<char>(bytes_[block_offset_ + pos] ^ 0x11);
    const Status status =
        MutatePayloadAndScan(pos, std::string_view(&flipped, 1));
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCorruption)
        << "flip at payload byte " << pos << ": " << status;
  }
}

// ---------------------------------------------------------------------------
// Annotation bitmaps: pruning soundness and forged-section rejection.
// ---------------------------------------------------------------------------

TEST(EventStoreAnnotationBitmapTest, PruningIsASoundOverApproximation) {
  // For every annotation term in the store and every block: when the
  // bitmap says "cannot contain", no trajectory in that block carries
  // the term (anywhere — trajectory, tuple, or transition level).
  const auto trajectories = BuildTrajectories(SimulatedDetections(13));
  const std::string path = TempPath("bitmap_sound.evst");
  WriterOptions options;
  options.rows_per_block = 48;  // many blocks
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->has_annotation_bitmaps());
  ASSERT_GT(reader->num_blocks(), 3u);

  // Collect every distinct term in the dataset.
  std::vector<std::pair<core::AnnotationKind, std::string>> terms;
  auto add_terms = [&terms](const core::AnnotationSet& set) {
    for (const auto& a : set.annotations()) {
      terms.emplace_back(a.kind, a.value);
    }
  };
  for (const auto& t : trajectories) {
    add_terms(t.annotations());
    for (std::size_t k = 0; k < t.trace().size(); ++k) {
      add_terms(t.trace().at(k).annotations);
      add_terms(t.trace().at(k).transition_annotations);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  ASSERT_GT(terms.size(), 2u);

  std::size_t pruned = 0;
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    std::vector<core::SemanticTrajectory> block_trajectories;
    ScanOptions all;
    ASSERT_TRUE(
        reader->ReadTrajectoryBlock(i, all, block_trajectories).ok());
    for (const auto& [kind, value] : terms) {
      if (reader->BlockMayContainAnnotation(i, kind, value)) continue;
      ++pruned;
      for (const auto& t : block_trajectories) {
        EXPECT_FALSE(t.annotations().Contains({kind, value}));
        for (std::size_t k = 0; k < t.trace().size(); ++k) {
          EXPECT_FALSE(
              t.trace().at(k).annotations.Contains({kind, value}));
          EXPECT_FALSE(t.trace().at(k).transition_annotations.Contains(
              {kind, value}));
        }
      }
    }
  }
  // The dataset's rarer terms (e.g. per-zone attributes) must actually
  // prune somewhere, or the bitmaps are vacuous.
  EXPECT_GT(pruned, 0u);

  // A term absent from the file prunes every block.
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    EXPECT_FALSE(reader->BlockMayContainAnnotation(
        i, core::AnnotationKind::kGoal, "no-such-term"));
  }
  std::remove(path.c_str());
}

TEST(EventStoreAnnotationBitmapTest, DisabledBitmapsFallBackToMaybe) {
  // A v2 file predates the bitmap section.
  const auto reader = EventStoreReader::Open(FixturePath("golden_v2_rpb3.evst"));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE(reader->has_annotation_bitmaps());
  ASSERT_GT(reader->num_blocks(), 1u);
  // Without bitmaps every block answers "maybe" — the sound default —
  // for present and absent terms alike.
  for (std::size_t i = 0; i < reader->num_blocks(); ++i) {
    EXPECT_TRUE(reader->BlockMayContainAnnotation(
        i, core::AnnotationKind::kGoal, "no-such-term"));
    EXPECT_TRUE(reader->BlockMayContainAnnotation(
        i, core::AnnotationKind::kGoal, "visit"));
  }
}

TEST(EventStoreAnnotationBitmapTest, ForgedBitmapSectionIsCorruption) {
  // One trajectory, one annotation term, one block: the bitmap section
  // is the footer's tail with a known byte layout, so each structural
  // field can be forged precisely (footer checksum repaired each time).
  core::Trace trace;
  core::PresenceInterval p;
  p.cell = CellId(1);
  p.interval = qsr::TimeInterval::Make(Timestamp(10), Timestamp(20)).value();
  trace.Append(p);
  const std::vector<core::SemanticTrajectory> one = {core::SemanticTrajectory(
      TrajectoryId(1), ObjectId(1), std::move(trace),
      core::AnnotationSet{{core::AnnotationKind::kGoal, "z"}})};
  const std::string path = TempPath("bitmap_forge.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, one).ok());
  auto bytes_result = io::ReadFile(path);
  ASSERT_TRUE(bytes_result.ok());
  const std::string bytes = *bytes_result;
  const std::size_t trailer_at = bytes.size() - kStoreTrailerSize;
  ByteReader trailer(bytes.data() + trailer_at, kStoreTrailerSize);
  const std::uint64_t footer_offset = *trailer.ReadU64();
  const std::uint64_t footer_length = *trailer.ReadU64();
  const std::size_t footer_end = footer_offset + footer_length;
  // Section tail layout: ... term_count=1, kind, value_len=1, 'z',
  // block_count=1, bitmap byte 0x01.
  ASSERT_EQ(bytes[footer_end - 1], 0x01);  // bitmap: bit 0 set
  ASSERT_EQ(bytes[footer_end - 2], 0x01);  // block count 1
  ASSERT_EQ(bytes[footer_end - 3], 'z');   // the term value
  ASSERT_EQ(bytes[footer_end - 4], 0x01);  // value length 1
  ASSERT_EQ(bytes[footer_end - 5],
            static_cast<char>(core::AnnotationKind::kGoal));
  ASSERT_EQ(bytes[footer_end - 6], 0x01);  // term count 1

  auto forge = [&](std::size_t back_offset, unsigned char value) {
    std::string forged = bytes;
    forged[footer_end - back_offset] = static_cast<char>(value);
    std::string fixed;
    PutU64(fixed, Checksum(std::string_view(forged).substr(footer_offset,
                                                           footer_length)));
    forged.replace(trailer_at + 16, 8, fixed);
    const std::string forged_path = TempPath("bitmap_forge_variant.evst");
    EXPECT_TRUE(io::WriteFile(forged_path, forged).ok());
    const Status status = EventStoreReader::Open(forged_path).status();
    std::remove(forged_path.c_str());
    return status;
  };
  // Block count that disagrees with the block index.
  EXPECT_EQ(forge(2, 7).code(), StatusCode::kCorruption);
  // Term count pointing past the section's bytes.
  EXPECT_EQ(forge(6, 200).code(), StatusCode::kCorruption);
  // An annotation kind the enum does not define.
  EXPECT_EQ(forge(5, 99).code(), StatusCode::kCorruption);
  // Value length overrunning the section.
  EXPECT_EQ(forge(4, 120).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-object scans.
// ---------------------------------------------------------------------------

TEST(EventStoreScanTest, MultiObjectScanEqualsPostFilterUnion) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(9));
  const std::string path = TempPath("multi_object.evst");
  WriterOptions options;
  options.rows_per_block = 32;
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories, options).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Three present objects plus one absent, deliberately unsorted.
  std::vector<ObjectId> targets = {
      trajectories[trajectories.size() / 4].object(),
      trajectories[1].object(), ObjectId(1u << 30),
      trajectories[trajectories.size() - 2].object()};
  ScanOptions scan;
  scan.objects = targets;
  std::sort(scan.objects.begin(), scan.objects.end());
  scan.objects.erase(std::unique(scan.objects.begin(), scan.objects.end()),
                     scan.objects.end());

  const auto scanned = reader->ReadTrajectories(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<core::SemanticTrajectory> expected;
  for (const auto& t : trajectories) {
    if (std::binary_search(scan.objects.begin(), scan.objects.end(),
                           t.object())) {
      expected.push_back(t);
    }
  }
  ASSERT_FALSE(expected.empty());
  ExpectTrajectoriesEqual(expected, *scanned);

  // The posting-list union prunes: candidate blocks are exactly the
  // union of each object's candidates, and fewer than the whole file.
  const auto candidates = reader->CandidateBlocks(scan);
  std::vector<std::size_t> unioned;
  for (const ObjectId object : scan.objects) {
    const auto per_object = reader->CandidateBlocks(
        ScanOptions::ForObject(object));
    unioned.insert(unioned.end(), per_object.begin(), per_object.end());
  }
  std::sort(unioned.begin(), unioned.end());
  unioned.erase(std::unique(unioned.begin(), unioned.end()), unioned.end());
  EXPECT_EQ(candidates, unioned);
  EXPECT_LT(candidates.size(), reader->num_blocks());
  std::remove(path.c_str());
}

TEST(EventStoreScanTest, EmptyObjectListScansEverything) {
  const auto trajectories = BuildTrajectories(SimulatedDetections(9, 40));
  const std::string path = TempPath("all_objects.evst");
  ASSERT_TRUE(WriteTrajectoryStore(path, trajectories).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto scanned = reader->ReadTrajectories(ScanOptions{});
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ExpectTrajectoriesEqual(trajectories, *scanned);
  std::remove(path.c_str());
}

TEST(EventStoreReaderTest, MappedOnPosix) {
  const std::string path = TempPath("mapped.evst");
  ASSERT_TRUE(WriteDetectionStore(path, SimulatedDetections(2)).ok());
  const auto reader = EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(reader->is_mapped());
#endif
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sitm::storage
