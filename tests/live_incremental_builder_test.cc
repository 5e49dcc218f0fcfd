// IncrementalBuilder unit behavior: config validation, watermark
// admission and finalization, arrival-order insensitivity, bounded-
// memory eviction, Drain, and footprint peaks. (The full-stack
// batch-equivalence contract lives in live_equivalence_property_test.)
#include "live/incremental_builder.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "indoor/nrg.h"

namespace sitm::live {
namespace {

core::RawDetection D(std::int64_t object, std::int64_t cell,
                     std::int64_t start, std::int64_t end) {
  return core::RawDetection(ObjectId(object), CellId(cell), Timestamp(start),
                            Timestamp(end));
}

IncrementalOptions TightOptions() {
  IncrementalOptions options;
  options.allowed_lateness = Duration::Seconds(60);
  return options;
}

TEST(IncrementalBuilderConfigTest, EmptyDefaultAnnotationsRejected) {
  IncrementalOptions options;
  options.builder.default_annotations = {};
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  const Status status = builder.Ingest({D(1, 1, 0, 10)}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderConfigTest, RulesNeedAGraph) {
  IncrementalOptions options;
  options.rules = {core::AnnotateStopsAndMoves(
      Duration::Minutes(5), {core::AnnotationKind::kBehavior, "stop"},
      {core::AnnotationKind::kBehavior, "move"})};
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  EXPECT_EQ(builder.Ingest({D(1, 1, 0, 10)}, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderConfigTest, InferenceNeedsAGraph) {
  IncrementalOptions options;
  options.infer_hidden_passages = true;
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  EXPECT_EQ(builder.Drain(&out).code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderTest, InvalidIdsRejected) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  core::RawDetection bad;  // default ids are invalid
  bad.start = Timestamp(0);
  bad.end = Timestamp(10);
  EXPECT_EQ(builder.Ingest({bad}, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalBuilderTest, WatermarkFlushesStaleTraceMidStream) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 0, 100), D(1, 2, 200, 300)}, &out).ok());
  // Nothing can finalize yet: the watermark (200 - 60 = 140) consumes
  // the first detection into the open trace but cannot flush it.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(builder.stats().buffered_detections, 1u);

  // A far-future detection pushes the watermark way past the session
  // gap: the buffered prefix is consumed and the stale trace flushes,
  // while the new detection itself stays buffered.
  ASSERT_TRUE(builder.Ingest({D(1, 3, 20000, 20100)}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(1));
  ASSERT_EQ(out[0].trace().intervals().size(), 2u);
  EXPECT_EQ(out[0].trace().intervals()[0].cell, CellId(1));
  EXPECT_EQ(out[0].trace().intervals()[1].cell, CellId(2));
  EXPECT_EQ(builder.stats().finalized, 1u);
  EXPECT_EQ(builder.stats().buffered_detections, 1u);
  EXPECT_TRUE(builder.stats().has_watermark);
  EXPECT_EQ(builder.stats().watermark, Timestamp(20000 - 60));
}

TEST(IncrementalBuilderTest, LateArrivalsAreDroppedAndCounted) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 10000, 10100)}, &out).ok());
  // Watermark is now 9940; these start before it.
  ASSERT_TRUE(builder.Ingest({D(1, 1, 50, 60), D(2, 4, 9000, 9100)}, &out)
                  .ok());
  EXPECT_EQ(builder.stats().late_dropped, 2u);
  EXPECT_EQ(builder.stats().records_in, 3u);
  // A late drop admits no state for its object.
  EXPECT_EQ(builder.stats().open_objects, 1u);
}

TEST(IncrementalBuilderTest, OutOfOrderMatchesInOrder) {
  const std::vector<core::RawDetection> in_order = {
      D(1, 1, 0, 100),    D(1, 2, 150, 250),  D(1, 2, 260, 300),
      D(2, 5, 50, 120),   D(2, 6, 20000, 20200), D(1, 3, 30000, 30100),
  };
  std::vector<core::RawDetection> shuffled = {
      in_order[4], in_order[1], in_order[5],
      in_order[0], in_order[3], in_order[2],
  };

  const auto run = [](const std::vector<core::RawDetection>& stream) {
    IncrementalOptions options;
    options.allowed_lateness = Duration::Hours(24);  // admit everything
    IncrementalBuilder builder(options);
    std::vector<core::SemanticTrajectory> out;
    for (const core::RawDetection& d : stream) {
      EXPECT_TRUE(builder.Ingest({d}, &out).ok());
    }
    EXPECT_TRUE(builder.Drain(&out).ok());
    // Normalize finalization order to (object, start).
    std::sort(out.begin(), out.end(),
              [](const core::SemanticTrajectory& a,
                 const core::SemanticTrajectory& b) {
                if (a.object() != b.object()) {
                  return a.object().value() < b.object().value();
                }
                return a.start() < b.start();
              });
    return out;
  };

  const std::vector<core::SemanticTrajectory> a = run(in_order);
  const std::vector<core::SemanticTrajectory> b = run(shuffled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object(), b[i].object()) << i;
    EXPECT_EQ(a[i].trace().intervals(), b[i].trace().intervals()) << i;
    EXPECT_EQ(a[i].annotations(), b[i].annotations()) << i;
  }
}

/// Ingests `stream` one detection per batch, drains, and returns what
/// was finalized.
std::vector<core::SemanticTrajectory> StreamAll(
    IncrementalBuilder* builder, const std::vector<core::RawDetection>& stream) {
  std::vector<core::SemanticTrajectory> out;
  for (const core::RawDetection& d : stream) {
    EXPECT_TRUE(builder->Ingest({d}, &out).ok());
  }
  EXPECT_TRUE(builder->Drain(&out).ok());
  return out;
}

void ExpectSameCleaning(const core::CleaningCounters& batch,
                        const core::CleaningCounters& live) {
  EXPECT_EQ(batch.zero_duration_dropped, live.zero_duration_dropped);
  EXPECT_EQ(batch.overlaps_clipped, live.overlaps_clipped);
  EXPECT_EQ(batch.contained_dropped, live.contained_dropped);
  EXPECT_EQ(batch.graph_inconsistent_dropped,
            live.graph_inconsistent_dropped);
  EXPECT_EQ(batch.merged_same_cell, live.merged_same_cell);
}

TEST(IncrementalBuilderTest, SameStartEndTiesResolveLikeBatch) {
  // Two detections of one object tie on (start, end): the one in the
  // lower cell sorts first and the other is dropped as contained,
  // whatever the input order and on either path.
  const core::RawDetection a = D(1, 10, 1000, 1060);
  const core::RawDetection b = D(1, 20, 1000, 1060);
  core::TrajectoryBuilder batch;
  auto ab = batch.Build({a, b});
  auto ba = batch.Build({b, a});
  ASSERT_TRUE(ab.ok() && ba.ok());

  IncrementalOptions options;
  options.allowed_lateness = Duration::Hours(24);
  IncrementalBuilder builder(options);
  const std::vector<core::SemanticTrajectory> live =
      StreamAll(&builder, {b, a});

  ASSERT_EQ(ab->size(), 1u);
  ASSERT_EQ(ba->size(), 1u);
  ASSERT_EQ(live.size(), 1u);
  ASSERT_EQ((*ab)[0].trace().size(), 1u);
  EXPECT_EQ((*ab)[0].trace().intervals()[0].cell, CellId(10));
  EXPECT_EQ((*ba)[0].trace().intervals(), (*ab)[0].trace().intervals());
  EXPECT_EQ(live[0].trace().intervals(), (*ab)[0].trace().intervals());
  EXPECT_EQ(builder.stats().cleaning.contained_dropped, 1u);
}

TEST(IncrementalBuilderTest, GraphFilterMatchesBatch) {
  // Cells 10-20-40 are connected, 30 is not: with the graph filter on,
  // both paths drop the teleports to 30 and count them alike.
  indoor::Nrg graph;
  for (int id : {10, 20, 30, 40}) {
    ASSERT_TRUE(graph
                    .AddCell(indoor::CellSpace(CellId(id), "c",
                                               indoor::CellClass::kRoom))
                    .ok());
  }
  ASSERT_TRUE(graph
                  .AddSymmetricEdge(CellId(10), CellId(20),
                                    indoor::EdgeType::kAccessibility)
                  .ok());
  ASSERT_TRUE(graph
                  .AddSymmetricEdge(CellId(20), CellId(40),
                                    indoor::EdgeType::kAccessibility)
                  .ok());
  const std::vector<core::RawDetection> in_order = {
      D(1, 10, 0, 100),     D(1, 30, 150, 200),  D(1, 20, 250, 300),
      D(1, 20, 290, 400),   D(1, 40, 500, 600),  D(1, 30, 650, 700),
      D(2, 40, 100, 200),   D(2, 10, 260, 300),  D(2, 30, 20000, 20100),
      D(2, 20, 20200, 20300),
  };
  const std::vector<core::RawDetection> shuffled = {
      in_order[5], in_order[8], in_order[1], in_order[9], in_order[0],
      in_order[3], in_order[7], in_order[2], in_order[6], in_order[4],
  };

  core::BuilderOptions builder_options;
  builder_options.graph = &graph;
  builder_options.drop_graph_inconsistent = true;
  core::TrajectoryBuilder batch(builder_options);
  auto expected = batch.Build(in_order);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(batch.report().graph_inconsistent_dropped, 3u);

  IncrementalOptions options;
  options.builder = builder_options;
  options.allowed_lateness = Duration::Hours(24);
  IncrementalBuilder builder(options);
  const std::vector<core::SemanticTrajectory> live =
      StreamAll(&builder, shuffled);
  ASSERT_EQ(live.size(), expected->size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    // Nothing finalizes before Drain, which goes in (object, start)
    // order: the batch order.
    EXPECT_EQ(live[i].object(), (*expected)[i].object()) << i;
    EXPECT_EQ(live[i].trace().intervals(), (*expected)[i].trace().intervals())
        << i;
  }
  ExpectSameCleaning(batch.report(), builder.stats().cleaning);
}

TEST(IncrementalBuilderTest, EvictionBoundsOpenObjects) {
  IncrementalOptions options = TightOptions();
  options.max_open_objects = 2;
  IncrementalBuilder builder(options);
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder.Ingest({D(1, 1, 0, 100)}, &out).ok());
  ASSERT_TRUE(builder.Ingest({D(2, 1, 10, 110)}, &out).ok());
  ASSERT_TRUE(builder.Ingest({D(3, 1, 20, 120)}, &out).ok());
  // Object 1 was the least recently active: force-finalized + forgotten.
  EXPECT_EQ(builder.stats().evicted_objects, 1u);
  EXPECT_EQ(builder.stats().open_objects, 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(1));
  EXPECT_LE(builder.stats().peak_open_objects, 3u);
}

TEST(IncrementalBuilderTest, DrainFlushesEverythingAndResets) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(
      builder.Ingest({D(1, 1, 0, 100), D(2, 2, 50, 150)}, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(builder.Drain(&out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(builder.stats().open_objects, 0u);
  EXPECT_EQ(builder.stats().buffered_detections, 0u);
  EXPECT_EQ(builder.stats().finalized, 2u);

  // The builder stays usable: a fresh object streams from a clean slate.
  out.clear();
  ASSERT_TRUE(builder.Ingest({D(9, 1, 40000, 40100)}, &out).ok());
  ASSERT_TRUE(builder.Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].object(), ObjectId(9));
}

TEST(IncrementalBuilderTest, PeaksTrackTheHighWaterMark) {
  IncrementalBuilder builder(TightOptions());
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(builder
                  .Ingest({D(1, 1, 0, 10), D(2, 1, 1, 11), D(3, 1, 2, 12),
                           D(4, 1, 3, 13)},
                          &out)
                  .ok());
  EXPECT_EQ(builder.stats().peak_open_objects, 4u);
  EXPECT_EQ(builder.stats().peak_buffered_detections, 4u);
  ASSERT_TRUE(builder.Drain(&out).ok());
  // Draining empties the footprint but never lowers the peaks.
  EXPECT_EQ(builder.stats().peak_open_objects, 4u);
  EXPECT_EQ(builder.stats().peak_buffered_detections, 4u);
}

TEST(IncrementalBuilderTest, ProvisionalIdsAdvanceInFinalizationOrder) {
  IncrementalOptions options = TightOptions();
  options.builder.first_trajectory_id = TrajectoryId(100);
  IncrementalBuilder builder(options);
  EXPECT_EQ(builder.next_id(), TrajectoryId(100));
  std::vector<core::SemanticTrajectory> out;
  ASSERT_TRUE(
      builder.Ingest({D(1, 1, 0, 100), D(2, 2, 50, 150)}, &out).ok());
  ASSERT_TRUE(builder.Drain(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id(), TrajectoryId(100));
  EXPECT_EQ(out[1].id(), TrajectoryId(101));
  EXPECT_EQ(builder.next_id(), TrajectoryId(102));
}

}  // namespace
}  // namespace sitm::live
