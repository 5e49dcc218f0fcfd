// BatchPipeline determinism: for the same input, the batched parallel
// build -> enrich -> infer must produce results byte-identical to the
// sequential reference path, at every worker count.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/enrichment.h"
#include "core/inference.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "sched/executor.h"

namespace sitm::core {
namespace {

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map = [] {
    auto result = louvre::LouvreMap::Build();
    EXPECT_TRUE(result.ok()) << result.status();
    return new louvre::LouvreMap(std::move(result).value());
  }();
  return *map;
}

const indoor::Nrg& ZoneGraph() {
  return Map().graph().FindLayer(Map().zone_layer()).value()->graph();
}

std::vector<RawDetection> LouvreDetections(int visitors, std::uint64_t seed) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 5;
  options.seed = seed;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return dataset->ToRawDetections();
}

std::vector<EnrichmentRule> Rules() {
  return {
      AnnotateStopsAndMoves(Duration::Minutes(5),
                            {AnnotationKind::kBehavior, "stop"},
                            {AnnotationKind::kBehavior, "move"}),
      AnnotateWhereAttribute("requiresTicket", "true",
                             {AnnotationKind::kOther, "ticketed"}),
      AnnotateFinalExit(Map().exit_zones(),
                        {AnnotationKind::kGoal, "leaving"}),
  };
}

PipelineOptions BaseOptions() {
  PipelineOptions options;
  options.builder.graph = &ZoneGraph();
  options.rules = Rules();
  options.infer_hidden_passages = true;
  return options;
}

/// The unbatched path the pipeline must replicate exactly: whole-input
/// TrajectoryBuilder, then per-trajectory enrichment and inference.
std::vector<SemanticTrajectory> SequentialReference(
    std::vector<RawDetection> detections, const PipelineOptions& options,
    PipelineReport* report) {
  TrajectoryBuilder builder(options.builder);
  auto built = builder.Build(std::move(detections));
  EXPECT_TRUE(built.ok()) << built.status();
  std::vector<SemanticTrajectory> out = std::move(built).value();
  report->build = builder.report();
  for (SemanticTrajectory& t : out) {
    if (!options.rules.empty()) {
      auto enriched = EnrichTrajectory(&t, ZoneGraph(), options.rules);
      EXPECT_TRUE(enriched.ok()) << enriched.status();
      report->enrichment.tuples_touched += enriched->tuples_touched;
      report->enrichment.annotations_added += enriched->annotations_added;
    }
    if (options.infer_hidden_passages) {
      auto inferred = InferHiddenPassages(t, ZoneGraph(), options.inference);
      EXPECT_TRUE(inferred.ok()) << inferred.status();
      t = std::move(inferred->first);
      report->inference.inserted += inferred->second.inserted;
      report->inference.already_consistent +=
          inferred->second.already_consistent;
      report->inference.ambiguous += inferred->second.ambiguous;
      report->inference.disconnected += inferred->second.disconnected;
    }
  }
  return out;
}

void ExpectIdentical(const std::vector<SemanticTrajectory>& expected,
                     const std::vector<SemanticTrajectory>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SemanticTrajectory& e = expected[i];
    const SemanticTrajectory& a = actual[i];
    ASSERT_EQ(e.id(), a.id()) << i;
    ASSERT_EQ(e.object(), a.object()) << i;
    ASSERT_EQ(e.annotations(), a.annotations()) << i;
    ASSERT_EQ(e.trace().intervals(), a.trace().intervals())
        << "trajectory " << i << " (#" << e.id().value() << ")";
  }
}

void ExpectSameReport(const PipelineReport& expected,
                      const PipelineReport& actual) {
  EXPECT_EQ(expected.build.records_in, actual.build.records_in);
  EXPECT_EQ(expected.build.zero_duration_dropped,
            actual.build.zero_duration_dropped);
  EXPECT_EQ(expected.build.overlaps_clipped, actual.build.overlaps_clipped);
  EXPECT_EQ(expected.build.contained_dropped,
            actual.build.contained_dropped);
  EXPECT_EQ(expected.build.graph_inconsistent_dropped,
            actual.build.graph_inconsistent_dropped);
  EXPECT_EQ(expected.build.merged_same_cell, actual.build.merged_same_cell);
  EXPECT_EQ(expected.build.objects_seen, actual.build.objects_seen);
  EXPECT_EQ(expected.build.trajectories_out, actual.build.trajectories_out);
  EXPECT_EQ(expected.enrichment.tuples_touched,
            actual.enrichment.tuples_touched);
  EXPECT_EQ(expected.enrichment.annotations_added,
            actual.enrichment.annotations_added);
  EXPECT_EQ(expected.inference.inserted, actual.inference.inserted);
  EXPECT_EQ(expected.inference.already_consistent,
            actual.inference.already_consistent);
  EXPECT_EQ(expected.inference.ambiguous, actual.inference.ambiguous);
  EXPECT_EQ(expected.inference.disconnected, actual.inference.disconnected);
}

TEST(BatchPipelineTest, MatchesSequentialReferenceAtEveryPoolSize) {
  const std::vector<RawDetection> detections = LouvreDetections(120, 4242);
  PipelineReport reference_report;
  const std::vector<SemanticTrajectory> reference =
      SequentialReference(detections, BaseOptions(), &reference_report);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    sched::Executor::DefaultConcurrency()}) {
    sched::Executor executor(threads);
    for (const std::size_t per_shard : {std::size_t{1}, std::size_t{7},
                                        std::size_t{1000}}) {
      PipelineOptions options = BaseOptions();
      options.executor = &executor;
      options.objects_per_shard = per_shard;
      BatchPipeline pipeline(options);
      auto result = pipeline.Run(detections);
      ASSERT_TRUE(result.ok()) << result.status() << " threads=" << threads
                               << " per_shard=" << per_shard;
      ExpectIdentical(reference, *result);
      ExpectSameReport(reference_report, pipeline.report());
      EXPECT_EQ(pipeline.report().shards,
                (pipeline.report().build.objects_seen + per_shard - 1) /
                    per_shard);
    }
  }
}

TEST(BatchPipelineTest, TiedDetectionsGroupStably) {
  // Tied (start, end) detections of one object: the assembly order
  // (start, end, cell) decides which cell survives cleaning, so the
  // pipeline must match the sequential builder whatever the input order
  // and sharding. Object ids far apart force several radix passes; the
  // shuffle interleaves the objects.
  std::vector<RawDetection> detections;
  const std::int64_t objects[] = {7, 3, std::int64_t{5} << 40};
  for (const std::int64_t object : objects) {
    for (int i = 0; i < 60; ++i) {
      const std::int64_t start = 1000 + (i / 12) * 300;
      detections.emplace_back(ObjectId(object), CellId(1 + (i * 7) % 19),
                              Timestamp(start), Timestamp(start + 120));
    }
  }
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (std::size_t i = detections.size() - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::swap(detections[i], detections[state % (i + 1)]);
  }

  TrajectoryBuilder builder{BuilderOptions{}};
  auto reference = builder.Build(detections);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(builder.report().contained_dropped, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    sched::Executor::DefaultConcurrency()}) {
    sched::Executor executor(threads);
    PipelineOptions options;
    options.executor = &executor;
    options.objects_per_shard = 1;
    BatchPipeline pipeline(options);
    auto result = pipeline.Run(detections);
    ASSERT_TRUE(result.ok()) << result.status() << " threads=" << threads;
    ExpectIdentical(*reference, *result);
    PipelineReport expected;
    expected.build = builder.report();
    ExpectSameReport(expected, pipeline.report());
  }
}

TEST(BatchPipelineTest, NullExecutorIsTheSequentialPath) {
  const std::vector<RawDetection> detections = LouvreDetections(60, 99);
  PipelineReport reference_report;
  const std::vector<SemanticTrajectory> reference =
      SequentialReference(detections, BaseOptions(), &reference_report);
  BatchPipeline pipeline(BaseOptions());
  auto result = pipeline.Run(detections);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectIdentical(reference, *result);
  ExpectSameReport(reference_report, pipeline.report());
}

TEST(BatchPipelineTest, BuildOnlyModeSkipsEnrichAndInfer) {
  const std::vector<RawDetection> detections = LouvreDetections(40, 7);
  PipelineOptions options;  // no graph, no rules, no inference
  sched::Executor executor(2);
  options.executor = &executor;
  BatchPipeline pipeline(options);
  auto result = pipeline.Run(detections);
  ASSERT_TRUE(result.ok()) << result.status();

  TrajectoryBuilder builder{BuilderOptions{}};
  auto reference = builder.Build(detections);
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*reference, *result);
  EXPECT_EQ(pipeline.report().enrichment.annotations_added, 0u);
  EXPECT_EQ(pipeline.report().inference.inserted, 0);
}

TEST(BatchPipelineTest, HonorsFirstTrajectoryId) {
  const std::vector<RawDetection> detections = LouvreDetections(30, 11);
  PipelineOptions options = BaseOptions();
  options.builder.first_trajectory_id = TrajectoryId(500);
  sched::Executor executor(2);
  options.executor = &executor;
  options.objects_per_shard = 3;
  BatchPipeline pipeline(options);
  auto result = pipeline.Run(detections);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->empty());
  for (std::size_t i = 0; i < result->size(); ++i) {
    EXPECT_EQ((*result)[i].id().value(),
              500 + static_cast<std::int64_t>(i));
  }
}

TEST(BatchPipelineTest, EmptyInputYieldsEmptyOutput) {
  BatchPipeline pipeline(BaseOptions());
  auto result = pipeline.Run({});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(pipeline.report().shards, 0u);
  EXPECT_EQ(pipeline.report().build.records_in, 0u);
}

TEST(BatchPipelineTest, RejectsEmptyDefaultAnnotations) {
  PipelineOptions options = BaseOptions();
  options.builder.default_annotations = AnnotationSet{};
  BatchPipeline pipeline(options);
  auto result = pipeline.Run(LouvreDetections(10, 1));
  EXPECT_FALSE(result.ok());
}

TEST(BatchPipelineTest, RejectsRulesWithoutGraph) {
  PipelineOptions options;
  options.rules = Rules();  // but neither builder.graph nor enrichment_graph
  BatchPipeline pipeline(options);
  auto result = pipeline.Run(LouvreDetections(10, 2));
  EXPECT_FALSE(result.ok());
}

TEST(BatchPipelineTest, RejectsInvalidDetectionIds) {
  PipelineOptions options;
  sched::Executor executor(2);
  options.executor = &executor;
  BatchPipeline pipeline(options);
  std::vector<RawDetection> detections{
      RawDetection(ObjectId(1), CellId::Invalid(), Timestamp(0),
                   Timestamp(10))};
  auto result = pipeline.Run(std::move(detections));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace sitm::core
