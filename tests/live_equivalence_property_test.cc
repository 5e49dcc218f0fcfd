// Batch/stream equivalence — the live subsystem's core contract: any
// admissible arrival order of a detection set (shuffled, duplicated,
// late-but-within-lateness), pushed through the full live stack
// (IncrementalBuilder -> rolling SegmentStore segments with compaction
// -> Snapshot -> store-set query execution), answers queries
// byte-identically (result fingerprints) to the batch pipeline with
// in-memory execution, at worker counts {1, 2, hw}.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/builder.h"
#include "core/enrichment.h"
#include "core/pipeline.h"
#include "live/incremental_builder.h"
#include "live/segment_store.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "sched/executor.h"

namespace sitm::live {
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

std::vector<core::RawDetection> LouvreDetections(int visitors,
                                                 std::uint64_t seed) {
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

core::PipelineOptions BatchOptions() {
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

IncrementalOptions StreamOptions(Duration lateness) {
  const core::PipelineOptions batch = BatchOptions();
  IncrementalOptions options;
  options.builder = batch.builder;
  options.rules = batch.rules;
  options.enrichment_graph = batch.enrichment_graph;
  options.infer_hidden_passages = batch.infer_hidden_passages;
  options.inference = batch.inference;
  options.inference_graph = batch.inference_graph;
  options.allowed_lateness = lateness;
  return options;
}

/// The smallest allowed_lateness under which `arrival` has zero late
/// drops: the worst event-time regression in the sequence (admission
/// compares each start against max-start-seen-so-far minus lateness).
Duration RequiredLateness(const std::vector<core::RawDetection>& arrival) {
  Duration worst = Duration::Seconds(0);
  bool any = false;
  Timestamp prefix_max;
  for (const core::RawDetection& d : arrival) {
    if (any && d.start < prefix_max) {
      worst = std::max(worst, prefix_max - d.start);
    }
    if (!any || d.start > prefix_max) {
      prefix_max = d.start;
      any = true;
    }
  }
  return worst + Duration::Seconds(1);
}

/// The query set the equivalence is pinned on: one per projection shape
/// that the live /query endpoint serves.
std::vector<query::Query> EquivalenceQueries(
    const std::vector<core::SemanticTrajectory>& reference) {
  std::vector<query::Query> queries;
  {
    query::Query q;
    q.where = query::All();
    q.projection = query::Projection::kCount;
    queries.push_back(std::move(q));
  }
  {
    query::Query q;
    q.where = query::All();
    q.projection = query::Projection::kTrajectories;
    queries.push_back(std::move(q));
  }
  if (!reference.empty()) {
    const core::SemanticTrajectory& mid = reference[reference.size() / 2];
    query::Query q;
    q.where = query::ObjectIs(mid.object());
    q.projection = query::Projection::kTrajectories;
    queries.push_back(std::move(q));

    query::Query ids;
    ids.where = query::TimeWindow(mid.start(), std::nullopt);
    ids.projection = query::Projection::kIds;
    queries.push_back(std::move(ids));

    query::Query tuples;
    tuples.where = query::InCell(mid.trace().intervals().front().cell);
    tuples.projection = query::Projection::kTuples;
    queries.push_back(std::move(tuples));
  }
  return queries;
}

struct Scenario {
  const char* name;
  /// Positions a detection may move from its sorted slot; SIZE_MAX =
  /// full shuffle.
  std::size_t shuffle_window;
  std::size_t duplicates;
  std::size_t batch_size;
};

std::vector<core::RawDetection> ArrivalOrder(
    std::vector<core::RawDetection> detections, const Scenario& scenario,
    Rng* rng) {
  for (std::size_t i = 0; i < scenario.duplicates && !detections.empty();
       ++i) {
    detections.push_back(detections[static_cast<std::size_t>(
        rng->NextInt(0, static_cast<std::int64_t>(detections.size()) - 1))]);
  }
  std::sort(detections.begin(), detections.end(),
            [](const core::RawDetection& a, const core::RawDetection& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end < b.end;
              return a.object.value() < b.object.value();
            });
  // Fisher-Yates, bounded by the scenario's window so scenario A keeps
  // its lateness (and therefore its mid-stream watermark finalization)
  // small while scenario B is a full shuffle.
  for (std::size_t i = detections.size(); i > 1; --i) {
    const std::size_t lo =
        scenario.shuffle_window >= i - 1 ? 0 : i - 1 - scenario.shuffle_window;
    const std::size_t j = lo + static_cast<std::size_t>(rng->NextInt(
                                   0, static_cast<std::int64_t>(i - 1 - lo)));
    std::swap(detections[i - 1], detections[j]);
  }
  return detections;
}

class LiveEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveEquivalenceSweep, StreamedStoreAnswersMatchBatch) {
  const std::uint64_t seed = GetParam();
  const std::vector<core::RawDetection> detections =
      LouvreDetections(/*visitors=*/18, seed);
  ASSERT_FALSE(detections.empty());

  const Scenario scenarios[] = {
      {"bounded-shuffle", 40, 12, 37},
      {"full-shuffle", static_cast<std::size_t>(-1), 25, 61},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    Rng rng(seed ^ 0xC0FFEEULL);
    const std::vector<core::RawDetection> arrival =
        ArrivalOrder(detections, scenario, &rng);
    const Duration lateness = RequiredLateness(arrival);

    // Batch reference over the SAME multiset (duplicates included; the
    // batch cleaning pass drops them as contained, and the stream must
    // agree), executed sequentially in memory.
    core::BatchPipeline batch(BatchOptions());
    auto reference = batch.Run(arrival);
    ASSERT_TRUE(reference.ok()) << reference.status();

    const std::vector<query::Query> queries = EquivalenceQueries(*reference);
    std::vector<std::string> expected;
    {
      query::QueryExecutor sequential{query::QueryContext{}};
      for (const query::Query& q : queries) {
        auto result = sequential.Run(q, *reference);
        ASSERT_TRUE(result.ok()) << result.status();
        expected.push_back(result->Fingerprint());
      }
    }

    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2},
          sched::Executor::DefaultConcurrency()}) {
      sched::Executor executor(workers);

      SegmentStoreOptions store_options;
      store_options.directory = ::testing::TempDir() + "live_eq_" +
                                std::to_string(seed) + "_" + scenario.name +
                                "_" + std::to_string(workers);
      // Tiny segments + fanin 2: many seals, several compaction
      // generations, snapshots spanning levels — the hard case.
      store_options.seal_trajectories = 7;
      store_options.compaction_fanin = 2;
      store_options.writer.rows_per_block = 16;
      store_options.runner = &executor;
      SegmentStore store(store_options);

      // Finalized trajectories reach the store a few at a time (the
      // steady-stream shape): Drain's large final batch is chunked too,
      // so sealing — and therefore compaction — actually exercises.
      const auto append_chunked =
          [&store](std::vector<core::SemanticTrajectory> batch) {
            constexpr std::size_t kChunk = 3;
            for (std::size_t i = 0; i < batch.size(); i += kChunk) {
              std::vector<core::SemanticTrajectory> chunk;
              for (std::size_t j = i;
                   j < std::min(batch.size(), i + kChunk); ++j) {
                chunk.push_back(std::move(batch[j]));
              }
              ASSERT_TRUE(store.Append(std::move(chunk)).ok());
            }
          };

      IncrementalBuilder builder(StreamOptions(lateness));
      std::vector<core::SemanticTrajectory> finalized;
      for (std::size_t i = 0; i < arrival.size();
           i += scenario.batch_size) {
        const std::size_t end =
            std::min(arrival.size(), i + scenario.batch_size);
        finalized.clear();
        ASSERT_TRUE(builder
                        .Ingest(std::vector<core::RawDetection>(
                                    arrival.begin() +
                                        static_cast<std::ptrdiff_t>(i),
                                    arrival.begin() +
                                        static_cast<std::ptrdiff_t>(end)),
                                &finalized)
                        .ok());
        append_chunked(std::move(finalized));
      }
      finalized.clear();
      ASSERT_TRUE(builder.Drain(&finalized).ok());
      append_chunked(std::move(finalized));
      // The lateness bound was computed to admit everything.
      EXPECT_EQ(builder.stats().late_dropped, 0u);
      EXPECT_EQ(builder.stats().finalized, reference->size());
      // Both paths clean through the same kernel, so they count alike.
      const core::CleaningCounters& live = builder.stats().cleaning;
      const core::BuildReport& built = batch.report().build;
      EXPECT_EQ(live.zero_duration_dropped, built.zero_duration_dropped);
      EXPECT_EQ(live.overlaps_clipped, built.overlaps_clipped);
      EXPECT_EQ(live.contained_dropped, built.contained_dropped);
      EXPECT_EQ(live.graph_inconsistent_dropped,
                built.graph_inconsistent_dropped);
      EXPECT_EQ(live.merged_same_cell, built.merged_same_cell);

      // Query over the live view: sealed segments + unsealed tail.
      auto snapshot = store.Snapshot(
          StreamOptions(lateness).builder.first_trajectory_id);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();

      query::ExecutorOptions exec_options;
      exec_options.executor = &executor;
      exec_options.chunk = 16;
      query::QueryExecutor live_executor{query::QueryContext{},
                                         exec_options};
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto result = live_executor.Run(queries[q], *snapshot);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->Fingerprint(), expected[q])
            << "query " << q << " at worker count " << workers;
      }

      ASSERT_TRUE(store.Close().ok());
      const SegmentStoreStats stats = store.stats();
      // The scenario must actually exercise compaction to mean anything.
      EXPECT_GT(stats.compactions, 0u);
      EXPECT_GE(stats.written_bytes, stats.logical_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEquivalenceSweep,
                         ::testing::Values(3u, 17u, 2024u));

}  // namespace
}  // namespace sitm::live
