// Q1 — the semantic trajectory query engine over a 10^4-visitor store:
// predicate pushdown (blocks touched through the secondary object-id
// index vs min/max footer pruning alone vs a full scan), paper-shaped
// queries end to end, and the determinism contract (byte-identical
// results at every worker count and across in-memory vs store-backed
// execution).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "query/predicate.h"
#include "sched/executor.h"
#include "storage/event_store.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

constexpr int kVisitors = 10000;
/// Builder-ordered store (by object, then start — what BatchPipeline
/// emits): block object ranges partition, so min/max pruning is already
/// sharp. Used for the determinism and acceptance checks.
const char kIndexedStorePath[] = "BENCH_q1_store.evst";
/// Time-ordered store (the natural event-log ingest order): one
/// object's trajectories scatter across blocks and block object ranges
/// overlap almost totally, which is exactly the case the secondary
/// object-id index exists for.
const char kTimeStorePath[] = "BENCH_q1_store_time.evst";

// The satellite sweep: 1, 2, 4, and hardware concurrency, deduplicated
// and sorted so each count appears once in reports and BENCH JSON.
std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2, 4,
                                  sched::Executor::DefaultConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const indoor::LayerHierarchy& Hierarchy() {
  static const indoor::LayerHierarchy hierarchy =
      Unwrap(Map().BuildHierarchy());
  return hierarchy;
}

query::QueryContext Context() {
  query::QueryContext context;
  context.hierarchy = &Hierarchy();
  context.graph = &Map().graph();
  return context;
}

/// The 10^4-visitor workload, built once per process.
const std::vector<core::SemanticTrajectory>& Trajectories() {
  static const std::vector<core::SemanticTrajectory>* trajectories = [] {
    louvre::SimulatorOptions options;
    options.num_visitors = kVisitors;
    options.num_returning = kVisitors * 2 / 5;
    options.num_third_visits = kVisitors / 6;
    options.num_detections =
        (kVisitors + options.num_returning + options.num_third_visits) * 4;
    louvre::VisitSimulator simulator(&Map(), options);
    louvre::VisitDataset dataset = Unwrap(simulator.Generate());
    core::PipelineOptions pipeline_options;
    pipeline_options.builder.graph =
        &Unwrap(Map().graph().FindLayer(Map().zone_layer()))->graph();
    core::BatchPipeline pipeline(pipeline_options);
    return new std::vector<core::SemanticTrajectory>(
        Unwrap(pipeline.Run(dataset.ToRawDetections())));
  }();
  return *trajectories;
}

void WriteStore(const std::string& path,
                const std::vector<core::SemanticTrajectory>& trajectories) {
  storage::WriterOptions options;
  options.rows_per_block = 1024;
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options));
  Check(writer.Append(trajectories));
  Check(writer.Finish());
}

storage::EventStoreReader OpenStore(const std::string& path) {
  static bool written = false;
  if (!written) {
    WriteStore(kIndexedStorePath, Trajectories());
    std::vector<core::SemanticTrajectory> by_time = Trajectories();
    std::stable_sort(by_time.begin(), by_time.end(),
                     [](const core::SemanticTrajectory& a,
                        const core::SemanticTrajectory& b) {
                       if (a.start() != b.start()) return a.start() < b.start();
                       return a.id() < b.id();
                     });
    WriteStore(kTimeStorePath, by_time);
    written = true;
  }
  return Unwrap(storage::EventStoreReader::Open(path));
}

ObjectId ProbeObject() {
  return Trajectories()[Trajectories().size() / 2].object();
}

query::Query PointLookup() {
  query::Query q;
  q.where = query::ObjectIs(ProbeObject());
  q.projection = query::Projection::kTrajectories;
  return q;
}

void Report() {
  Banner("Q1", "semantic trajectory query engine (no paper counterpart; "
               "the serving layer the model argues for)");
  const auto& trajectories = Trajectories();
  const auto indexed = OpenStore(kIndexedStorePath);
  const auto time_ordered = OpenStore(kTimeStorePath);
  std::printf("  workload: %d visitors -> %zu trajectories, %llu tuples, "
              "%zu blocks (v%u store, object index: %s)\n",
              kVisitors, trajectories.size(),
              static_cast<unsigned long long>(indexed.rows()),
              indexed.num_blocks(), indexed.version(),
              indexed.has_object_index() ? "yes" : "no");

  query::QueryExecutor executor(Context());

  // -- Acceptance: object point lookup prunes >= 10x vs full scan. ----
  const query::Query lookup = PointLookup();
  const auto indexed_result = Unwrap(executor.Run(lookup, indexed));
  query::Query full;
  full.projection = query::Projection::kCount;
  const auto full_result = Unwrap(executor.Run(full, indexed));
  Row("point lookup, tuples scanned",
      "(full scan = " + std::to_string(full_result.stats.rows_scanned) + ")",
      std::to_string(indexed_result.stats.rows_scanned) + " of " +
          std::to_string(indexed_result.stats.rows_total));
  const double pruning =
      static_cast<double>(full_result.stats.rows_scanned) /
      static_cast<double>(indexed_result.stats.rows_scanned == 0
                              ? 1
                              : indexed_result.stats.rows_scanned);
  std::printf("  pruning ratio (full / indexed): %.1fx\n", pruning);
  if (pruning < 10.0) {
    std::fprintf(stderr,
                 "BENCH Q1 FAILED: object point lookup scanned only %.1fx "
                 "fewer tuples than a full scan (acceptance needs >= 10x)\n",
                 pruning);
    std::exit(1);
  }

  // -- Index ablation on the time-ordered store: blocks the posting
  //    list touches vs blocks min/max footer pruning alone admits (both
  //    deterministic counts). min/max pruning is helpless when one
  //    object's visits scatter across the collection window.
  const storage::ScanOptions probe =
      storage::ScanOptions::ForObject(ProbeObject());
  std::size_t min_max_blocks = 0;
  for (std::size_t i = 0; i < time_ordered.num_blocks(); ++i) {
    min_max_blocks += time_ordered.BlockMatches(i, probe) ? 1 : 0;
  }
  const auto scattered = Unwrap(executor.Run(lookup, time_ordered));
  Row("time-ordered store, tuples scanned", "-",
      std::to_string(scattered.stats.rows_scanned) + " indexed");
  Row("time-ordered store, blocks touched",
      "(of " + std::to_string(time_ordered.num_blocks()) + ")",
      std::to_string(time_ordered.CandidateBlocks(probe).size()) +
          " indexed, " + std::to_string(min_max_blocks) + " min/max");

  // -- Determinism: workers {1, 2, 4, hw} x {in-memory, store}. -------
  const std::string reference =
      Unwrap(executor.Run(lookup, trajectories)).Fingerprint();
  for (const std::size_t workers : WorkerCounts()) {
    sched::Executor sweep_executor(workers);
    query::ExecutorOptions options;
    options.executor = &sweep_executor;
    query::QueryExecutor scheduled(Context(), options);
    const std::string in_memory =
        Unwrap(scheduled.Run(lookup, trajectories)).Fingerprint();
    const std::string from_store =
        Unwrap(scheduled.Run(lookup, indexed)).Fingerprint();
    if (in_memory != reference || from_store != reference) {
      std::fprintf(stderr,
                   "BENCH Q1 FAILED: query results not byte-identical at "
                   "%zu workers\n",
                   workers);
      std::exit(1);
    }
  }
  Row("determinism (workers 1/2/4/hw, mem vs store)", "byte-identical",
      "byte-identical");

  // -- Paper-shaped query cardinalities. ------------------------------
  const auto& wing_cells =
      Unwrap(Map().graph().FindLayer(Map().wing_layer()))->graph().cells();
  query::Query in_wing;
  in_wing.where = query::InZone(wing_cells.front().id());
  in_wing.projection = query::Projection::kCount;
  const auto wing_count = Unwrap(executor.Run(in_wing, indexed));
  Row("visits through " +
          Unwrap(Map().CellName(wing_cells.front().id())),
      "-", std::to_string(wing_count.count) + " of " +
               std::to_string(trajectories.size()));

  // -- Annotation-bitmap pruning: an annotation predicate over a store
  //    with the bitmap footer section, against the block count a store
  //    without bitmaps would scan. The simulator pipeline attaches no
  //    tuple annotations, so mark a small cluster of trajectories with a
  //    rare behavior — the selective-term case the bitmaps exist for.
  auto annotated = trajectories;
  const core::SemanticAnnotation rare{core::AnnotationKind::kBehavior,
                                      "vip"};
  for (std::size_t i = 0; i < 50 && i < annotated.size(); ++i) {
    annotated[i].mutable_trace().mutable_intervals()[0].annotations.Add(
        rare.kind, rare.value);
  }
  const char kBitmapPath[] = "BENCH_q1_bitmap_v3.evst";
  WriteStore(kBitmapPath, annotated);
  const auto bitmap_reader = Unwrap(storage::EventStoreReader::Open(kBitmapPath));

  query::Query rare_query;
  rare_query.where = query::HasAnnotation(rare.kind, rare.value);
  rare_query.projection = query::Projection::kIds;
  const auto bitmap_result = Unwrap(executor.Run(rare_query, bitmap_reader));
  std::printf("\n  annotation-bitmap pruning (rare term): %llu of %zu "
              "blocks scanned\n",
              static_cast<unsigned long long>(
                  bitmap_result.stats.blocks_scanned),
              bitmap_reader.num_blocks());
  if (bitmap_result.Fingerprint() !=
      Unwrap(executor.Run(rare_query, annotated)).Fingerprint()) {
    std::fprintf(stderr, "BENCH Q1 FAILED: annotation query results differ "
                         "between the store and in-memory execution\n");
    std::exit(1);
  }
  if (bitmap_result.stats.blocks_scanned >= bitmap_reader.num_blocks()) {
    std::fprintf(stderr,
                 "BENCH Q1 FAILED: annotation query scanned %llu of %zu "
                 "blocks (acceptance needs strictly fewer)\n",
                 static_cast<unsigned long long>(
                     bitmap_result.stats.blocks_scanned),
                 bitmap_reader.num_blocks());
    std::exit(1);
  }

  // -- Query-result cache: cold vs cached q/s on the point lookup, and
  //    the hit result must be byte-identical to the cold one.
  query::QueryResultCache cache(8);
  query::ExecutorOptions cached_options;
  cached_options.cache = &cache;
  query::QueryExecutor cached_executor(Context(), cached_options);
  const auto cold_start = std::chrono::steady_clock::now();
  const auto cold = Unwrap(cached_executor.Run(lookup, indexed));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cold_start)
          .count();
  constexpr int kWarmRuns = 1000;
  const auto warm_start = std::chrono::steady_clock::now();
  std::string warm_fingerprint;
  for (int i = 0; i < kWarmRuns; ++i) {
    warm_fingerprint = Unwrap(cached_executor.Run(lookup, indexed))
                           .Fingerprint();
  }
  const double warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    warm_start)
          .count();
  if (warm_fingerprint != cold.Fingerprint() ||
      warm_fingerprint != reference) {
    std::fprintf(stderr, "BENCH Q1 FAILED: cached result not byte-identical "
                         "to cold execution\n");
    std::exit(1);
  }
  std::printf("  result cache: cold %.0f q/s, cached %.0f q/s (%.0fx; "
              "%llu hits, %llu misses)\n",
              1.0 / cold_seconds,
              static_cast<double>(kWarmRuns) / warm_seconds,
              (static_cast<double>(kWarmRuns) / warm_seconds) *
                  cold_seconds,
              static_cast<unsigned long long>(cache.stats().hits),
              static_cast<unsigned long long>(cache.stats().misses));
  Row("cache hit vs cold execution", "byte-identical", "byte-identical");
}

// ---------------------------------------------------------------------------
// Timings.
// ---------------------------------------------------------------------------

void BM_QueryPointLookupIndexed(benchmark::State& state) {
  // Time-ordered store, posting lists on: the serving-shaped case.
  const auto reader = OpenStore(kTimeStorePath);
  query::QueryExecutor executor(Context());
  const query::Query q = PointLookup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, reader));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryPointLookupIndexed)->Unit(benchmark::kMicrosecond);

void BM_QueryPointLookupFullResidual(benchmark::State& state) {
  // The no-pushdown ceiling: every block decoded, object filtering done
  // entirely by the residual predicate.
  const auto reader = OpenStore(kIndexedStorePath);
  query::QueryExecutor executor(Context());
  query::Query q;
  // Not(Not(object = x)) defeats the planner (negation is conservative)
  // while keeping the same matches — a worst-case residual query.
  q.where = query::Not(query::Not(query::ObjectIs(ProbeObject())));
  q.projection = query::Projection::kTrajectories;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, reader));
  }
}
BENCHMARK(BM_QueryPointLookupFullResidual)->Unit(benchmark::kMillisecond);

void BM_QueryTimeWindowFromStore(benchmark::State& state) {
  // Time-ordered store: a narrow window prunes almost every block.
  const auto reader = OpenStore(kTimeStorePath);
  query::QueryExecutor executor(Context());
  // One afternoon across the whole collection window.
  const Timestamp day0 = Trajectories().front().start();
  query::Query q;
  q.where = query::TimeWindow(day0 + Duration::Hours(24 * 30),
                              day0 + Duration::Hours(24 * 30 + 6));
  q.projection = query::Projection::kCount;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, reader));
  }
}
BENCHMARK(BM_QueryTimeWindowFromStore)->Unit(benchmark::kMicrosecond);

void BM_QueryZoneMembershipInMemory(benchmark::State& state) {
  query::QueryExecutor executor(Context());
  query::Query q;
  q.where = query::InZone(CellId(louvre::kZoneSouvenirShops));
  q.projection = query::Projection::kCount;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, Trajectories()));
  }
}
BENCHMARK(BM_QueryZoneMembershipInMemory)->Unit(benchmark::kMillisecond);

void BM_QueryEpisodeOverlapInMemory(benchmark::State& state) {
  // Allen-constrained episodes: long stays overlapping a probe window
  // (the "episodes overlap the guided tour" query shape).
  query::QueryExecutor executor(Context());
  const Timestamp day0 = Trajectories().front().start();
  const auto tour = qsr::TimeInterval::Make(
      day0 + Duration::Hours(24 * 10), day0 + Duration::Hours(24 * 10 + 2));
  query::Query q;
  core::AnnotationSet lingering;
  lingering.Add(core::AnnotationKind::kBehavior, "lingering");
  q.episodes.push_back(
      {"long-stay", core::StayAtLeast(Duration::Minutes(10)), lingering});
  q.where = query::EpisodeAllen("long-stay", query::AllenMask::Intersecting(),
                                Unwrap(tour));
  q.projection = query::Projection::kEpisodes;
  q.episode_filter.label = "long-stay";
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, Trajectories()));
  }
}
BENCHMARK(BM_QueryEpisodeOverlapInMemory)->Unit(benchmark::kMillisecond);

void BM_QueryTopKSimilarity(benchmark::State& state) {
  query::QueryExecutor executor(Context());
  query::Query q;
  q.projection = query::Projection::kTopK;
  q.top_k.k = 10;
  q.top_k.probe = &Trajectories().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, Trajectories()));
  }
}
BENCHMARK(BM_QueryTopKSimilarity)->Unit(benchmark::kMillisecond);

// The worker sweep: arg = worker count (1/2/4/hw), so every count gets
// its own entry in the BENCH_q1.json the CI run uploads.
void BM_QueryTopKSimilarityScheduled(benchmark::State& state) {
  sched::Executor sched_executor(static_cast<std::size_t>(state.range(0)));
  query::ExecutorOptions options;
  options.executor = &sched_executor;
  query::QueryExecutor executor(Context(), options);
  query::Query q;
  q.projection = query::Projection::kTopK;
  q.top_k.k = 10;
  q.top_k.probe = &Trajectories().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(q, Trajectories()));
  }
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(sched_executor.num_workers()));
}
BENCHMARK(BM_QueryTopKSimilarityScheduled)
    ->Apply([](benchmark::internal::Benchmark* bench) {
      for (const std::size_t workers : WorkerCounts()) {
        bench->Arg(static_cast<std::int64_t>(workers));
      }
    })
    ->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
