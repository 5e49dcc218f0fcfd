// P2 — batch-pipeline and similarity-matrix throughput: the first
// numbers for the ROADMAP's millions-of-users north star. No direct
// paper counterpart (§4 reports dataset shape, not wall-clock): this
// bench fixes the workload the paper implies — millions of zone
// detections turned into semantic trajectories, then mined pairwise —
// and measures trajectories/sec for the batched build -> enrich ->
// infer pipeline and matrix-cells/sec for the blocked distance-matrix
// fill, at batch sizes from 10^2 to 10^5 visitors. A worker-count
// sweep (1/2/4/hw) times the pipeline's chained per-shard stages, and
// one run's span trace is dumped to BENCH_p2_trace.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "mining/similarity.h"
#include "sched/executor.h"
#include "storage/event_store.h"

namespace {

using namespace sitm;         // NOLINT
using namespace sitm::bench;  // NOLINT

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap map = Unwrap(louvre::LouvreMap::Build());
  return map;
}

const indoor::Nrg& ZoneGraph() {
  return Unwrap(Map().graph().FindLayer(Map().zone_layer()))->graph();
}

sched::Executor& Exec() {
  static sched::Executor executor(sched::Executor::DefaultConcurrency());
  return executor;
}

// The satellite sweep: 1, 2, 4, and hardware concurrency, deduplicated
// and sorted so each count appears once in reports and BENCH JSON.
std::vector<std::size_t> WorkerCounts() {
  std::vector<std::size_t> counts{1, 2, 4,
                                  sched::Executor::DefaultConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// §4.1-shaped population scaled to `visitors`: ~38% returning, ~16%
// third visits, ~4 detections per visit (the paper's 20245/4945 ratio).
louvre::SimulatorOptions ScaledOptions(int visitors) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  options.seed = 20170119;
  return options;
}

std::vector<core::RawDetection> Detections(int visitors) {
  louvre::VisitSimulator simulator(&Map(), ScaledOptions(visitors));
  return Unwrap(simulator.Generate()).ToRawDetections();
}

core::PipelineOptions FullPipeline(sched::Executor* executor) {
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
  options.executor = executor;
  return options;
}

std::vector<core::SemanticTrajectory> Trajectories(int visitors) {
  core::BatchPipeline pipeline(FullPipeline(&Exec()));
  return Unwrap(pipeline.Run(Detections(visitors)));
}

// Exactly n trajectories (generated from a comfortably larger visitor
// population, then truncated), so matrix sizes are what the args say.
std::vector<core::SemanticTrajectory> TrajectorySample(std::size_t n) {
  static const std::vector<core::SemanticTrajectory> all = Trajectories(400);
  return std::vector<core::SemanticTrajectory>(
      all.begin(), all.begin() + std::min(n, all.size()));
}

mining::TrajectoryDistance EditCellDistance() {
  return mining::EditTrajectoryDistance(mining::UnitCellCost());
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double TimePipelineRun(sched::Executor* executor,
                       const std::vector<core::RawDetection>& detections) {
  core::BatchPipeline pipeline(FullPipeline(executor));
  const auto start = std::chrono::steady_clock::now();
  const auto result = pipeline.Run(detections);
  const double seconds = SecondsSince(start);
  Check(result.status());
  return seconds;
}

void Report() {
  Banner("P2", "batch-pipeline and similarity-matrix throughput "
               "(no paper counterpart; first numbers for the "
               "millions-of-users north star)");
  std::printf("  executor: %zu worker(s)\n", Exec().num_workers());

  // Build -> enrich -> infer throughput across four decades of batch
  // size (the §4.1 dataset itself sits at ~3.2k visitors).
  for (const int visitors : {100, 1000, 10000, 100000}) {
    std::vector<core::RawDetection> detections = Detections(visitors);
    const std::size_t num_detections = detections.size();
    core::BatchPipeline pipeline(FullPipeline(&Exec()));
    const auto start = std::chrono::steady_clock::now();
    const auto result = pipeline.Run(std::move(detections));
    const double seconds = SecondsSince(start);
    Check(result.status());
    std::printf(
        "  pipeline batch=%-7d %8zu detections -> %7zu trajectories in "
        "%7.3f s  (%10.0f traj/s, %10.0f det/s)\n",
        visitors, num_detections, result->size(), seconds,
        static_cast<double>(result->size()) / seconds,
        static_cast<double>(num_detections) / seconds);
  }

  // Worker sweep: the same batch at every worker count, speedup
  // against one worker.
  {
    const std::vector<core::RawDetection> detections = Detections(10000);
    double one_worker_s = 0.0;
    for (const std::size_t workers : WorkerCounts()) {
      sched::Executor executor(workers);
      TimePipelineRun(&executor, detections);  // warm-up
      const double seconds = TimePipelineRun(&executor, detections);
      if (one_worker_s == 0.0) one_worker_s = seconds;
      std::printf(
          "  pipeline batch=10000  workers=%-2zu %7.3f s  speedup vs 1 "
          "worker %.2fx\n",
          workers, seconds, one_worker_s / seconds);
    }

    // Span-trace artifact: one chained run at >= 2 workers, scoped by
    // Clear() so the JSON shows exactly that run's build/enrich overlap.
    sched::Executor traced(
        std::max<std::size_t>(2, sched::Executor::DefaultConcurrency()));
    traced.trace().Clear();
    TimePipelineRun(&traced, detections);
    Check(traced.trace().WriteJson("BENCH_p2_trace.json"));
    std::printf("  span trace: %zu spans -> BENCH_p2_trace.json\n",
                traced.trace().Spans().size());
  }

  // Blocked distance-matrix fill, sequential vs scheduled.
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(512);
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  const auto seq_start = std::chrono::steady_clock::now();
  const std::vector<double> seq = mining::DistanceMatrix(trajectories,
                                                         distance);
  const double seq_seconds = SecondsSince(seq_start);
  mining::DistanceMatrixOptions par_options;
  par_options.executor = &Exec();
  const auto par_start = std::chrono::steady_clock::now();
  const std::vector<double> par =
      mining::DistanceMatrix(trajectories, distance, par_options);
  const double par_seconds = SecondsSince(par_start);
  Check(seq == par ? Status::OK()
                   : Status::Internal("parallel matrix mismatch"));
  const double cells = static_cast<double>(n) * static_cast<double>(n);
  std::printf(
      "  matrix n=%-4zu sequential %.3f s (%10.0f cells/s)  "
      "parallel[%zu] %.3f s (%10.0f cells/s)  speedup %.2fx\n",
      n, seq_seconds, cells / seq_seconds, Exec().num_workers(), par_seconds,
      cells / par_seconds, seq_seconds / par_seconds);

  // EventStore ingest + scan at batch scale: detections written to the
  // columnar store (scheduled column encoding), then scanned back into
  // the pipeline — the persistent counterpart of the in-memory path
  // above.
  for (const int visitors : {1000, 10000}) {
    std::vector<core::RawDetection> detections = Detections(visitors);
    const std::string path = "BENCH_p2_scratch.evst";
    storage::WriterOptions options;
    options.executor = &Exec();
    const auto write_start = std::chrono::steady_clock::now();
    auto writer = Unwrap(storage::EventStoreWriter::Create(
        path, storage::StoreKind::kDetections, options));
    Check(writer.Append(detections));
    Check(writer.Finish());
    const double write_seconds = SecondsSince(write_start);
    const auto reader = Unwrap(storage::EventStoreReader::Open(path));
    const auto scan_start = std::chrono::steady_clock::now();
    const auto scanned = Unwrap(reader.ReadDetections());
    const double scan_seconds = SecondsSince(scan_start);
    Check(scanned.size() == detections.size()
              ? Status::OK()
              : Status::Internal("store scan lost detections"));
    const double mb = static_cast<double>(writer.stats().file_bytes) /
                      (1024.0 * 1024.0);
    std::printf(
        "  store batch=%-7d %8zu detections  ingest %6.1f MB/s "
        "(%9.0f rows/s)  scan %9.0f rows/s  %7.2f MB on disk\n",
        visitors, detections.size(), mb / write_seconds,
        static_cast<double>(detections.size()) / write_seconds,
        static_cast<double>(detections.size()) / scan_seconds, mb);
    std::remove(path.c_str());
  }
}

// Registers one Arg per sweep worker count, so every count lands as its
// own entry in the BENCH_p2.json the CI run uploads.
void WorkerSweepArgs(benchmark::internal::Benchmark* bench) {
  for (const std::size_t workers : WorkerCounts()) {
    bench->Arg(static_cast<std::int64_t>(workers));
  }
}

// Trajectories/sec for the full batched pipeline (items = trajectories).
void BM_BatchPipeline(benchmark::State& state) {
  const std::vector<core::RawDetection> detections =
      Detections(static_cast<int>(state.range(0)));
  std::size_t trajectories = 0;
  for (auto _ : state) {
    core::BatchPipeline pipeline(FullPipeline(&Exec()));
    auto result = pipeline.Run(detections);
    Check(result.status());
    trajectories = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trajectories));
  state.counters["detections"] =
      benchmark::Counter(static_cast<double>(detections.size()));
}
BENCHMARK(BM_BatchPipeline)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The worker sweep at a fixed batch: arg = worker count (1/2/4/hw).
void BM_BatchPipelineWorkers(benchmark::State& state) {
  const std::vector<core::RawDetection> detections = Detections(1000);
  sched::Executor executor(static_cast<std::size_t>(state.range(0)));
  std::size_t trajectories = 0;
  for (auto _ : state) {
    core::BatchPipeline pipeline(FullPipeline(&executor));
    auto result = pipeline.Run(detections);
    Check(result.status());
    trajectories = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trajectories));
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(executor.num_workers()));
}
BENCHMARK(BM_BatchPipelineWorkers)
    ->Apply(WorkerSweepArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Matrix-cells/sec for the sequential fill (items = n^2 cells).
void BM_DistanceMatrixSeq(benchmark::State& state) {
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::DistanceMatrix(trajectories, distance));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  state.counters["n"] = benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_DistanceMatrixSeq)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Matrix-cells/sec for the blocked fill across the worker sweep:
// arg = worker count at a fixed n = 256.
void BM_DistanceMatrixWorkers(benchmark::State& state) {
  const std::vector<core::SemanticTrajectory> trajectories =
      TrajectorySample(256);
  const std::size_t n = trajectories.size();
  const mining::TrajectoryDistance distance = EditCellDistance();
  sched::Executor executor(static_cast<std::size_t>(state.range(0)));
  mining::DistanceMatrixOptions options;
  options.executor = &executor;
  options.block = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mining::DistanceMatrix(trajectories, distance, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  state.counters["n"] = benchmark::Counter(static_cast<double>(n));
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(executor.num_workers()));
}
BENCHMARK(BM_DistanceMatrixWorkers)
    ->Apply(WorkerSweepArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// EventStore ingest throughput: detections/s and MB/s for the batched
// columnar write path (scheduled block encoding).
void BM_EventStoreIngest(benchmark::State& state) {
  const std::vector<core::RawDetection> detections =
      Detections(static_cast<int>(state.range(0)));
  const std::string path = "BENCH_p2_scratch.evst";
  storage::WriterOptions options;
  options.executor = &Exec();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto writer = Unwrap(storage::EventStoreWriter::Create(
        path, storage::StoreKind::kDetections, options));
    Check(writer.Append(detections));
    Check(writer.Finish());
    bytes = writer.stats().file_bytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(detections.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_EventStoreIngest)
    ->Arg(1000)
    ->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// EventStore scan throughput: rows/s for the mmap'd block decode.
void BM_EventStoreScan(benchmark::State& state) {
  const std::vector<core::RawDetection> detections =
      Detections(static_cast<int>(state.range(0)));
  const std::string path = "BENCH_p2_scratch.evst";
  auto writer = Unwrap(storage::EventStoreWriter::Create(
      path, storage::StoreKind::kDetections));
  Check(writer.Append(detections));
  Check(writer.Finish());
  const auto reader = Unwrap(storage::EventStoreReader::Open(path));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(reader.ReadDetections()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(detections.size()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(writer.stats().file_bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_EventStoreScan)
    ->Arg(1000)
    ->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Simulator scale-out: generation cost with a replicated map (the
// map_replication knob benches sweep for production-like zone counts).
void BM_SimulatorReplicatedMap(benchmark::State& state) {
  louvre::SimulatorOptions options = ScaledOptions(2000);
  options.map_replication = static_cast<int>(state.range(0));
  for (auto _ : state) {
    louvre::VisitSimulator simulator(&Map(), options);
    benchmark::DoNotOptimize(Unwrap(simulator.Generate()));
  }
}
BENCHMARK(BM_SimulatorReplicatedMap)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SITM_BENCH_MAIN(Report)
