// batch_etl: one batch job, repeated. Simulated visits go through
// BatchPipeline::Run at nproc workers, into an EventStore (default
// writer options), and a fixed set of distinct, uncached analytic
// queries runs over the whole store. Most of the work is in core
// (group, build, enrich/infer, merge) and in storage encode/decode; the
// result cache and the live path are never touched, so a cache or
// live-store change must show no movement here.
//
// Oracle: every store answer must equal, by fingerprint, the in-memory
// QueryExecutor answer over the set-up's pipeline output. Counters
// (trajectories, tuples, store bytes, blocks and rows scanned) must
// repeat exactly in every repetition.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/annotation.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/event_store.h"

namespace sitm::perfbench {

namespace {

struct Analytic {
  std::string label;
  query::Query query;
};

struct BatchSetup {
  std::unique_ptr<Museum> museum;
  std::vector<core::RawDetection> detections;
  std::vector<Analytic> queries;
  /// Reference fingerprint hash per query (in-memory execution).
  std::vector<std::uint64_t> reference;
  std::size_t trajectories = 0;
  std::uint64_t tuples = 0;
};

// Counts in zones spread over those the stream visits, counts over
// equal time windows tiling the stream, and the ids of trajectories
// carrying each annotation the pipeline's rules emit. None of them can
// be pruned on a builder-ordered store, so each scans every block. The
// set is kept small so a run holds many repetitions of the whole job.
std::vector<Analytic> AnalyticQueries(
    const std::vector<core::RawDetection>& detections) {
  std::set<CellId> visited;
  std::int64_t lo = detections.front().start.seconds_since_epoch();
  std::int64_t hi = lo;
  for (const core::RawDetection& d : detections) {
    visited.insert(d.cell);
    lo = std::min(lo, d.start.seconds_since_epoch());
    hi = std::max(hi, d.end.seconds_since_epoch());
  }
  constexpr std::size_t kZones = 8;
  const std::vector<CellId> zones(visited.begin(), visited.end());
  std::vector<Analytic> queries;
  const std::size_t picked = std::min(kZones, zones.size());
  for (std::size_t i = 0; i < picked; ++i) {
    const CellId zone = zones[i * zones.size() / picked];
    queries.push_back({"zone_count/" + std::to_string(zone.value()),
                       CountQuery(query::InZone(zone))});
  }
  constexpr int kWindows = 4;
  const std::int64_t width = (hi - lo) / kWindows + 1;
  for (int w = 0; w < kWindows; ++w) {
    const Timestamp from(lo + w * width);
    const Timestamp to(lo + (w + 1) * width - 1);
    queries.push_back({"window_count/" + std::to_string(w),
                       CountQuery(query::TimeWindow(from, to))});
  }
  const std::vector<std::pair<core::AnnotationKind, std::string>> terms = {
      {core::AnnotationKind::kBehavior, "stop"},
      {core::AnnotationKind::kBehavior, "move"},
      {core::AnnotationKind::kOther, "ticketed"},
      {core::AnnotationKind::kGoal, "leaving"},
  };
  for (const auto& [kind, value] : terms) {
    query::Query q;
    q.where = query::HasAnnotation(kind, value);
    q.projection = query::Projection::kIds;
    queries.push_back({"annotation_ids/" + value, q});
  }
  return queries;
}

Result<std::unique_ptr<BatchSetup>> Setup(const Args& args,
                                          sched::Executor* executor) {
  auto setup = std::make_unique<BatchSetup>();
  SITM_ASSIGN_OR_RETURN(setup->museum, Museum::Build());
  SITM_ASSIGN_OR_RETURN(
      setup->detections,
      SimulateVisits(*setup->museum, args.tiny ? 300 : 100000, args.seed));
  setup->queries = AnalyticQueries(setup->detections);
  core::BatchPipeline pipeline(FullPipeline(*setup->museum, executor));
  SITM_ASSIGN_OR_RETURN(const std::vector<core::SemanticTrajectory> built,
                        pipeline.Run(setup->detections));
  setup->trajectories = built.size();
  for (const core::SemanticTrajectory& t : built) {
    setup->tuples += t.trace().size();
  }
  query::ExecutorOptions options;
  options.executor = executor;
  const query::QueryExecutor reference(setup->museum->QueryContextFor(),
                                       options);
  for (const Analytic& analytic : setup->queries) {
    SITM_ASSIGN_OR_RETURN(const query::QueryResult result,
                          reference.Run(analytic.query, built));
    std::uint64_t hash = Hash(result.Fingerprint());
    if (args.corrupt_oracle) hash ^= 1;
    setup->reference.push_back(hash);
  }
  return setup;
}

/// What one repetition measured.
struct Rep {
  bool traced = false;
  bool ok = true;
  double wall_s = 0;
  double job_s = 0;  ///< detections in -> store finished
  double pipeline_s = 0;
  double append_s = 0;
  double finish_s = 0;
  double open_s = 0;
  std::vector<double> query_s;
  std::uint64_t rows_scanned = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t trajectories = 0;
  std::uint64_t tuples = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t blocks = 0;
  // Traced only.
  double build_busy_s = 0;
  double enrich_busy_s = 0;
  double task_busy_s = 0;
  double serial_s = 0;
  std::size_t spans_dropped = 0;
  std::vector<double> plan_s;
  double scan_overhead_s = 0;
  double decode_rows_per_s = 0;
};

class BatchRunner {
 public:
  BatchRunner(const Args& args, const BatchSetup& setup,
              sched::Executor* executor, Report* report)
      : setup_(setup),
        executor_(executor),
        report_(report),
        path_(args.work_dir + "/batch_etl-" + std::to_string(::getpid()) +
              ".evst") {}

  ~BatchRunner() { std::remove(path_.c_str()); }

  Rep RunRep(bool traced) {
    Rep rep;
    rep.traced = traced;
    std::vector<core::RawDetection> input = setup_.detections;
    const Clock::time_point start = Clock::now();

    core::BatchPipeline pipeline(FullPipeline(*setup_.museum, executor_));
    if (traced) executor_->trace().Clear();
    const std::int64_t begin_ns = executor_->NowNs();
    Result<std::vector<core::SemanticTrajectory>> built =
        pipeline.Run(std::move(input));
    const std::int64_t end_ns = executor_->NowNs();
    const Clock::time_point built_at = Clock::now();
    rep.pipeline_s = Seconds(start, built_at);
    report_->Attempt(built.status(), "batch_etl: pipeline run");
    if (!built.ok()) {
      rep.ok = false;
      return rep;
    }
    if (traced) {
      rep.build_busy_s = SpanSeconds(*executor_, "pipeline/build");
      rep.enrich_busy_s = SpanSeconds(*executor_, "pipeline/enrich");
      rep.task_busy_s = SpanSeconds(*executor_, "");
      rep.serial_s =
          rep.pipeline_s - CoveredSeconds(*executor_, begin_ns, end_ns);
      rep.spans_dropped = executor_->trace().dropped();
    }
    rep.trajectories = built->size();
    for (const core::SemanticTrajectory& t : *built) {
      rep.tuples += t.trace().size();
    }

    Result<storage::EventStoreWriter> writer =
        storage::EventStoreWriter::Create(path_,
                                          storage::StoreKind::kTrajectories);
    report_->Attempt(writer.status(), "batch_etl: store create");
    if (!writer.ok()) {
      rep.ok = false;
      return rep;
    }
    const Clock::time_point append_start = Clock::now();
    const Status appended = writer->Append(*built);
    const Clock::time_point append_end = Clock::now();
    report_->Attempt(appended, "batch_etl: store append");
    const Status finished = writer->Finish();
    const Clock::time_point finish_end = Clock::now();
    report_->Attempt(finished, "batch_etl: store finish");
    rep.append_s = Seconds(append_start, append_end);
    rep.finish_s = Seconds(append_end, finish_end);
    rep.job_s = Seconds(start, finish_end);
    if (!appended.ok() || !finished.ok()) {
      rep.ok = false;
      return rep;
    }
    rep.file_bytes = writer->stats().file_bytes;
    built->clear();
    built->shrink_to_fit();

    const Clock::time_point open_start = Clock::now();
    Result<storage::EventStoreReader> reader =
        storage::EventStoreReader::Open(path_);
    rep.open_s = SecondsSince(open_start);
    report_->Attempt(reader.status(), "batch_etl: store open");
    if (!reader.ok()) {
      rep.ok = false;
      return rep;
    }
    rep.blocks = reader->num_blocks();

    // The decode pass is a measurement of its own: kept out of the
    // repetition's wall time.
    std::vector<double> block_decode_s;
    double decode_pass_s = 0;
    if (traced) {
      const Clock::time_point decode_start = Clock::now();
      DecodePass pass;
      DecodeEveryBlock(*reader, report_, &pass);
      block_decode_s = pass.block_seconds;
      rep.decode_rows_per_s = pass.RowsPerSecond();
      decode_pass_s = SecondsSince(decode_start);
    }

    query::ExecutorOptions options;
    options.executor = executor_;
    const query::QueryExecutor executor(setup_.museum->QueryContextFor(),
                                        options);
    for (std::size_t i = 0; i < setup_.queries.size(); ++i) {
      const query::Query& q = setup_.queries[i].query;
      std::vector<std::size_t> planned;
      if (traced) {
        Result<query::Predicate> bound =
            q.where.Bind(setup_.museum->QueryContextFor());
        if (bound.ok()) {
          const Clock::time_point plan_start = Clock::now();
          const query::QueryPlan plan = query::Plan(*bound);
          planned = query::PlanBlocks(*reader, plan.pushdown);
          rep.plan_s.push_back(SecondsSince(plan_start));
        }
      }
      const Clock::time_point q_start = Clock::now();
      Result<query::QueryResult> result = executor.Run(q, *reader);
      const double q_s = SecondsSince(q_start);
      rep.query_s.push_back(q_s);
      if (!result.ok()) {
        report_->Attempt(result.status(),
                         "batch_etl: " + setup_.queries[i].label);
        rep.ok = false;
        continue;
      }
      report_->Attempt(Hash(result->Fingerprint()) == setup_.reference[i],
                       "batch_etl: " + setup_.queries[i].label +
                           " answer differs from the in-memory oracle");
      rep.rows_scanned += result->stats.rows_scanned;
      rep.blocks_scanned += result->stats.blocks_scanned;
      if (traced && !block_decode_s.empty()) {
        double decode_s = 0;
        for (const std::size_t b : planned) decode_s += block_decode_s[b];
        const double lanes = static_cast<double>(
            std::max<std::size_t>(1, std::min(planned.size(),
                                               executor_->num_workers())));
        rep.scan_overhead_s += q_s - decode_s / lanes;
      }
    }
    rep.wall_s = SecondsSince(start) - decode_pass_s;
    std::remove(path_.c_str());
    return rep;
  }

 private:
  const BatchSetup& setup_;
  sched::Executor* executor_;
  Report* report_;
  std::string path_;
};

template <typename Fn>
std::vector<double> Collect(const std::vector<Rep>& reps, bool traced,
                            Fn&& field) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    if (rep.ok && rep.traced == traced) values.push_back(field(rep));
  }
  return values;
}

}  // namespace

int RunBatchEtl(const Args& args, Report* report) {
  sched::Executor executor(sched::Executor::DefaultConcurrency());
  std::unique_ptr<BatchSetup> setup;
  double setup_s = 0;
  const Status status = TimedSetups(
      3, [&] { return Setup(args, &executor); }, &setup, &setup_s);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  report->Context("visitors", args.tiny ? 300.0 : 100000.0);
  report->Context("detections", static_cast<double>(setup->detections.size()));
  report->Context("trajectories", static_cast<double>(setup->trajectories));
  report->Context("tuples", static_cast<double>(setup->tuples));
  report->Context("analytic_queries",
                  static_cast<double>(setup->queries.size()));
  report->Context("pipeline_workers",
                  static_cast<double>(executor.num_workers()));

  BatchRunner runner(args, *setup, &executor, report);
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  // The traced run alternates untraced and traced repetitions, so the
  // tracing overhead is measured within the run.
  while (reps.size() < (args.trace ? 2u : 1u) ||
         SecondsSince(start) < args.seconds) {
    reps.push_back(runner.RunRep(args.trace && reps.size() % 2 == 1));
    ReleaseFreedMemory();
  }

  // Deterministic counters: identical in every repetition.
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    if (!rep.ok) continue;
    report->Attempt(rep.trajectories == first.trajectories &&
                        rep.tuples == first.tuples &&
                        rep.file_bytes == first.file_bytes &&
                        rep.blocks == first.blocks &&
                        rep.rows_scanned == first.rows_scanned &&
                        rep.blocks_scanned == first.blocks_scanned,
                    "batch_etl: work counters differ between repetitions");
  }
  report->Counter("detections", setup->detections.size());
  report->Counter("trajectories_built", first.trajectories);
  report->Counter("tuples_written", first.tuples);
  report->Counter("store_bytes", first.file_bytes);
  report->Counter("store_blocks", first.blocks);
  report->Counter("rows_decoded_per_job", first.rows_scanned);
  report->Counter("blocks_touched_per_job", first.blocks_scanned);
  report->Context("repetitions", static_cast<double>(reps.size()));

  const double detections = static_cast<double>(setup->detections.size());
  const std::vector<double> rates = Collect(
      reps, false, [&](const Rep& r) { return detections / r.job_s; });
  const std::vector<double> scan_rates = Collect(reps, false, [](const Rep& r) {
    return static_cast<double>(r.rows_scanned) / Sum(r.query_s);
  });
  std::vector<double> latencies_ms;
  for (const Rep& rep : reps) {
    if (rep.traced) continue;
    for (const double s : rep.query_s) latencies_ms.push_back(s * 1e3);
  }
  const double bytes_per_tuple =
      static_cast<double>(first.file_bytes) /
      static_cast<double>(std::max<std::uint64_t>(1, first.tuples));
  report->Metric("throughput_per_s", Median(rates), "1/s");
  report->Info("batch_det_per_s", Median(rates), "1/s");
  report->Metric("latency_p50_ms", Quantile(latencies_ms, 0.5), "ms");
  report->Metric("latency_p95_ms", Quantile(latencies_ms, 0.95), "ms");
  report->Metric("scan_rows_per_s", Median(scan_rates), "1/s");
  report->Metric("bytes_per_tuple", bytes_per_tuple, "B");
  report->Info("store_bytes_per_tuple", bytes_per_tuple, "B");
  report->Context("latency_samples", static_cast<double>(latencies_ms.size()));

  if (args.trace) {
    auto med = [&](auto field) { return Median(Collect(reps, true, field)); };
    const double pipeline_s = med([](const Rep& r) { return r.pipeline_s; });
    report->Metric("core.pipeline_s", pipeline_s, "s");
    report->Metric("core.build_busy_s",
                   med([](const Rep& r) { return r.build_busy_s; }), "s");
    report->Metric("core.enrich_busy_s",
                   med([](const Rep& r) { return r.enrich_busy_s; }), "s");
    report->Metric("core.serial_s",
                   med([](const Rep& r) { return r.serial_s; }), "s");
    const double workers = static_cast<double>(executor.num_workers());
    report->Metric("sched.utilization", med([&](const Rep& r) {
                     return r.task_busy_s / (workers * r.pipeline_s);
                   }),
                   "ratio");
    report->Metric("storage.append_s",
                   med([](const Rep& r) { return r.append_s; }), "s");
    report->Metric("storage.finish_s",
                   med([](const Rep& r) { return r.finish_s; }), "s");
    report->Metric("storage.decode_rows_per_s",
                   med([](const Rep& r) { return r.decode_rows_per_s; }),
                   "1/s");
    report->Metric("storage.blocks_scanned",
                   static_cast<double>(first.blocks_scanned), "count");
    report->Metric("storage.rows_scanned",
                   static_cast<double>(first.rows_scanned), "count");
    report->Metric("query.scan_overhead_s",
                   med([](const Rep& r) { return r.scan_overhead_s; }), "s");
    std::vector<double> plan_us;
    std::size_t dropped = 0;
    for (const Rep& rep : reps) {
      for (const double s : rep.plan_s) plan_us.push_back(s * 1e6);
      dropped += rep.spans_dropped;
    }
    report->Metric("query.plan_us", Median(plan_us), "us");
    report->Metric("latency_p99_ms", Quantile(latencies_ms, 0.99), "ms");
    report->Metric("trace.coverage", med([](const Rep& r) {
                     return (r.pipeline_s + r.append_s + r.finish_s + r.open_s +
                             Sum(r.query_s)) /
                            r.wall_s;
                   }),
                   "ratio");
    report->Metric("trace.overhead",
                   med([](const Rep& r) { return r.wall_s; }) /
                       Median(Collect(reps, false,
                                      [](const Rep& r) { return r.wall_s; })),
                   "ratio");
    report->Info("trace.spans_dropped", static_cast<double>(dropped), "count");

    // Worker sweep: the same job's pipeline at one worker.
    sched::Executor single(1);
    core::BatchPipeline pipeline(FullPipeline(*setup->museum, &single));
    const Clock::time_point sweep_start = Clock::now();
    const Status swept = pipeline.Run(setup->detections).status();
    const double single_s = SecondsSince(sweep_start);
    report->Attempt(swept, "batch_etl: one-worker pipeline run");
    report->Metric("core.speedup", single_s / pipeline_s, "x");
    report->Info("core.pipeline_s_1_worker", single_s, "s");
  }
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace sitm::perfbench
