// query_serve: a time-ordered, default-option store built in set-up from
// the batch_etl trajectories, queried through QueryExecutor with a
// default-capacity QueryResultCache and fan-out on an nproc executor.
// Two clients run a closed loop over a seeded mix: 80% object point
// lookups (Zipf over objects), 10% zone counts (uniform over the zones
// the data visits) and 10% counts over random time windows (almost
// always unique). Most of the work is in query planning and the result
// cache plus storage pruning (object index, bitmaps) and block decode;
// the hot set partly fits the cache and the window queries never do.
//
// Oracle: every answer equals a cold in-memory reference computed in
// set-up: QueryExecutor over the object's trajectories for lookups and
// over all trajectories for zone counts, and for windows a count over
// sorted start/end arrays (checked against QueryExecutor on a sample).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/result_cache.h"
#include "storage/event_store.h"

namespace sitm::perfbench {

namespace {

constexpr int kClients = 2;
/// YCSB's default Zipfian constant (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010); see perfbench/README.md.
constexpr double kZipfExponent = 0.99;
/// Queries generated per client: more than a run issues.
constexpr std::size_t kQueriesPerClient = 40000;
/// Length of the single-client prefix the deterministic counters (and
/// the scan rate of cache misses) cover.
constexpr std::size_t kCounterQueries = 400;

enum class Kind : std::uint8_t { kLookup, kZone, kWindow };

struct Spec {
  Kind kind = Kind::kLookup;
  std::int64_t a = 0;  ///< object id, zone id, or window start
  std::int64_t b = 0;  ///< window end
  std::uint64_t reference = 0;  ///< fingerprint hash (lookups) or count

  bool operator<(const Spec& o) const {
    return std::tie(kind, a, b) < std::tie(o.kind, o.a, o.b);
  }
};

query::Query ToQuery(const Spec& spec) {
  query::Query q;
  switch (spec.kind) {
    case Kind::kLookup:
      q.where = query::ObjectIs(ObjectId(spec.a));
      q.projection = query::Projection::kTrajectories;
      break;
    case Kind::kZone:
      q = CountQuery(query::InZone(CellId(spec.a)));
      break;
    case Kind::kWindow:
      q = CountQuery(query::TimeWindow(Timestamp(spec.a), Timestamp(spec.b)));
      break;
  }
  return q;
}

struct ServeSetup {
  std::unique_ptr<Museum> museum;
  std::string path;
  std::unique_ptr<storage::EventStoreReader> reader;
  std::vector<std::vector<Spec>> sequences;  ///< one per client
  std::size_t detections = 0;
  std::size_t trajectories = 0;
  std::size_t objects = 0;
  std::size_t zones = 0;

  ~ServeSetup() {
    reader.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

std::uint64_t Answer(const query::QueryResult& result, Kind kind) {
  return kind == Kind::kLookup ? Hash(result.Fingerprint()) : result.count;
}

Result<std::unique_ptr<ServeSetup>> Setup(const Args& args,
                                          sched::Executor* executor) {
  auto setup = std::make_unique<ServeSetup>();
  SITM_ASSIGN_OR_RETURN(setup->museum, Museum::Build());
  SITM_ASSIGN_OR_RETURN(
      std::vector<core::RawDetection> detections,
      SimulateVisits(*setup->museum, args.tiny ? 300 : 100000, args.seed));
  setup->detections = detections.size();
  core::BatchPipeline pipeline(FullPipeline(*setup->museum, executor));
  SITM_ASSIGN_OR_RETURN(std::vector<core::SemanticTrajectory> by_time,
                        pipeline.Run(std::move(detections)));
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const core::SemanticTrajectory& a,
                      const core::SemanticTrajectory& b) {
                     if (a.start() != b.start()) return a.start() < b.start();
                     return a.id() < b.id();
                   });
  setup->trajectories = by_time.size();

  setup->path = args.work_dir + "/query_serve-" + std::to_string(::getpid()) +
                ".evst";
  {
    SITM_ASSIGN_OR_RETURN(
        storage::EventStoreWriter writer,
        storage::EventStoreWriter::Create(setup->path,
                                          storage::StoreKind::kTrajectories));
    SITM_RETURN_IF_ERROR(writer.Append(by_time));
    SITM_RETURN_IF_ERROR(writer.Finish());
  }
  SITM_ASSIGN_OR_RETURN(storage::EventStoreReader reader,
                        storage::EventStoreReader::Open(setup->path));
  setup->reader =
      std::make_unique<storage::EventStoreReader>(std::move(reader));

  // Objects by Zipf rank (a seeded shuffle decides which object holds
  // which rank), zones the data visits, and the time span.
  std::map<std::int64_t, std::vector<std::size_t>> by_object;
  std::set<std::int64_t> zones;
  std::int64_t lo = by_time.front().start().seconds_since_epoch();
  std::int64_t hi = lo;
  for (std::size_t i = 0; i < by_time.size(); ++i) {
    const core::SemanticTrajectory& t = by_time[i];
    by_object[t.object().value()].push_back(i);
    for (const core::PresenceInterval& p : t.trace().intervals()) {
      zones.insert(p.cell.value());
    }
    hi = std::max(hi, t.end().seconds_since_epoch());
  }
  std::vector<std::int64_t> objects;
  for (const auto& [object, indices] : by_object) objects.push_back(object);
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  rng.Shuffle(&objects);
  const std::vector<std::int64_t> zone_list(zones.begin(), zones.end());
  setup->objects = objects.size();
  setup->zones = zone_list.size();
  std::vector<double> zipf_cdf(objects.size());
  double total = 0;
  for (std::size_t r = 0; r < objects.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf[r] = total;
  }

  setup->sequences.assign(kClients, {});
  for (std::vector<Spec>& sequence : setup->sequences) {
    sequence.reserve(kQueriesPerClient);
    for (std::size_t i = 0; i < kQueriesPerClient; ++i) {
      Spec spec;
      const double pick = rng.NextDouble();
      if (pick < 0.8) {
        const double u = rng.NextDouble() * total;
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
            zipf_cdf.begin());
        spec.kind = Kind::kLookup;
        spec.a = objects[std::min(rank, objects.size() - 1)];
      } else if (pick < 0.9) {
        spec.kind = Kind::kZone;
        spec.a = zone_list[rng.NextBounded(zone_list.size())];
      } else {
        spec.kind = Kind::kWindow;
        const std::int64_t width = rng.NextInt(600, 6 * 3600);
        spec.a = rng.NextInt(lo, hi);
        spec.b = spec.a + width;
      }
      sequence.push_back(spec);
    }
  }

  // References, computed once per distinct query.
  const query::QueryContext context = setup->museum->QueryContextFor();
  query::ExecutorOptions fanout;
  fanout.executor = executor;
  const query::QueryExecutor all_reference(context, fanout);
  const query::QueryExecutor one_reference(context);
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> ends;
  for (const core::SemanticTrajectory& t : by_time) {
    starts.push_back(t.start().seconds_since_epoch());
    ends.push_back(t.end().seconds_since_epoch());
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  auto window_count = [&](std::int64_t from, std::int64_t to) {
    const auto ended_before = std::lower_bound(ends.begin(), ends.end(), from) -
                              ends.begin();
    const auto started_after =
        starts.end() - std::upper_bound(starts.begin(), starts.end(), to);
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(starts.size()) -
                                      ended_before - started_after);
  };
  std::map<Spec, std::uint64_t> answers;
  std::size_t checked_windows = 0;
  for (std::vector<Spec>& sequence : setup->sequences) {
    for (Spec& spec : sequence) {
      Spec key = spec;
      key.reference = 0;
      const auto found = answers.find(key);
      if (found != answers.end()) {
        spec.reference = found->second;
        continue;
      }
      std::uint64_t answer = 0;
      if (spec.kind == Kind::kLookup) {
        std::vector<core::SemanticTrajectory> own;
        for (const std::size_t i : by_object[spec.a]) own.push_back(by_time[i]);
        SITM_ASSIGN_OR_RETURN(const query::QueryResult result,
                              one_reference.Run(ToQuery(spec), own));
        answer = Answer(result, spec.kind);
      } else if (spec.kind == Kind::kZone) {
        SITM_ASSIGN_OR_RETURN(const query::QueryResult result,
                              all_reference.Run(ToQuery(spec), by_time));
        answer = result.count;
      } else {
        answer = window_count(spec.a, spec.b);
        if (checked_windows++ < 8) {
          SITM_ASSIGN_OR_RETURN(const query::QueryResult result,
                                all_reference.Run(ToQuery(spec), by_time));
          if (result.count != answer) {
            return Status::Internal("query_serve: window oracle disagrees "
                                    "with QueryExecutor");
          }
        }
      }
      if (args.corrupt_oracle) answer ^= 1;
      answers.emplace(key, answer);
      spec.reference = answer;
    }
  }
  return setup;
}

/// One query as a client saw it.
struct Sample {
  double seconds = 0;
  bool hit = false;  ///< single-client phases only
};

/// What one phase measured.
struct Phase {
  double wall_s = 0;
  std::vector<Sample> samples;
  std::uint64_t rows_decoded = 0;  ///< misses only (single-client phases)
  std::uint64_t blocks_decoded = 0;
  double miss_s = 0;  ///< time of the misses (single-client phases)
  std::vector<double> plan_s;
  query::QueryResultCache::Stats cache;
  std::size_t repeats = 0;
};

class ServeRunner {
 public:
  ServeRunner(const ServeSetup& setup, sched::Executor* executor,
              Report* report)
      : setup_(setup), executor_(executor), report_(report) {}

  /// Runs `clients` closed-loop clients for `seconds` (or, when
  /// `max_queries` is set, exactly that many queries from one client),
  /// each from the start of its sequence, with a fresh cache.
  Phase Run(int clients, double seconds, bool traced,
            std::size_t max_queries = 0) {
    Phase phase;
    query::QueryResultCache cache;
    query::ExecutorOptions options;
    options.executor = executor_;
    options.cache = &cache;
    const query::QueryContext context = setup_.museum->QueryContextFor();
    const query::QueryExecutor executor(context, options);
    std::vector<Phase> parts(clients);
    std::vector<std::uint64_t> failures(clients, 0);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<Spec>& sequence = setup_.sequences[c];
        Phase& part = parts[c];
        std::set<Spec> issued;
        for (std::size_t i = 0;; ++i) {
          if (max_queries != 0 ? i >= max_queries : Clock::now() >= deadline) {
            break;
          }
          const Spec& spec = sequence[i % sequence.size()];
          const query::Query q = ToQuery(spec);
          if (traced) {
            Result<query::Predicate> bound = q.where.Bind(context);
            if (bound.ok()) {
              const Clock::time_point plan_start = Clock::now();
              const query::QueryPlan plan = query::Plan(*bound);
              const std::vector<std::size_t> blocks =
                  query::PlanBlocks(*setup_.reader, plan.pushdown);
              part.plan_s.push_back(SecondsSince(plan_start));
              static_cast<void>(blocks);
            }
            Spec key = spec;
            key.reference = 0;
            if (!issued.insert(key).second) ++part.repeats;
          }
          // One client makes the cache outcome of each query observable.
          const std::uint64_t hits_before =
              clients == 1 ? cache.stats().hits : 0;
          const Clock::time_point q_start = Clock::now();
          Result<query::QueryResult> result = executor.Run(q, *setup_.reader);
          Sample sample;
          sample.seconds = SecondsSince(q_start);
          if (!result.ok() || Answer(*result, spec.kind) != spec.reference) {
            ++failures[c];
            continue;
          }
          sample.hit = clients == 1 && cache.stats().hits != hits_before;
          if (clients == 1 && !sample.hit) {
            part.rows_decoded += result->stats.rows_scanned;
            part.blocks_decoded += result->stats.blocks_scanned;
            part.miss_s += sample.seconds;
          }
          part.samples.push_back(sample);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    phase.wall_s = SecondsSince(start);
    for (int c = 0; c < clients; ++c) {
      for (std::size_t i = 0; i < parts[c].samples.size(); ++i) {
        report_->Attempt(true);
      }
      for (std::uint64_t f = 0; f < failures[c]; ++f) {
        report_->Attempt(false, "query_serve: answer differs from the "
                                "in-memory reference");
      }
      const Phase& part = parts[c];
      phase.samples.insert(phase.samples.end(), part.samples.begin(),
                           part.samples.end());
      phase.plan_s.insert(phase.plan_s.end(), part.plan_s.begin(),
                          part.plan_s.end());
      phase.rows_decoded += part.rows_decoded;
      phase.blocks_decoded += part.blocks_decoded;
      phase.miss_s += part.miss_s;
      phase.repeats += part.repeats;
    }
    phase.cache = cache.stats();
    return phase;
  }

 private:
  const ServeSetup& setup_;
  sched::Executor* executor_;
  Report* report_;
};

std::vector<double> Latencies(const Phase& phase, double scale) {
  std::vector<double> values;
  for (const Sample& s : phase.samples) values.push_back(s.seconds * scale);
  return values;
}

double MeanSeconds(const Phase& phase) {
  return phase.samples.empty()
             ? 0
             : phase.wall_s / static_cast<double>(phase.samples.size());
}

}  // namespace

int RunQueryServe(const Args& args, Report* report) {
  sched::Executor executor(sched::Executor::DefaultConcurrency());
  std::unique_ptr<ServeSetup> setup;
  double setup_s = 0;
  const Status status = TimedSetups(
      3, [&] { return Setup(args, &executor); }, &setup, &setup_s);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  const storage::EventStoreReader& reader = *setup->reader;
  report->Context("visitors", args.tiny ? 300.0 : 100000.0);
  report->Context("detections", static_cast<double>(setup->detections));
  report->Context("trajectories", static_cast<double>(setup->trajectories));
  report->Context("tuples", static_cast<double>(reader.rows()));
  report->Context("objects", static_cast<double>(setup->objects));
  report->Context("zones", static_cast<double>(setup->zones));
  report->Context("store_blocks", static_cast<double>(reader.num_blocks()));
  report->Context("clients", static_cast<double>(kClients));
  report->Context("fanout_workers",
                  static_cast<double>(executor.num_workers()));
  report->Context("cache_capacity", 64.0);
  report->Context("zipf_s", kZipfExponent);

  ServeRunner runner(*setup, &executor, report);
  // Untraced: the two-client closed loop. Traced: half the time on that
  // loop (for the tail), then a single client untraced and traced for a
  // quarter each — one client makes cache outcomes attributable.
  const Phase main =
      runner.Run(kClients, args.trace ? args.seconds / 2 : args.seconds, false);
  const std::vector<double> latency_ms = Latencies(main, 1e3);
  report->Context("query_samples", static_cast<double>(latency_ms.size()));
  const double query_per_s =
      static_cast<double>(main.samples.size()) / main.wall_s;
  const double bytes_per_tuple =
      static_cast<double>(reader.file_bytes()) /
      static_cast<double>(std::max<std::uint64_t>(1, reader.rows()));
  report->Metric("throughput_per_s", query_per_s, "1/s");
  report->Info("query_per_s", query_per_s, "1/s");
  report->Metric("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
  report->Metric("latency_p95_ms", Quantile(latency_ms, 0.95), "ms");
  report->Metric("bytes_per_tuple", bytes_per_tuple, "B");
  report->Info("store_bytes_per_tuple", bytes_per_tuple, "B");
  report->Info("query_p50_us", Quantile(latency_ms, 0.5) * 1e3, "us");
  report->Info("query_p99_us", Quantile(latency_ms, 0.99) * 1e3, "us");

  if (args.trace) {
    report->Metric("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
    const Phase plain = runner.Run(1, args.seconds / 4, false);
    const Phase traced = runner.Run(1, args.seconds / 4, true);
    std::vector<double> hit_us;
    std::vector<double> miss_us;
    for (const Sample& s : traced.samples) {
      (s.hit ? hit_us : miss_us).push_back(s.seconds * 1e6);
    }
    const double lookups =
        static_cast<double>(traced.cache.hits + traced.cache.misses);
    report->Metric(
        "query.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(traced.cache.hits) / lookups : 0,
        "ratio");
    report->Metric("query.repeat_share",
                   static_cast<double>(traced.repeats) /
                       static_cast<double>(std::max<std::size_t>(
                           1, traced.samples.size())),
                   "ratio");
    report->Metric("query.hit_us_p50", Quantile(hit_us, 0.5), "us");
    report->Metric("query.miss_us_p50", Quantile(miss_us, 0.5), "us");
    std::vector<double> plan_us;
    for (const double s : traced.plan_s) plan_us.push_back(s * 1e6);
    report->Metric("query.plan_us", Median(plan_us), "us");
    DecodePass pass;
    DecodeEveryBlock(reader, report, &pass);
    report->Metric("storage.decode_rows_per_s", pass.RowsPerSecond(), "1/s");
    report->Metric("trace.coverage",
                   Sum(Latencies(traced, 1)) / std::max(1e-9, traced.wall_s),
                   "ratio");
    report->Metric("trace.overhead", MeanSeconds(traced) / MeanSeconds(plain),
                   "ratio");
  }

  // Deterministic counters: one client, a fixed prefix, a fresh cache.
  // One client also tells misses from hits, so the scan rate counts only
  // the rows the misses decoded (a hit reports its cold run's rows).
  const Phase counted = runner.Run(1, 0, false, kCounterQueries);
  report->Metric("scan_rows_per_s",
                 static_cast<double>(counted.rows_decoded) /
                     std::max(1e-9, counted.miss_s),
                 "1/s");
  report->Counter("queries", counted.samples.size());
  report->Counter("cache_hits", counted.cache.hits);
  report->Counter("rows_decoded", counted.rows_decoded);
  report->Counter("blocks_touched", counted.blocks_decoded);
  report->Counter("store_bytes", reader.file_bytes());
  report->Counter("store_blocks", reader.num_blocks());
  if (args.trace) {
    report->Metric("storage.rows_scanned",
                   static_cast<double>(counted.rows_decoded), "count");
    report->Metric("storage.blocks_scanned",
                   static_cast<double>(counted.blocks_decoded), "count");
  }
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace sitm::perfbench
