// live_ingest: simulated visits, delivered out of order (up to 600 s of
// transport jitter), are POSTed as 256-detection JSON batches to an
// in-process HttpServer + LiveService (Louvre zone graph, stop/move
// rules, hidden-passage inference, default segment-store options,
// compaction on the executor).
//
// Load: a closed loop of 2 connections sending batches round-robin, each
// waiting for its ack (and batch k waiting for every batch before k - 1,
// so the allowed lateness covers the reordering), beside an open-loop
// reader that at a fixed rate takes LiveService::Snapshot() and runs one
// query over the StoreSet (a point lookup of a recently active visitor,
// or a count over the last hour). Reads are timed from when they were
// due. Most of the work is in live (HTTP, parse, watermark builder, L0
// seal, compaction, snapshot ranking) and io, with reads beside writes.
//
// Oracle: every POST answers 200 with the whole batch accepted, nothing
// is dropped late, and after FlushAll the snapshot answers equal those
// of a BatchPipeline over the same detections (these checks, run on one
// thread, also give the scan rate over the live segments). A
// single-threaded replay of the same bodies (parse -> IncrementalBuilder
// -> SegmentStore with inline compaction) supplies the deterministic
// counters and, when traced, the per-stage costs.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "core/annotation.h"
#include "core/enrichment.h"
#include "io/json.h"
#include "live/http_server.h"
#include "live/incremental_builder.h"
#include "live/ingest.h"
#include "live/segment_store.h"
#include "live/service.h"
#include "query/executor.h"
#include "query/predicate.h"

namespace sitm::perfbench {

namespace {

constexpr std::int64_t kJitterSeconds = 600;
constexpr std::size_t kBatch = 256;
constexpr int kConnections = 2;
/// Reader rate: a sampling rate, low enough that reads do not set the
/// ingest rate and far below what one reader thread sustains at the end
/// of the stream, so the open loop never builds a backlog. See
/// perfbench/README.md.
constexpr double kReadsPerSecond = 30;

struct LiveSetup {
  std::unique_ptr<Museum> museum;
  std::vector<std::string> bodies;
  std::vector<std::size_t> batch_sizes;
  /// Per batch: an object it carries and its latest start (what the
  /// reader calls recently active).
  std::vector<ObjectId> batch_object;
  std::vector<Timestamp> batch_latest;
  std::size_t detections = 0;
  Duration lateness;
  /// The checks run after FlushAll and their BatchPipeline answers.
  std::vector<query::Query> checks;
  std::vector<std::uint64_t> reference;
  std::size_t trajectories = 0;
  std::uint64_t tuples = 0;
};

live::IncrementalOptions StreamOptions(const Museum& museum,
                                       Duration lateness) {
  live::IncrementalOptions options;
  options.builder.graph = &museum.zone_graph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
  };
  options.infer_hidden_passages = true;
  options.allowed_lateness = lateness;
  return options;
}

// Delivery order: event time plus up to kJitterSeconds of lag.
std::vector<core::RawDetection> Arrival(
    std::vector<core::RawDetection> detections, std::uint64_t seed) {
  Rng rng(seed ^ 0x51C0FFEEULL);
  std::vector<std::pair<Timestamp, std::size_t>> delivery;
  delivery.reserve(detections.size());
  for (std::size_t i = 0; i < detections.size(); ++i) {
    delivery.emplace_back(
        detections[i].start + Duration::Seconds(rng.NextInt(0, kJitterSeconds)),
        i);
  }
  std::sort(delivery.begin(), delivery.end(),
            [&detections](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              const core::RawDetection& da = detections[a.second];
              const core::RawDetection& db = detections[b.second];
              if (da.start != db.start) return da.start < db.start;
              if (da.end != db.end) return da.end < db.end;
              return da.object.value() < db.object.value();
            });
  std::vector<core::RawDetection> ordered;
  ordered.reserve(detections.size());
  for (const auto& [when, index] : delivery) {
    ordered.push_back(detections[index]);
  }
  return ordered;
}

// The smallest lateness that admits every detection when any batch may
// be ingested after its successor (two connections in flight: batch b+1
// can overtake b, but b+2 is sent only after b's ack).
Duration StreamLateness(const std::vector<core::RawDetection>& arrival) {
  const std::size_t batches = (arrival.size() + kBatch - 1) / kBatch;
  std::vector<std::int64_t> batch_max(batches);
  std::vector<std::int64_t> batch_min(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * kBatch;
    const std::size_t end = std::min(arrival.size(), begin + kBatch);
    batch_max[b] = batch_min[b] = arrival[begin].start.seconds_since_epoch();
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t s = arrival[i].start.seconds_since_epoch();
      batch_max[b] = std::max(batch_max[b], s);
      batch_min[b] = std::min(batch_min[b], s);
    }
  }
  // Admission judges a batch against the watermark left by the batches
  // ingested before it: at most every earlier batch plus its successor.
  std::int64_t worst = 0;
  std::int64_t prefix_max = batch_min[0];
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t seen =
        b + 1 < batches ? std::max(prefix_max, batch_max[b + 1]) : prefix_max;
    worst = std::max(worst, seen - batch_min[b]);
    prefix_max = std::max(prefix_max, batch_max[b]);
  }
  return Duration::Seconds(worst + 1);
}

std::string Body(const std::vector<core::RawDetection>& arrival,
                 std::size_t begin, std::size_t end) {
  std::string body = "[";
  for (std::size_t i = begin; i < end; ++i) {
    const core::RawDetection& d = arrival[i];
    if (i != begin) body += ",";
    body += "{\"object\":" + std::to_string(d.object.value()) +
            ",\"cell\":" + std::to_string(d.cell.value()) +
            ",\"start\":" + std::to_string(d.start.seconds_since_epoch()) +
            ",\"end\":" + std::to_string(d.end.seconds_since_epoch()) + "}";
  }
  return body + "]";
}

query::Query Lookup(ObjectId object) {
  query::Query q;
  q.where = query::ObjectIs(object);
  q.projection = query::Projection::kTrajectories;
  return q;
}

Result<std::unique_ptr<LiveSetup>> Setup(const Args& args,
                                         sched::Executor* executor) {
  auto setup = std::make_unique<LiveSetup>();
  SITM_ASSIGN_OR_RETURN(setup->museum, Museum::Build());
  SITM_ASSIGN_OR_RETURN(
      std::vector<core::RawDetection> detections,
      SimulateVisits(*setup->museum, args.tiny ? 300 : 50000, args.seed));
  setup->detections = detections.size();

  // The batch oracle over the same detections, same rules.
  const live::IncrementalOptions stream = StreamOptions(*setup->museum,
                                                        Duration::Seconds(0));
  core::PipelineOptions pipeline_options;
  pipeline_options.builder = stream.builder;
  pipeline_options.rules = stream.rules;
  pipeline_options.infer_hidden_passages = stream.infer_hidden_passages;
  pipeline_options.executor = executor;
  core::BatchPipeline pipeline(pipeline_options);
  SITM_ASSIGN_OR_RETURN(const std::vector<core::SemanticTrajectory> oracle,
                        pipeline.Run(detections));
  setup->trajectories = oracle.size();
  for (const core::SemanticTrajectory& t : oracle) {
    setup->tuples += t.trace().size();
  }

  const std::vector<core::RawDetection> arrival =
      Arrival(std::move(detections), args.seed);
  setup->lateness = StreamLateness(arrival);
  for (std::size_t begin = 0; begin < arrival.size(); begin += kBatch) {
    const std::size_t end = std::min(arrival.size(), begin + kBatch);
    setup->bodies.push_back(Body(arrival, begin, end));
    setup->batch_sizes.push_back(end - begin);
    Timestamp latest = arrival[begin].start;
    for (std::size_t i = begin; i < end; ++i) {
      latest = std::max(latest, arrival[i].start);
    }
    setup->batch_object.push_back(arrival[end - 1].object);
    setup->batch_latest.push_back(latest);
  }

  // Checks: the total count, counts over windows tiling the stream, and
  // point lookups of objects spread over the id range.
  setup->checks.push_back(CountQuery(query::All()));
  const std::int64_t lo =
      oracle.empty() ? 0 : oracle.front().start().seconds_since_epoch();
  std::int64_t hi = lo;
  for (const core::SemanticTrajectory& t : oracle) {
    hi = std::max(hi, t.end().seconds_since_epoch());
  }
  constexpr int kWindows = 8;
  const std::int64_t width = (hi - lo) / kWindows + 1;
  for (int w = 0; w < kWindows; ++w) {
    setup->checks.push_back(CountQuery(query::TimeWindow(
        Timestamp(lo + w * width), Timestamp(lo + (w + 1) * width - 1))));
  }
  constexpr std::size_t kLookups = 16;
  for (std::size_t i = 0; i < kLookups && !oracle.empty(); ++i) {
    setup->checks.push_back(
        Lookup(oracle[i * oracle.size() / kLookups].object()));
  }
  query::ExecutorOptions options;
  options.executor = executor;
  const query::QueryExecutor reference(setup->museum->QueryContextFor(),
                                       options);
  for (const query::Query& q : setup->checks) {
    SITM_ASSIGN_OR_RETURN(const query::QueryResult result,
                          reference.Run(q, oracle));
    std::uint64_t hash = Hash(result.Fingerprint());
    if (args.corrupt_oracle) hash ^= 1;
    setup->reference.push_back(hash);
  }
  return setup;
}

/// One blocking HTTP/1.1 POST over a fresh loopback connection. Returns
/// the status code (0 on a transport error) and the response body.
int Post(int port, const std::string& target, const std::string& body,
         std::string* response_body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return 0;
  }
  const std::string request = "POST " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    sent += static_cast<std::size_t>(n);
  }
  // The server closes after answering, so read to EOF (the TIME_WAIT
  // state then stays on the server's side).
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      ::close(fd);
      return 0;
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  int status = 0;
  if (std::sscanf(response.c_str(), "HTTP/1.1 %d", &status) != 1) return 0;
  const std::size_t split = response.find("\r\n\r\n");
  *response_body = split == std::string::npos ? "" : response.substr(split + 4);
  return status;
}

std::int64_t AcceptedCount(const std::string& body) {
  const std::size_t at = body.find("\"accepted\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + 11, nullptr, 10);
}

/// What one HTTP round measured.
struct Round {
  bool traced = false;
  double ingest_s = 0;  ///< first POST sent -> last ack
  std::vector<double> post_s;     ///< indexed by batch
  std::vector<double> handler_s;  ///< indexed by batch (traced)
  std::vector<double> read_s;     ///< due -> answered
  std::vector<double> lateness_s;  ///< due -> started
  std::vector<double> snapshot_s;
  std::vector<double> run_s;
  /// Rows scanned by, and time of, the post-flush checks.
  std::uint64_t check_rows = 0;
  double check_s = 0;
  double compact_busy_s = 0;
  double connection_busy_s = 0;
  std::int64_t segment_bytes = 0;
  std::int64_t written_bytes = 0;
  std::int64_t logical_bytes = 0;
};

std::int64_t StatsField(const io::JsonValue& stats, const char* section,
                        const char* field) {
  Result<const io::JsonValue*> s = stats.Get(section);
  if (!s.ok()) return -1;
  Result<const io::JsonValue*> f = (*s)->Get(field);
  if (!f.ok()) return -1;
  Result<std::int64_t> value = (*f)->AsInt();
  return value.ok() ? *value : -1;
}

class LiveRunner {
 public:
  LiveRunner(const Args& args, const LiveSetup& setup,
             sched::Executor* executor, Report* report)
      : setup_(setup),
        executor_(executor),
        report_(report),
        base_(args.work_dir + "/live_ingest-" + std::to_string(::getpid())) {}

  Round RunRound(int index, bool traced) {
    Round round;
    round.traced = traced;
    const std::size_t batches = setup_.bodies.size();
    round.post_s.assign(batches, 0);
    round.handler_s.assign(batches, 0);
    const std::string dir = base_ + "-r" + std::to_string(index);
    RemoveTree(dir);

    live::LiveServiceOptions options;
    options.builder = StreamOptions(*setup_.museum, setup_.lateness);
    options.store.directory = dir;
    options.store.runner = executor_;
    live::LiveService service(options);
    live::HttpServer server(executor_);
    if (traced) {
      // The same handler LiveService registers, timed around IngestBody.
      server.Handle("POST", "/detections",
                    [&service, &round](const live::HttpRequest& request) {
                      const Clock::time_point start = Clock::now();
                      std::size_t accepted = 0;
                      const Status status =
                          service.IngestBody(request.body, &accepted);
                      const double spent = SecondsSince(start);
                      live::HttpResponse response;
                      if (!status.ok()) {
                        response.status = 400;
                        response.body = "{\"error\": " +
                                        io::JsonEscape(status.message()) +
                                        "}\n";
                        return response;
                      }
                      const std::string* batch = request.QueryParam("batch");
                      if (batch != nullptr) {
                        const std::size_t b =
                            std::strtoull(batch->c_str(), nullptr, 10);
                        if (b < round.handler_s.size()) {
                          round.handler_s[b] = spent;
                        }
                      }
                      response.body =
                          "{\"accepted\":" + std::to_string(accepted) + "}\n";
                      return response;
                    });
    } else {
      service.RegisterRoutes(&server);
    }
    const Status bound = server.Bind(0);
    report_->Attempt(bound, "live_ingest: bind");
    if (!bound.ok()) return round;
    if (traced) executor_->trace().Clear();
    Status served;
    std::thread serve([&server, &served] { served = server.Serve(); });

    // Window of two batches in flight: batch k is sent once every batch
    // before k - 1 is acknowledged, so the only reordering the server
    // can see is a batch overtaken by its successor — what the allowed
    // lateness admits.
    std::mutex window_mutex;
    std::condition_variable window_moved;
    std::vector<char> acked(batches, 0);
    std::size_t acked_prefix = 0;
    std::atomic<std::int64_t> last_acked{-1};
    std::atomic<bool> ingesting{true};
    // One slot per batch, written by the client that sent it.
    std::vector<char> post_ok(batches, 0);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t b = static_cast<std::size_t>(c); b < batches;
             b += kConnections) {
          {
            std::unique_lock<std::mutex> lock(window_mutex);
            window_moved.wait(lock, [&] { return acked_prefix + 1 >= b; });
          }
          std::string response;
          const Clock::time_point sent = Clock::now();
          const int status =
              Post(server.port(), "/detections?batch=" + std::to_string(b),
                   setup_.bodies[b], &response);
          round.post_s[b] = SecondsSince(sent);
          post_ok[b] = status == 200 &&
                       AcceptedCount(response) ==
                           static_cast<std::int64_t>(setup_.batch_sizes[b]);
          {
            std::lock_guard<std::mutex> lock(window_mutex);
            acked[b] = 1;
            while (acked_prefix < batches && acked[acked_prefix] != 0) {
              ++acked_prefix;
            }
            last_acked = static_cast<std::int64_t>(acked_prefix) - 1;
          }
          window_moved.notify_all();
        }
      });
    }
    std::thread reader(
        [&] { ReadLoop(service, start, last_acked, ingesting, &round); });
    for (std::thread& client : clients) client.join();
    round.ingest_s = SecondsSince(start);
    ingesting = false;
    reader.join();
    for (std::size_t b = 0; b < batches; ++b) {
      report_->Attempt(post_ok[b] != 0,
                       "live_ingest: POST " + std::to_string(b) +
                           " not answered 200 with the whole batch accepted");
    }

    const Status flushed = service.FlushAll();
    report_->Attempt(flushed, "live_ingest: flush");
    const Status closed = service.Close();
    report_->Attempt(closed, "live_ingest: close");
    if (traced) {
      round.compact_busy_s = SpanSeconds(*executor_, "live/compact");
      round.connection_busy_s = SpanSeconds(*executor_, "live/http-connection");
    }
    server.Stop();
    serve.join();
    report_->Attempt(served, "live_ingest: serve");

    const io::JsonValue stats = service.StatsJson();
    report_->Attempt(StatsField(stats, "builder", "late_dropped") == 0,
                     "live_ingest: detections dropped as late");
    report_->Attempt(static_cast<std::size_t>(StatsField(stats, "builder",
                                                         "finalized")) ==
                         setup_.trajectories,
                     "live_ingest: finalized count differs from the batch "
                     "oracle");
    round.segment_bytes = StatsField(stats, "store", "segment_bytes");
    round.written_bytes = StatsField(stats, "store", "written_bytes");
    round.logical_bytes = StatsField(stats, "store", "logical_bytes");
    if (flushed.ok()) {
      const Scanned scanned = CheckAnswers(service.Snapshot(), "service");
      round.check_rows = scanned.rows;
      round.check_s = scanned.seconds;
    }
    RemoveTree(dir);
    return round;
  }

  /// The single-threaded replay: deterministic counters, and per-stage
  /// costs when traced.
  void Replay(bool traced) {
    const std::string dir = base_ + "-replay";
    RemoveTree(dir);
    live::IncrementalBuilder builder(
        StreamOptions(*setup_.museum, setup_.lateness));
    live::SegmentStoreOptions store_options;
    store_options.directory = dir;
    live::SegmentStore store(store_options);
    double parse_s = 0;
    double build_s = 0;
    double append_s = 0;
    for (const std::string& body : setup_.bodies) {
      const Clock::time_point t0 = Clock::now();
      Result<std::vector<core::RawDetection>> parsed =
          live::ParseDetectionBatch(body);
      const Clock::time_point t1 = Clock::now();
      if (!parsed.ok()) {
        report_->Attempt(parsed.status(), "live_ingest: replay parse");
        continue;
      }
      std::vector<core::SemanticTrajectory> finalized;
      const Status ingested = builder.Ingest(*parsed, &finalized);
      const Clock::time_point t2 = Clock::now();
      const Status appended = finalized.empty()
                                  ? Status::OK()
                                  : store.Append(std::move(finalized));
      const Clock::time_point t3 = Clock::now();
      if (!ingested.ok() || !appended.ok()) {
        report_->Attempt(ingested.ok() ? appended : ingested,
                         "live_ingest: replay ingest");
      }
      parse_s += Seconds(t0, t1);
      build_s += Seconds(t1, t2);
      append_s += Seconds(t2, t3);
    }
    std::vector<core::SemanticTrajectory> rest;
    Status drained = builder.Drain(&rest);
    if (drained.ok() && !rest.empty()) drained = store.Append(std::move(rest));
    if (drained.ok()) drained = store.Flush();
    report_->Attempt(drained, "live_ingest: replay drain");
    report_->Attempt(store.Close(), "live_ingest: replay close");

    const live::IncrementalStats& b = builder.stats();
    const live::SegmentStoreStats s = store.stats();
    const std::uint64_t sealed =
        s.segments + s.compactions * (store_options.compaction_fanin - 1);
    report_->Attempt(b.late_dropped == 0, "live_ingest: replay dropped late");
    report_->Counter("trajectories_finalized", b.finalized);
    report_->Counter("late_dropped", b.late_dropped);
    report_->Counter("segments_sealed", sealed);
    report_->Counter("compactions", s.compactions);
    report_->Counter("bytes_written", s.written_bytes);
    report_->Counter("logical_bytes", s.logical_bytes);
    report_->Counter("peak_buffered_detections", b.peak_buffered_detections);

    Result<storage::StoreSet> snapshot =
        store.Snapshot(StreamOptions(*setup_.museum, setup_.lateness)
                           .builder.first_trajectory_id);
    const Scanned scanned = CheckAnswers(snapshot, "replay");
    report_->Counter("rows_decoded", scanned.rows);
    report_->Counter("blocks_touched", scanned.blocks);

    if (traced) {
      const double dets = static_cast<double>(setup_.detections);
      report_->Metric("io.parse_us_per_det", parse_s * 1e6 / dets, "us");
      report_->Metric("live.builder_us_per_det", build_s * 1e6 / dets, "us");
      report_->Metric("live.store_append_us_per_det", append_s * 1e6 / dets,
                      "us");
      report_->Metric("live.finalized", static_cast<double>(b.finalized),
                      "count");
      report_->Metric("live.late_dropped", static_cast<double>(b.late_dropped),
                      "count");
      report_->Metric("live.segments_sealed", static_cast<double>(sealed),
                      "count");
      report_->Metric("live.compactions", static_cast<double>(s.compactions),
                      "count");
      report_->Metric("live.bytes_written",
                      static_cast<double>(s.written_bytes), "B");
      report_->Metric("live.peak_buffered_detections",
                      static_cast<double>(b.peak_buffered_detections), "count");
      report_->Metric("storage.rows_scanned", static_cast<double>(scanned.rows),
                      "count");
      report_->Metric("storage.blocks_scanned",
                      static_cast<double>(scanned.blocks), "count");
      if (snapshot.ok()) {
        DecodePass pass;
        for (const storage::StoreSetSegment& segment : snapshot->segments) {
          DecodeEveryBlock(*segment.reader, report_, &pass);
        }
        report_->Metric("storage.decode_rows_per_s", pass.RowsPerSecond(),
                        "1/s");
      }
    }
    RemoveTree(dir);
  }

 private:
  struct Scanned {
    std::uint64_t rows = 0;
    std::uint64_t blocks = 0;
    double seconds = 0;
  };

  void ReadLoop(const live::LiveService& service, Clock::time_point start,
                const std::atomic<std::int64_t>& last_acked,
                const std::atomic<bool>& ingesting, Round* round) {
    // The query runs on the reader's own thread: fanned out, its tasks
    // would queue behind ingest requests on the executor.
    const query::QueryExecutor executor(setup_.museum->QueryContextFor());
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kReadsPerSecond));
    for (std::int64_t i = 1; ingesting.load(); ++i) {
      const Clock::time_point due = start + period * i;
      std::this_thread::sleep_until(due);
      if (!ingesting.load()) break;
      const std::int64_t acked = last_acked.load();
      if (acked < 0) continue;
      const Clock::time_point began = Clock::now();
      Result<storage::StoreSet> snapshot = service.Snapshot();
      const Clock::time_point snapped = Clock::now();
      if (!snapshot.ok()) {
        report_->Attempt(snapshot.status(), "live_ingest: snapshot");
        continue;
      }
      const std::size_t b = static_cast<std::size_t>(acked);
      const query::Query q =
          i % 2 == 0
              ? Lookup(setup_.batch_object[b])
              : CountQuery(query::TimeWindow(
                    setup_.batch_latest[b] - Duration::Hours(1),
                    setup_.batch_latest[b]));
      Result<query::QueryResult> result = executor.Run(q, *snapshot);
      const Clock::time_point answered = Clock::now();
      report_->Attempt(result.status(), "live_ingest: snapshot query");
      if (!result.ok()) continue;
      round->lateness_s.push_back(Seconds(due, began));
      round->read_s.push_back(Seconds(due, answered));
      round->snapshot_s.push_back(Seconds(began, snapped));
      round->run_s.push_back(Seconds(snapped, answered));
    }
  }

  Scanned CheckAnswers(const Result<storage::StoreSet>& snapshot,
                       const std::string& source) {
    Scanned scanned;
    report_->Attempt(snapshot.status(), "live_ingest: " + source + " snapshot");
    if (!snapshot.ok()) return scanned;
    const query::QueryExecutor executor(setup_.museum->QueryContextFor());
    for (std::size_t i = 0; i < setup_.checks.size(); ++i) {
      const Clock::time_point start = Clock::now();
      Result<query::QueryResult> result =
          executor.Run(setup_.checks[i], *snapshot);
      scanned.seconds += SecondsSince(start);
      if (!result.ok()) {
        report_->Attempt(result.status(), "live_ingest: " + source + " check");
        continue;
      }
      report_->Attempt(Hash(result->Fingerprint()) == setup_.reference[i],
                       "live_ingest: " + source + " answer " +
                           std::to_string(i) +
                           " differs from the batch oracle");
      scanned.rows += result->stats.rows_scanned;
      scanned.blocks += result->stats.blocks_scanned;
    }
    return scanned;
  }

  const LiveSetup& setup_;
  sched::Executor* executor_;
  Report* report_;
  std::string base_;
};

std::vector<double> Milliseconds(const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (const double s : seconds) ms.push_back(s * 1e3);
  return ms;
}

/// Pools one per-round sample vector over the untraced or traced rounds.
std::vector<double> Gather(const std::vector<Round>& rounds, bool traced,
                           std::vector<double> Round::*field) {
  std::vector<double> values;
  for (const Round& round : rounds) {
    if (round.traced != traced) continue;
    const std::vector<double>& part = round.*field;
    values.insert(values.end(), part.begin(), part.end());
  }
  return values;
}


}  // namespace

int RunLiveIngest(const Args& args, Report* report) {
  sched::Executor executor(sched::Executor::DefaultConcurrency());
  std::unique_ptr<LiveSetup> setup;
  double setup_s = 0;
  const Status status = TimedSetups(
      3, [&] { return Setup(args, &executor); }, &setup, &setup_s);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  report->Context("visitors", args.tiny ? 300.0 : 50000.0);
  report->Context("detections", static_cast<double>(setup->detections));
  report->Context("trajectories", static_cast<double>(setup->trajectories));
  report->Context("tuples", static_cast<double>(setup->tuples));
  report->Context("batches", static_cast<double>(setup->bodies.size()));
  report->Context("connections", static_cast<double>(kConnections));
  report->Context("reads_per_s", kReadsPerSecond);
  report->Context("lateness_s",
                  static_cast<double>(setup->lateness.seconds()));
  report->Context("server_workers",
                  static_cast<double>(executor.num_workers()));

  LiveRunner runner(args, *setup, &executor, report);
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  // The traced run alternates untraced and traced rounds, so the
  // tracing overhead is measured within the run.
  while (rounds.size() < (args.trace ? 2u : 1u) ||
         SecondsSince(start) < args.seconds) {
    const int index = static_cast<int>(rounds.size());
    rounds.push_back(runner.RunRound(index, args.trace && index % 2 == 1));
    ReleaseFreedMemory();
  }
  report->Context("rounds", static_cast<double>(rounds.size()));
  runner.Replay(args.trace);

  const double tuples =
      static_cast<double>(std::max<std::uint64_t>(1, setup->tuples));
  std::vector<double> rates;
  std::vector<double> read_p50_ms;
  std::vector<double> bytes_per_tuple;
  std::vector<double> write_amp;
  std::uint64_t check_rows = 0;
  double check_s = 0;
  for (const Round& round : rounds) {
    if (round.traced) continue;
    rates.push_back(static_cast<double>(setup->detections) / round.ingest_s);
    read_p50_ms.push_back(Quantile(Milliseconds(round.read_s), 0.5));
    bytes_per_tuple.push_back(static_cast<double>(round.segment_bytes) /
                              tuples);
    write_amp.push_back(static_cast<double>(round.written_bytes) /
                        static_cast<double>(
                            std::max<std::int64_t>(1, round.logical_bytes)));
    check_rows += round.check_rows;
    check_s += round.check_s;
  }
  const std::vector<double> reads_ms =
      Milliseconds(Gather(rounds, false, &Round::read_s));
  const std::vector<double> post_ms =
      Milliseconds(Gather(rounds, false, &Round::post_s));
  report->Metric("throughput_per_s", Median(rates), "1/s");
  report->Info("live_det_per_s", Median(rates), "1/s");
  // The read p50 per round, then the median over rounds, so each round
  // weighs the same however long its ingest took; a round has too few
  // reads for ten beyond its p95, so the p95 pools the rounds.
  report->Metric("latency_p50_ms", Median(read_p50_ms), "ms");
  report->Info("snapshot_query_p50_ms", Median(read_p50_ms), "ms");
  report->Metric("latency_p95_ms", Quantile(reads_ms, 0.95), "ms");
  report->Metric("scan_rows_per_s",
                 static_cast<double>(check_rows) / std::max(1e-9, check_s),
                 "1/s");
  report->Metric("bytes_per_tuple", Median(bytes_per_tuple), "B");
  report->Info("store_bytes_per_tuple", Median(bytes_per_tuple), "B");
  report->Info("live_write_amp", Median(write_amp), "ratio");
  report->Info("ingest_p50_ms", Quantile(post_ms, 0.5), "ms");
  report->Info("ingest_p99_ms", Quantile(post_ms, 0.99), "ms");
  report->Info("snapshot_query_p99_ms", Quantile(reads_ms, 0.99), "ms");
  report->Context("read_samples", static_cast<double>(reads_ms.size()));
  report->Context("post_samples", static_cast<double>(post_ms.size()));

  if (args.trace) {
    report->Metric("live.ingest_p50_ms", Quantile(post_ms, 0.5), "ms");
    report->Metric("live.ingest_p99_ms", Quantile(post_ms, 0.99), "ms");
    report->Metric("live.write_amp", Median(write_amp), "ratio");
    report->Metric("live.det_per_s", Median(rates), "1/s");
    report->Metric("live.snapshot_query_p50_ms", Median(read_p50_ms), "ms");
    report->Metric("live.snapshot_query_p95_ms", Quantile(reads_ms, 0.95),
                   "ms");
    report->Metric("latency_p99_ms", Quantile(reads_ms, 0.99), "ms");
    const std::vector<double> lateness_ms =
        Milliseconds(Gather(rounds, false, &Round::lateness_s));
    report->Metric("live.reader_lateness_ms_p99", Quantile(lateness_ms, 0.99),
                   "ms");
    std::vector<double> handler_ms;
    std::vector<double> http_ms;
    std::vector<double> compact_s;
    std::vector<double> coverage;
    std::vector<double> traced_ingest;
    std::vector<double> untraced_ingest;
    for (const Round& round : rounds) {
      if (!round.traced) {
        untraced_ingest.push_back(round.ingest_s);
        continue;
      }
      traced_ingest.push_back(round.ingest_s);
      for (std::size_t b = 0; b < round.post_s.size(); ++b) {
        handler_ms.push_back(round.handler_s[b] * 1e3);
        http_ms.push_back((round.post_s[b] - round.handler_s[b]) * 1e3);
      }
      compact_s.push_back(round.compact_busy_s);
      coverage.push_back(round.connection_busy_s / Sum(round.post_s));
    }
    report->Metric("live.handler_ms_p50", Quantile(handler_ms, 0.5), "ms");
    report->Metric("live.handler_ms_p99", Quantile(handler_ms, 0.99), "ms");
    report->Metric("live.http_ms_p50", Quantile(http_ms, 0.5), "ms");
    report->Metric("live.compact_busy_s", Median(compact_s), "s");
    const std::vector<double> snapshot_ms =
      Milliseconds(Gather(rounds, true, &Round::snapshot_s));
    const std::vector<double> storeset_ms =
      Milliseconds(Gather(rounds, true, &Round::run_s));
    report->Metric("live.snapshot_ms_p50", Quantile(snapshot_ms, 0.5), "ms");
    report->Metric("query.storeset_run_ms_p50", Quantile(storeset_ms, 0.5),
                   "ms");
    report->Metric("trace.coverage", Median(coverage), "ratio");
    report->Metric("trace.overhead",
                   Median(traced_ingest) / Median(untraced_ingest), "ratio");
  }
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace sitm::perfbench
