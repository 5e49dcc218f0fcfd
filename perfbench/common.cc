#include "common.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>

#include "core/annotation.h"
#include "core/enrichment.h"
#include "io/json.h"
#include "louvre/simulator.h"

namespace sitm::perfbench {

namespace {

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

// Numbers go out with every digit the double holds (a rounded timing
// would read the same in every run); non-finite values cannot be JSON
// and become 0.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

constexpr int kMaxLoggedFailures = 10;

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    bool ok = true;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-oracle") {
      args->corrupt_oracle = true;
    } else if ((v = value()) == nullptr) {
      ok = false;
    } else if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      ok = ParseUint(v, &args->seed);
    } else if (flag == "--seconds") {
      ok = ParseDouble(v, &args->seconds) && args->seconds > 0;
    } else if (flag == "--trace") {
      const std::string t = v;
      ok = t == "0" || t == "1";
      args->trace = t == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = v;
    } else if (flag == "--source-digest") {
      args->source_digest = v;
    } else if (flag == "--work-dir") {
      args->work_dir = v;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad argument near '%s'\n",
                   flag.c_str());
      return false;
    }
  }
  if (args->workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

std::uint64_t Hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void ReleaseFreedMemory() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},    {"scan_rows_per_s", "1/s"},
      {"bytes_per_tuple", "B"},    {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"core.pipeline_s", "s"},
      {"core.build_busy_s", "s"},
      {"core.enrich_busy_s", "s"},
      {"core.serial_s", "s"},
      {"core.speedup", "x"},
      {"sched.utilization", "ratio"},
      {"storage.append_s", "s"},
      {"storage.finish_s", "s"},
      {"storage.decode_rows_per_s", "1/s"},
      {"storage.blocks_scanned", "count"},
      {"storage.rows_scanned", "count"},
      {"query.scan_overhead_s", "s"},
      {"query.plan_us", "us"},
      {"query.storeset_run_ms_p50", "ms"},
      {"query.cache_hit_ratio", "ratio"},
      {"query.repeat_share", "ratio"},
      {"query.hit_us_p50", "us"},
      {"query.miss_us_p50", "us"},
      {"io.parse_us_per_det", "us"},
      {"live.handler_ms_p50", "ms"},
      {"live.handler_ms_p99", "ms"},
      {"live.http_ms_p50", "ms"},
      {"live.builder_us_per_det", "us"},
      {"live.store_append_us_per_det", "us"},
      {"live.compact_busy_s", "s"},
      {"live.snapshot_ms_p50", "ms"},
      {"live.finalized", "count"},
      {"live.late_dropped", "count"},
      {"live.segments_sealed", "count"},
      {"live.compactions", "count"},
      {"live.bytes_written", "B"},
      {"live.peak_buffered_detections", "count"},
      {"live.ingest_p50_ms", "ms"},
      {"live.ingest_p99_ms", "ms"},
      {"live.write_amp", "ratio"},
      {"live.reader_lateness_ms_p99", "ms"},
      {"live.det_per_s", "1/s"},
      {"live.snapshot_query_p50_ms", "ms"},
      {"live.snapshot_query_p95_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return metrics;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  lines_.emplace_back(name,
                      "metric " + name + " = " + Number(value) + " " + unit);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  lines_.emplace_back(name,
                      "info   " + name + " = " + Number(value) + " " + unit);
}

void Report::Counter(const std::string& name, std::uint64_t value) {
  counters_[name] = value;
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, io::JsonEscape(value));
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, Number(value));
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= kMaxLoggedFailures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::Attempt(const Status& status, const std::string& what) {
  Attempt(status.ok(), what + ": " + status.ToString());
}

void Report::Merge(const Report& part, const std::string& prefix) {
  attempted_ += part.attempted_;
  failed_ += part.failed_;
  for (const auto& [name, value] : part.counters_) {
    counters_[prefix + name] = value;
  }
  for (const auto& [key, value] : part.context_) {
    context_.emplace_back(prefix + key, value);
  }
  std::set<std::string> printed;
  for (const auto& [name, line] : lines_) printed.insert(name);
  for (const auto& [name, line] : part.lines_) {
    if (printed.count(name) != 0) continue;
    lines_.emplace_back(name, line);
    const auto metric = part.metrics_.find(name);
    if (metric != part.metrics_.end()) metrics_[name] = metric->second;
  }
}

int Report::Finish() {
  const auto& declared = args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  for (const auto& [name, unit] : declared) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      // A layer this workload does not exercise: reported as 0.
      if (!args_.trace) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     name.c_str());
        complete = false;
      }
      metrics_[name] = {0.0, unit};
    } else if (it->second.second != unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, declared %s\n",
                   name.c_str(), it->second.second.c_str(), unit.c_str());
      complete = false;
    }
  }
  const double error_rate =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);

  std::string context = "{\"context\": {";
  bool first = true;
  for (const auto& [key, value] : context_) {
    context += (first ? "" : ", ") + io::JsonEscape(key) + ": " + value;
    first = false;
  }
  std::cout << context << "}}\n";
  std::string counters = "{\"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    counters += (first ? "" : ", ") + io::JsonEscape(name) + ": " +
                std::to_string(value);
    first = false;
  }
  std::cout << counters << "}}\n";
  for (const auto& [name, line] : lines_) std::cout << line << "\n";
  std::cout << "info   error_rate = " << Number(error_rate) << " ratio ("
            << failed_ << " of " << attempted_ << " operations failed)\n";

  const bool correct = failed_ == 0 && attempted_ > 0 && complete;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, unit] : declared) {
    const auto& [value, u] = metrics_[name];
    json += (first ? "" : ", ") + io::JsonEscape(name) +
            ": {\"value\": " + Number(value) +
            ", \"unit\": " + io::JsonEscape(u) + "}";
    first = false;
  }
  std::cout << json << "}}\n" << std::flush;
  return correct ? 0 : 1;
}

Result<std::unique_ptr<Museum>> Museum::Build() {
  auto museum = std::make_unique<Museum>();
  SITM_ASSIGN_OR_RETURN(louvre::LouvreMap map, louvre::LouvreMap::Build());
  museum->map = std::make_unique<louvre::LouvreMap>(std::move(map));
  SITM_ASSIGN_OR_RETURN(indoor::LayerHierarchy hierarchy,
                        museum->map->BuildHierarchy());
  museum->hierarchy =
      std::make_unique<indoor::LayerHierarchy>(std::move(hierarchy));
  return museum;
}

const indoor::Nrg& Museum::zone_graph() const {
  return map->graph().FindLayer(map->zone_layer()).value()->graph();
}

query::QueryContext Museum::QueryContextFor() const {
  query::QueryContext context;
  context.hierarchy = hierarchy.get();
  context.graph = &map->graph();
  return context;
}

Result<std::vector<core::RawDetection>> SimulateVisits(const Museum& museum,
                                                       int visitors,
                                                       std::uint64_t seed) {
  louvre::SimulatorOptions options;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  options.seed = seed;
  louvre::VisitSimulator simulator(museum.map.get(), options);
  SITM_ASSIGN_OR_RETURN(louvre::VisitDataset dataset, simulator.Generate());
  return dataset.ToRawDetections();
}

core::PipelineOptions FullPipeline(const Museum& museum, TaskRunner* runner) {
  core::PipelineOptions options;
  options.builder.graph = &museum.zone_graph();
  options.rules = {
      core::AnnotateStopsAndMoves(Duration::Minutes(5),
                                  {core::AnnotationKind::kBehavior, "stop"},
                                  {core::AnnotationKind::kBehavior, "move"}),
      core::AnnotateWhereAttribute("requiresTicket", "true",
                                   {core::AnnotationKind::kOther, "ticketed"}),
      core::AnnotateFinalExit(museum.map->exit_zones(),
                              {core::AnnotationKind::kGoal, "leaving"}),
  };
  options.infer_hidden_passages = true;
  options.executor = runner;
  return options;
}

double SpanSeconds(const sched::Executor& executor, const std::string& name) {
  std::int64_t total = 0;
  for (const sched::TraceSpan& span : executor.trace().Spans()) {
    if (span.kind != sched::TraceSpan::Kind::kTask) continue;
    if (!name.empty() && name != span.name) continue;
    total += span.end_ns - span.begin_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

double CoveredSeconds(const sched::Executor& executor, std::int64_t begin_ns,
                      std::int64_t end_ns) {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const sched::TraceSpan& span : executor.trace().Spans()) {
    if (span.kind != sched::TraceSpan::Kind::kTask) continue;
    const std::int64_t b = std::max(begin_ns, span.begin_ns);
    const std::int64_t e = std::min(end_ns, span.end_ns);
    if (e > b) spans.emplace_back(b, e);
  }
  std::sort(spans.begin(), spans.end());
  std::int64_t covered = 0;
  std::int64_t cursor = begin_ns;
  for (const auto& [b, e] : spans) {
    const std::int64_t from = std::max(b, cursor);
    if (e > from) covered += e - from;
    cursor = std::max(cursor, e);
  }
  return static_cast<double>(covered) * 1e-9;
}

double DecodePass::RowsPerSecond() const {
  const double seconds = Sum(block_seconds);
  return seconds > 0 ? static_cast<double>(rows) / seconds : 0;
}

void DecodeEveryBlock(const storage::EventStoreReader& reader, Report* report,
                      DecodePass* pass) {
  for (std::size_t b = 0; b < reader.num_blocks(); ++b) {
    std::vector<core::SemanticTrajectory> out;
    const Clock::time_point start = Clock::now();
    const Status status =
        reader.ReadTrajectoryBlock(b, storage::ScanOptions{}, out);
    pass->block_seconds.push_back(SecondsSince(start));
    report->Attempt(status, "decode block " + std::to_string(b));
    pass->rows += reader.block(b).rows;
  }
}

query::Query CountQuery(query::Predicate where) {
  query::Query q;
  q.where = std::move(where);
  q.projection = query::Projection::kCount;
  return q;
}

void RemoveTree(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") {
      ::unlink((directory + "/" + name).c_str());
    }
  }
  ::closedir(dir);
  ::rmdir(directory.c_str());
}

bool MakeDirs(const std::string& directory) {
  std::string path;
  std::stringstream parts(directory);
  std::string part;
  if (!directory.empty() && directory[0] == '/') path = "/";
  while (std::getline(parts, part, '/')) {
    if (part.empty()) continue;
    path += part + "/";
    if (::mkdir(path.c_str(), 0775) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace sitm::perfbench
