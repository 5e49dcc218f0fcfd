#pragma once

// Shared scaffolding of the repository benchmark: argument parsing, the
// result report (metrics, counters, context, failure accounting), the
// simulated Louvre inputs every workload draws from, and small timing
// and statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/builder.h"
#include "core/pipeline.h"
#include "indoor/hierarchy.h"
#include "indoor/nrg.h"
#include "louvre/museum.h"
#include "query/executor.h"
#include "sched/executor.h"
#include "storage/event_store.h"

namespace sitm::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// A few hundred visitors instead of the full workload (the
  /// benchmark's own tests).
  bool tiny = false;
  /// Perturbs every reference answer, so each oracle check must fail.
  bool corrupt_oracle = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Scratch directory for store and segment files.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Parses argv; returns false (after printing why) on a bad command line.
bool ParseArgs(int argc, char** argv, Args* args);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// FNV-1a 64 of a string (answers are compared by this hash).
std::uint64_t Hash(const std::string& text);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Returns memory freed by a finished repetition to the system, so the
/// peak resident size measures one repetition's working set rather than
/// allocator retention across repetitions.
void ReleaseFreedMemory();

/// \brief Everything one run prints: a context line, the deterministic
/// counters, one human-readable line per metric, and the final JSON
/// result object.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// A metric of the final JSON line (declared in BENCHMARK.json).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed only in the human-readable lines.
  void Info(const std::string& name, double value, const std::string& unit);
  /// A deterministic work counter: must repeat exactly for a seed.
  void Counter(const std::string& name, std::uint64_t value);
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  /// Counts one operation; a false `ok` is a failure and `what` is
  /// logged to stderr (the first few of them).
  void Attempt(bool ok, const std::string& what = "");
  /// Counts one operation whose Status decides success.
  void Attempt(const Status& status, const std::string& what);

  /// Takes in a report of another workload run in the same process: its
  /// operations, its counters and context (keys prefixed with `prefix`),
  /// and its metric and info lines of names this report has not printed.
  void Merge(const Report& part, const std::string& prefix);

  /// Prints everything; returns the process exit code (0 only when no
  /// operation failed and every declared metric was measured).
  int Finish();

 private:
  Args args_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  /// Printed lines with the metric or info name each one shows.
  std::vector<std::pair<std::string, std::string>> lines_;
  std::map<std::string, std::uint64_t> counters_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Declared metric names, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The Louvre map and the views of it every workload needs. Built anew
/// by each set-up, so set-up time includes it.
struct Museum {
  /// Heap-held so the hierarchy's reference to the map's graph stays
  /// valid.
  std::unique_ptr<louvre::LouvreMap> map;
  std::unique_ptr<indoor::LayerHierarchy> hierarchy;

  static Result<std::unique_ptr<Museum>> Build();
  const indoor::Nrg& zone_graph() const;
  query::QueryContext QueryContextFor() const;
};

/// Simulated Louvre visits with the §4.1 shape scaled to `visitors`:
/// ~40% returning visitors, ~4 detections per visit, seeded.
Result<std::vector<core::RawDetection>> SimulateVisits(const Museum& museum,
                                                       int visitors,
                                                       std::uint64_t seed);

/// The full batch pipeline: stop/move, ticketed and final-exit rules
/// plus hidden-passage inference.
core::PipelineOptions FullPipeline(const Museum& museum, TaskRunner* runner);

/// Sum of the durations of every span named `name` (all spans when
/// empty) recorded by `executor` since its trace was last cleared.
double SpanSeconds(const sched::Executor& executor, const std::string& name);
/// Wall time in [begin_ns, end_ns] covered by at least one task span.
double CoveredSeconds(const sched::Executor& executor, std::int64_t begin_ns,
                      std::int64_t end_ns);

/// Rows and per-block times of decoding store blocks on one thread.
struct DecodePass {
  std::uint64_t rows = 0;
  std::vector<double> block_seconds;  ///< in decode order

  double RowsPerSecond() const;
};

/// Decodes every block of `reader` on the calling thread, appending to
/// `*pass`; a failed decode counts as a failed operation.
void DecodeEveryBlock(const storage::EventStoreReader& reader, Report* report,
                      DecodePass* pass);

/// Query counting the trajectories that match `where`.
query::Query CountQuery(query::Predicate where);

/// Removes `directory` and every regular file directly inside it.
void RemoveTree(const std::string& directory);
/// Creates `directory` and its parents.
bool MakeDirs(const std::string& directory);

/// Runs `setup` `times` times and returns the median wall time; the
/// object built by the last run is kept in `*out`.
template <typename T, typename Fn>
Status TimedSetups(int times, Fn&& setup, std::unique_ptr<T>* out,
                   double* median_seconds) {
  std::vector<double> durations;
  for (int i = 0; i < times; ++i) {
    out->reset();
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<T>> built = setup();
    if (!built.ok()) return built.status();
    durations.push_back(SecondsSince(start));
    *out = std::move(built).value();
  }
  *median_seconds = Median(durations);
  return Status::OK();
}

int RunBatchEtl(const Args& args, Report* report);
int RunLiveIngest(const Args& args, Report* report);
int RunQueryServe(const Args& args, Report* report);

}  // namespace sitm::perfbench
