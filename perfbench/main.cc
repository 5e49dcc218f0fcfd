// The repository benchmark: one binary, three workloads (batch_etl,
// live_ingest, query_serve). Each run prints a context line, the
// deterministic work counters, one line per metric, and finally the JSON
// result object; it exits nonzero when any operation failed its oracle.
// Run it through perfbench/run.py, which builds it first.
//
// live_ingest is not a workload of BENCHMARK.json: on a shared host its
// end-to-end figures spread across runs nearly as far as the largest
// bound the benchmark may set (see perfbench/README.md). So that the live
// and io layers are still measured on a benchmark workload, the traced
// batch_etl run also runs live_ingest traced, each for half the time.

#include <cstdio>
#include <string>
#include <thread>

#include "common.h"

int main(int argc, char** argv) {
  using namespace sitm::perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "batch_etl") {
    run = RunBatchEtl;
  } else if (args.workload == "live_ingest") {
    run = RunLiveIngest;
  } else if (args.workload == "query_serve") {
    run = RunQueryServe;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!MakeDirs(args.work_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  Report report(args);
  report.Context("workload", args.workload);
  report.Context("seed", static_cast<double>(args.seed));
  report.Context("seconds", args.seconds);
  report.Context("trace", args.trace ? 1.0 : 0.0);
  report.Context("scale", args.tiny ? "tiny" : "full");
  report.Context("cores",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report.Context("workers", static_cast<double>(
                                sitm::sched::Executor::DefaultConcurrency()));
  report.Context("build_type", SITM_PERFBENCH_BUILD_TYPE);
  report.Context("git_sha", args.git_sha);
  report.Context("source_digest", args.source_digest);
  if (args.corrupt_oracle) report.Context("corrupt_oracle", 1.0);

  const bool with_live = args.workload == "batch_etl" && args.trace;
  Args part = args;
  if (with_live) part.seconds = args.seconds / 2;
  int setup_status = run(part, &report);
  if (setup_status == 0 && with_live) {
    Report live(part);
    setup_status = RunLiveIngest(part, &live);
    report.Merge(live, "live.");
  }
  if (setup_status != 0) {
    // A workload could not be set up: no result line.
    std::fprintf(stderr, "perfbench: %s set-up failed\n",
                 args.workload.c_str());
    return setup_status;
  }
  return report.Finish();
}
