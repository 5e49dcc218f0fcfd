#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Every test drives perfbench/run.py with --tiny (a few hundred visitors),
so the whole file takes well under a minute once the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("batch_etl", "live_ingest", "query_serve")

# The workload-specific end-to-end names each workload prints in its
# human-readable lines.
WORKLOAD_METRICS = {
    "batch_etl": ["batch_det_per_s", "scan_rows_per_s",
                  "store_bytes_per_tuple", "setup_s", "peak_rss_mb",
                  "error_rate"],
    "live_ingest": ["live_det_per_s", "store_bytes_per_tuple",
                    "ingest_p50_ms", "ingest_p99_ms",
                    "snapshot_query_p50_ms", "snapshot_query_p99_ms",
                    "live_write_amp", "setup_s", "peak_rss_mb",
                    "error_rate"],
    "query_serve": ["query_per_s", "query_p50_us", "query_p99_us",
                    "setup_s", "peak_rss_mb", "error_rate"],
}
CONTEXT_KEYS = ["cores", "build_type", "git_sha", "source_digest", "seed",
                "workers", "visitors", "detections", "trajectories",
                "tuples"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, *extra, seed=7, trace=0, cwd=ROOT, script=RUN):
    result = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return result


def parse(stdout):
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    context = next(json.loads(line)["context"] for line in lines
                   if line.startswith('{"context"'))
    counters = next(json.loads(line)["counters"] for line in lines
                    if line.startswith('{"counters"'))
    printed = {}
    for line in lines:
        words = line.split()
        if len(words) >= 5 and words[0] in ("metric", "info") and \
                words[2] == "=":
            printed[words[1]] = (float(words[3]), words[4])
    return final, context, counters, printed


class MetricsEmitted(unittest.TestCase):
    """A tiny run of each workload emits every declared metric with its
    unit, from the untraced run and from the traced run."""

    def check(self, workload, trace):
        benchmark = load_benchmark()
        declared = benchmark["per_layer" if trace else "end_to_end"]
        result = run(workload, trace=trace)
        self.assertEqual(result.returncode, 0, result.stderr)
        final, context, counters, printed = parse(result.stdout)
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(list(final["metrics"]),
                         [metric["name"] for metric in declared])
        for metric in declared:
            value = final["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(value["value"], (int, float))
        for key in CONTEXT_KEYS:
            self.assertIn(key, context)
        self.assertTrue(counters)
        if not trace:
            for name in WORKLOAD_METRICS[workload]:
                self.assertIn(name, printed, f"{workload} prints {name}")
        if trace and workload == "batch_etl":
            # live_ingest is not a workload of BENCHMARK.json; batch_etl's
            # traced run measures its layers (a tiny round ends before
            # the snapshot reader's first read is due).
            for name in ("live.det_per_s", "live.handler_ms_p50",
                         "live.http_ms_p50", "io.parse_us_per_det",
                         "live.builder_us_per_det"):
                self.assertGreater(final["metrics"][name]["value"], 0, name)
            self.assertIn("live.trajectories_finalized", counters)

    def test_batch_etl(self):
        self.check("batch_etl", 0)
        self.check("batch_etl", 1)

    def test_live_ingest(self):
        self.check("live_ingest", 0)
        self.check("live_ingest", 1)

    def test_query_serve(self):
        self.check("query_serve", 0)
        self.check("query_serve", 1)


class CorruptedOracle(unittest.TestCase):
    """With every reference answer perturbed, each workload counts the
    mismatches as failures and exits nonzero."""

    def test_every_workload_fails(self):
        for workload in WORKLOADS:
            result = run(workload, "--corrupt-oracle")
            self.assertNotEqual(result.returncode, 0, workload)
            final, _, _, printed = parse(result.stdout)
            self.assertFalse(final["correct"], workload)
            self.assertGreater(final["failed"], 0, workload)
            self.assertGreater(printed["error_rate"][0], 0, workload)


class CountersRepeat(unittest.TestCase):
    """The deterministic work counters repeat exactly for a seed and
    follow the input when the seed changes."""

    def test_counters(self):
        for workload in WORKLOADS:
            first = parse(run(workload, seed=11).stdout)[2]
            again = parse(run(workload, seed=11).stdout)[2]
            other = parse(run(workload, seed=12).stdout)[2]
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)


class BareCheckout(unittest.TestCase):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result."""

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run("batch_etl", cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
