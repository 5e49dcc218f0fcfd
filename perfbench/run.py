#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_etl --seed 1 --seconds 10 --trace 0

Workloads: batch_etl, live_ingest, query_serve, or `all` (the three in
turn for one seed, each untraced and then traced). `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones (see
perfbench/README.md). The last line
of standard output is the JSON result object; the exit code is nonzero
when the build fails or any operation failed its oracle check.

The benchmark binary is built from the sources under src/ with CMake,
in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Extra flags pass through to the binary: --tiny (a few hundred visitors,
for the benchmark's own tests) and --corrupt-oracle (perturbs every
reference answer, so every check must fail).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_etl", "live_ingest", "query_serve")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(directory):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(directory, "sitm_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    measured code where no git metadata is available."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for directory, dirs, files in os.walk(base):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".cc", ".h", ".py", ".txt")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_one(binary, workload, trace, args, extra):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)] + extra
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    extra = (["--tiny"] if args.tiny else []) + (
        ["--corrupt-oracle"] if args.corrupt_oracle else [])

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}")
        return 1
    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1

    work_dir = os.path.join(os.path.dirname(directory), "perfbench-work",
                            str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    extra += ["--git-sha", git_sha(), "--source-digest", source_digest(),
              "--work-dir", work_dir]
    try:
        status = 0
        runs = [(args.workload, args.trace)]
        if args.workload == "all":
            runs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
        for workload, trace in runs:
            status = run_one(binary, workload, trace, args, extra) or status
        return status
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
