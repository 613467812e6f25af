#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the library sources under src/) into .bench_build/;
later runs only rebuild what changed. The benchmark's own output is
passed through; its last line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Each run's full record, stamped with the host fingerprint,
is also appended to .bench_build/records.jsonl (see compare.py), and a
traced run writes its spans as Chrome trace events to
.bench_build/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve-hot-8k", "bulk-4m", "churn-64k", "dist-1m")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then incremental builds; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; nothing to build")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed")


def source_sha():
    """Git commit when run in a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "content-" + digest.hexdigest()[:16]


def expected_metric_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    started = time.monotonic()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-sha", source_sha()]
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        trace_file = os.path.join(BUILD_ROOT, "traces",
                                  "%s-seed%d.trace.json" % (args.workload, args.seed))
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])
    names = expected_metric_names(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(names) ^ set(result["metrics"])))
    if trace_file is not None:
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        print("# trace file parses: %d events" % len(events))
    record = [l for l in lines if l.startswith("PERFBENCH_RECORD ")]
    if record:
        with open(os.path.join(BUILD_ROOT, "records.jsonl"), "a") as f:
            f.write(record[-1][len("PERFBENCH_RECORD "):] + "\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
