#!/usr/bin/env python3
"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one record per line, as perfbench/run.py appends them
to .bench_build/records.jsonl. Records are grouped by (workload,
trace); for every metric the script prints each side's median, the
change of the medians, and each side's quartile spread as a share of
its median.

It refuses (exit status 2) to compare records whose host fingerprints
differ: CPU model, nproc, LLC size, dispatched kernel variant, NUMA
node count and build type must all match. The source sha is the one
field allowed to differ; it names the code each side ran.
"""

import json
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "llc_bytes", "kernel_variant", "numa_nodes", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host_of(records, path):
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in records}
    if len(hosts) != 1:
        sys.exit("compare: %s mixes records from %d host fingerprints" % (path, len(hosts)))
    return hosts.pop()


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        sys.exit("compare: no records")
    base_host, new_host = host_of(base, sys.argv[1]), host_of(new, sys.argv[2])
    if base_host != new_host:
        for key, a, b in zip(HOST_KEYS, base_host, new_host):
            if a != b:
                print("host fingerprint differs in %s: %r vs %r" % (key, a, b), file=sys.stderr)
        print("compare: refusing to compare records from different hosts", file=sys.stderr)
        return 2

    def grouped(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name, m["unit"])
                out.setdefault(key, []).append(m["value"])
        return out

    a, b = grouped(base), grouped(new)
    print("%-14s %-5s %-32s %14s %14s %8s %7s %7s" % (
        "workload", "trace", "metric", "base median", "new median", "change", "base sp", "new sp"))
    for key in sorted(set(a) & set(b)):
        workload, trace, name, unit = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if ma else float("nan")
        print("%-14s %-5d %-32s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d/%d)" % (
            workload, trace, name, ma, mb, 100 * change, 100 * spread(a[key]),
            100 * spread(b[key]), unit, len(a[key]), len(b[key])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
