#!/usr/bin/env python3
"""Capture criterion-shim benchmark numbers into BENCH_BASELINE.json.

Runs ``cargo bench`` (all bench targets), parses the shim's report lines::

    bench <group>/<id>: <duration>/iter (<iters> iters in <total>)

and the allocation-metric lines of the ``alloc_scaling`` bench::

    alloc <group>/<id>: <value>

and writes a machine-readable baseline: timing entries keyed by
``<group>/<id>`` with the mean nanoseconds per iteration under ``benches``,
allocation counts and bytes/node figures under ``allocs``. Future perf PRs
diff their numbers against this file to claim measured wins (the vendored
criterion shim keeps no saved baselines of its own).

Usage:
    python3 scripts/capture_bench_baseline.py [--budget-ms N] [--out FILE]

Numbers are wall-clock on whatever machine runs this, so compare ratios, not
absolute times, across machines.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys

LINE = re.compile(r"^bench (?P<name>\S+): (?P<per_iter>\S+)/iter \((?P<iters>\d+) iters in (?P<total>\S+)\)$")
ALLOC_LINE = re.compile(r"^alloc (?P<name>\S+): (?P<value>-?[0-9]+)$")
DURATION = re.compile(r"^(?P<value>[0-9.]+)(?P<unit>ns|µs|us|ms|s)$")
UNIT_NS = {"ns": 1, "µs": 1_000, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}


def parse_duration_ns(text: str) -> float:
    match = DURATION.match(text)
    if not match:
        raise ValueError(f"unparseable duration {text!r}")
    return float(match.group("value")) * UNIT_NS[match.group("unit")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-ms", type=int, default=200,
                        help="per-benchmark measurement budget (CRITERION_SHIM_MS)")
    parser.add_argument("--out", default="BENCH_BASELINE.json")
    args = parser.parse_args()

    env = dict(os.environ, CRITERION_SHIM_MS=str(args.budget_ms))
    print(f"running cargo bench (budget {args.budget_ms} ms per benchmark)...", flush=True)
    proc = subprocess.run(["cargo", "bench"], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return proc.returncode

    benches = {}
    allocs = {}
    for line in proc.stdout.splitlines():
        match = LINE.match(line.strip())
        if match:
            benches[match.group("name")] = {
                "mean_ns_per_iter": parse_duration_ns(match.group("per_iter")),
                "iters": int(match.group("iters")),
                "total_ns": parse_duration_ns(match.group("total")),
            }
            continue
        match = ALLOC_LINE.match(line.strip())
        if match:
            allocs[match.group("name")] = int(match.group("value"))
    if not benches:
        sys.stderr.write("no benchmark lines found in cargo bench output\n")
        return 1
    if not allocs:
        sys.stderr.write("no alloc metric lines found (alloc_scaling bench missing?)\n")
        return 1

    baseline = {
        "captured": datetime.date.today().isoformat(),
        "budget_ms": args.budget_ms,
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            # Parallel benches (seed pool, sharded world) are meaningless to
            # compare across hosts with different core counts; record it.
            "cpus": os.cpu_count() or 1,
        },
        "benches": dict(sorted(benches.items())),
        "allocs": dict(sorted(allocs.items())),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(benches)} timing and {len(allocs)} allocation baselines to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
