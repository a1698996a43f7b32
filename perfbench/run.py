#!/usr/bin/env python3
"""perfbench: the repository's benchmark of the simulator and dvfsd.

Run from the repository root:

    python3 perfbench/run.py --workload sim-exact --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the dvfsd daemon) with CMake into .bench_build/,
runs one workload, and prints its metrics as the last line of standard
output:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (a separate traced run). The machine calibration
and, for traced runs, the span self-time table are printed on the lines
before. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("sim-exact", "sim-sampled", "serve-small", "serve-large")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; exit 1 on failure."""
    jobs = str(os.cpu_count() or 1)
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in cmds:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def steal_ticks():
    """Cumulative steal time of all CPUs from /proc/stat (0 if absent)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        return 0


def print_self_times(spans):
    rows = sorted(stats.self_times(spans).items(),
                  key=lambda kv: -kv[1]["self_ms"])
    print("self times (ms):")
    print("  %-24s %8s %12s %12s" % ("span", "count", "total", "self"))
    for name, r in rows:
        print("  %-24s %8d %12.3f %12.3f" % (name, r["count"],
                                             r["total_ms"], r["self_ms"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    width = min(4, os.cpu_count() or 1)

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-%d-%d.json" % (args.workload, args.seed,
                                                   args.trace))
    steal0 = steal_ticks()
    calib = json.loads(subprocess.run(
        [binary, "calibrate", "--width=%d" % width], check=True,
        stdout=subprocess.PIPE, text=True).stdout)
    cmd = [binary, args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--width=%d" % width,
           "--refs=" + os.path.join(HERE, "refs.txt"),
           "--dvfsd=" + os.path.join(build_dir, "dvfsd"),
           "--out=" + out]
    res = subprocess.run(cmd)
    if res.returncode != 0:
        log("perfbench: workload exited with %d" % res.returncode)
        sys.exit(1)
    calib["steal_ticks"] = steal_ticks() - steal0
    with open(out) as f:
        raw = json.load(f)

    if args.trace:
        spans = stats.spans_from_columns(raw["spans"])
        print_self_times(spans)
        metrics = stats.per_layer(raw, spans)
    else:
        metrics = stats.end_to_end(raw)
    # Every metric BENCHMARK.json names for this mode, with its unit;
    # the workloads it lists print nothing else.
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = args.workload in {w["name"] for w in bench["workloads"]}
    bad = stats.metric_mismatches(
        metrics, bench["per_layer" if args.trace else "end_to_end"], listed)
    if bad:
        log("perfbench: metrics differ from BENCHMARK.json "
            "(name: declared unit, printed unit): %s" % sorted(bad.items()))
        sys.exit(1)
    print("calibration: " + json.dumps(calib, sort_keys=True))
    if not args.trace:
        print("latency: " + json.dumps(stats.latency(raw), sort_keys=True))
    if raw["family"] == "serve":
        high = next(p for p in raw["phases"] if p["name"] == "high")
        print("loader: " + json.dumps(stats.loader_report(
            high, raw["limit_ms"]), sort_keys=True))
    failed = int(raw["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
