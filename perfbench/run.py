#!/usr/bin/env python3
"""Builds perf_bench from the checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the directory above this script. The
first run configures and builds into .bench_build/ (library included); later
runs only re-check the build. perf_bench's own output is passed through,
and the last stdout line is its result JSON, printed only after it was
checked to carry exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1). The full result, with
quartiles and the environment stamp, is written to
.bench_build/results/<workload>-s<seed>-t<trace>.json (the input of
compare.py); a traced run also writes its Chrome trace to
.bench_build/traces/<workload>-s<seed>.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170  # perf_bench's own limit; a run must end within 180 s
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds perf_bench; returns its path."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} did not finish: {e}")
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})")
    return BUILD / "perf_bench"


def check_result(line, bench, traced):
    """Returns the reason `line` is not a valid result, or None."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(obj["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or obj[key] < 0:
            return f"{key} is not a whole number"
    if obj["attempted"] < 1:
        return "attempted is 0"
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}
    got = obj["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            return f"metric {name} has unit {m.get('unit')!r}, want {want[name]!r}"
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"metric {name} value {v!r} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--bin", help="use this perf_bench instead of building one")
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(bench_file.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {bench_file}: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = Path(args.bin) if args.bin else build()
    traced = args.trace == "1"
    tag = f"{args.workload}-s{args.seed}"
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", str(BUILD / "results" / f"{tag}-t{args.trace}.json")]
    if traced:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-file", str(BUILD / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"perf_bench did not finish: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    why = check_result(lines[-1], bench, traced)
    if why is not None:
        fail(f"{why} (perf_bench exit code {proc.returncode})")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
