#!/usr/bin/env python3
"""Compares perf_bench results of a parent and a change (stdlib only).

    python3 perfbench/compare.py --parent <dir|file>... --change <dir|file>...

Inputs are the result files run.py writes to .bench_build/results/ (a
directory stands for every *.json in it). Runs pair up by workload and seed;
each workload needs at least ten pairs, run alternately parent-first and
change-first. For every workload x end-to-end metric it prints each side's
median and quartiles, the share of pairs the change wins and a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or more operations failed
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run
  unchanged   otherwise

Traced results (per-layer metrics) are listed with both medians, without a
verdict. Results whose environment stamps differ (kernel, pool size, nproc,
GEMM threads, STRASSEN_* variables) are refused. Exit status: 0 when nothing
regressed, 1 when something did, 2 when the inputs cannot be compared.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(paths):
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        try:
            out.append(json.loads(f.read_text()))
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"compare.py: cannot read {f}: {e}")
    return out


def env_key(r):
    e = r["env"]
    return json.dumps({k: e[k] for k in ("kernel", "pool", "nproc",
                                         "gemm_threads", "strassen_env")},
                      sort_keys=True)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(p, c, better, bound, pfail, cfail):
    """p, c: values paired by index."""
    sign = 1 if better == "higher" else -1
    q1, med_p, q3 = quartiles(p)
    med_c = statistics.median(c)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    win_share = wins / len(p)
    worse_by = -sign * (med_c - med_p) / med_p if med_p else 0.0
    spread = (q3 - q1) / med_p if med_p else 0.0
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if cfail > pfail:
        v = "regressed"
    elif win_share >= 0.9 and sign * (med_c - med_p) > (q3 - q1):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, med_p, q1, q3, med_c, quartiles(c), win_share, worse_by, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    bench = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("compare.py: no results on one side")

    envs = {env_key(r) for r in parent + change}
    if len(envs) != 1:
        print("compare.py: refusing to compare results from different "
              "environments:", file=sys.stderr)
        for e in sorted(envs):
            print("  " + e, file=sys.stderr)
        sys.exit(2)

    status = 0
    for traced, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        side = [{(r["workload"], r["seed"]): r for r in rs if r["trace"] == traced}
                for rs in (parent, change)]
        keys = sorted(set(side[0]) & set(side[1]))
        if not keys:
            continue
        for w in sorted({k[0] for k in keys}):
            pairs = [k for k in keys if k[0] == w]
            print(f"\n== {w} ({'per-layer, traced' if traced else 'end-to-end'}, "
                  f"{len(pairs)} pairs)")
            if not traced and len(pairs) < MIN_PAIRS:
                print(f"compare.py: {w} has {len(pairs)} pairs, "
                      f"needs {MIN_PAIRS}", file=sys.stderr)
                sys.exit(2)
            runs = [[side[i][k] for k in pairs] for i in (0, 1)]
            for i, name in enumerate(("parent", "change")):
                routes = {json.dumps(t["routes"], sort_keys=True)
                          for r in runs[i] for t in r["autotune"]}
                if len(routes) > 1:
                    print(f"   note: tuned routes differ between {name} "
                          f"set-ups: {sorted(routes)}")
            pfail = sum(r["failed"] for r in runs[0])
            cfail = sum(r["failed"] for r in runs[1])
            if pfail or cfail:
                print(f"   failed operations: parent {pfail}, change {cfail}")
            section = "per_layer" if traced else "end_to_end"
            for m in metrics:
                p = [r[section][m["name"]]["value"] for r in runs[0]]
                c = [r[section][m["name"]]["value"] for r in runs[1]]
                if traced:
                    mp, mc = statistics.median(p), statistics.median(c)
                    print(f"   {m['name']:32s} {mp:12.5g} -> {mc:12.5g} {m['unit']}")
                    continue
                v, mp, q1, q3, mc, qc, win, worse, spread = verdict(
                    p, c, m["better"], m["bound"], pfail, cfail)
                if v == "regressed":
                    status = 1
                print(f"   {m['name']:12s} parent {mp:10.4g} [{q1:.4g}, {q3:.4g}]"
                      f"  change {mc:10.4g} [{qc[0]:.4g}, {qc[2]:.4g}] {m['unit']:8s}"
                      f" wins {win:4.0%}  worse {worse:+6.1%} (bound "
                      f"{m['bound']:.0%}, spread {spread:.1%})  {v}")
    sys.exit(status)


if __name__ == "__main__":
    main()
