#!/usr/bin/env python3
"""Perf-regression gate over bench JSON reports.

Compares a fresh `--json` dump from a bench binary against a committed
baseline (bench_results/*_seed.json) and fails when any query slowed
down beyond the tolerance.

Because CI machines differ in absolute speed from the machine that
recorded the baseline, the default mode normalizes: it computes the
per-query ratio new/baseline, divides out the median ratio (the
machine-speed factor common to all queries), and gates on the residual.
A single query regressing 2x on a machine that is uniformly 1.5x slower
still fails; a uniform 1.5x slowdown alone does not. Pass --absolute to
gate on raw ratios instead (same-machine comparisons).

Scalability mode (--scalability) reads one report whose entries carry a
"threads" key and asserts, per query, that the time at the highest
thread count is no worse than tolerance * the time at the lowest —
the "more cores must not make it slower" floor; a tolerance below 1
requires a speedup.

Exit code 0 = gate passed, 1 = regression or malformed input.
"""

import argparse
import json
import statistics
import sys


def load_entries(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of bench entries")
    return data


def require_ok(entries, path):
    bad = [e for e in entries if not e.get("ok")]
    if bad:
        for e in bad:
            print(f"FAIL {path}: query {e.get('query')} errored: "
                  f"{e.get('error', '?')}")
        raise SystemExit(1)


def check_against_baseline(baseline_path, new_path, tolerance, absolute):
    baseline = load_entries(baseline_path)
    new = load_entries(new_path)
    require_ok(new, new_path)
    base_by_query = {e["query"]: e for e in baseline if e.get("ok")}

    ratios = {}
    for e in new:
        q = e["query"]
        if q not in base_by_query:
            print(f"note: query {q} has no baseline entry; skipped")
            continue
        base_secs = base_by_query[q]["seconds"]
        if base_secs <= 0:
            continue
        ratios[q] = e["seconds"] / base_secs

    if not ratios:
        print(f"FAIL: no comparable queries between {baseline_path} and "
              f"{new_path}")
        return 1

    speed_factor = 1.0 if absolute else statistics.median(ratios.values())
    mode = "absolute" if absolute else f"median-normalized (factor {speed_factor:.3f})"
    print(f"perf gate: {len(ratios)} queries, tolerance {tolerance:.2f}x, {mode}")

    failures = 0
    for q in sorted(ratios):
        residual = ratios[q] / speed_factor
        verdict = "ok"
        if residual > tolerance:
            verdict = "REGRESSION"
            failures += 1
        print(f"  query {q}: {ratios[q]:.3f}x raw, {residual:.3f}x adjusted "
              f"[{verdict}]")
    if failures:
        print(f"FAIL: {failures} quer{'y' if failures == 1 else 'ies'} regressed "
              f"beyond {tolerance:.2f}x")
        return 1
    print("PASS")
    return 0


def check_scalability(path, tolerance):
    entries = load_entries(path)
    require_ok(entries, path)
    series = {}
    for e in entries:
        if "threads" not in e:
            raise SystemExit(f"{path}: entry for query {e.get('query')} has no "
                             "'threads' key; not a scalability report")
        series.setdefault(e["query"], {})[e["threads"]] = e["seconds"]

    print(f"scalability gate: {len(series)} queries, tolerance {tolerance:.2f}x")
    failures = 0
    for q in sorted(series):
        points = series[q]
        lo_threads, hi_threads = min(points), max(points)
        if lo_threads == hi_threads:
            print(f"  query {q}: single sweep point, skipped")
            continue
        base, parallel = points[lo_threads], points[hi_threads]
        ratio = parallel / base if base > 0 else 0.0
        verdict = "ok"
        if ratio > tolerance:
            verdict = "REGRESSION"
            failures += 1
        print(f"  query {q}: {base:.3f}s @{lo_threads}t -> {parallel:.3f}s "
              f"@{hi_threads}t ({ratio:.2f}x) [{verdict}]")
    if failures:
        print(f"FAIL: {failures} quer{'y' if failures == 1 else 'ies'} slower at "
              f"{tolerance:.2f}x tolerance with more threads")
        return 1
    print("PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed seed JSON to compare against")
    parser.add_argument("--new", dest="new_report",
                        help="freshly produced bench JSON")
    parser.add_argument("--scalability", metavar="REPORT",
                        help="threads-sweep JSON; gate per-query parallel vs "
                             "single-thread time")
    parser.add_argument("--tolerance", type=float, default=1.3,
                        help="max allowed slowdown ratio (default 1.3)")
    parser.add_argument("--absolute", action="store_true",
                        help="gate raw ratios without median normalization")
    args = parser.parse_args()

    if args.scalability:
        return check_scalability(args.scalability, args.tolerance)
    if not args.baseline or not args.new_report:
        parser.error("need --baseline and --new, or --scalability")
    return check_against_baseline(args.baseline, args.new_report,
                                  args.tolerance, args.absolute)


if __name__ == "__main__":
    sys.exit(main())
