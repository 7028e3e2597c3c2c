#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON reports.

Compares the current `bench_micro --json` output against a baseline from a
previous CI run and fails (exit 1) when any benchmark present in both
reports regressed by more than the threshold.  Benchmarks registered with
UseRealTime() are gated on wall time, the rest on cpu time.  Benchmarks
that exist in only one report are listed but never fail the gate
(renames/additions must not block CI), and improvements are reported for
free.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
    bench_compare.py BASELINE.json CURRENT.json --update-baseline

CI keeps the baseline as a restore-latest cache (see .github/workflows/
ci.yml); locally, run bench_micro twice across a change and diff the runs.
--update-baseline promotes CURRENT to BASELINE after the comparison (also
when BASELINE does not exist yet) — use it to record a fresh baseline after
an intentional kernel change, e.g.:

    build/bench/bench_micro --json /tmp/now.json
    tools/bench_compare.py bench/baselines/latest.json /tmp/now.json --update-baseline
"""

import argparse
import json
import sys

# google-benchmark emits every time in the benchmark's own time_unit.
_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def gated_time_key(name):
    """The time a benchmark is gated on.

    Benchmarks registered with UseRealTime() (google-benchmark appends
    "/real_time" to their names) are gated on wall time: their work may run
    on pool threads, so the calling thread's cpu_time rises whenever a
    product stops fanning out, even when the wall time falls.  All others
    keep cpu_time, which is steadier under runner load.
    """
    return "real_time" if "/real_time" in name else "cpu_time"


def load_times(path):
    """name -> (gated time in ns, items_per_second or None).

    When the report was produced with --benchmark_repetitions, the `median`
    aggregate is used (much less noisy than any single repetition);
    otherwise the plain per-benchmark rows are.  Mean/stddev/cv aggregates
    are always skipped.  items_per_second (e.g. BM_SampleThroughput's
    rows/s) is carried so throughput benchmarks are gated on the number
    they exist to report, not only on time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    singles = {}
    medians = {}
    for entry in report.get("benchmarks", []):
        t = entry.get(gated_time_key(entry.get("run_name") or entry.get("name", "")))
        if t is None:
            continue
        ns = t * _TIME_UNIT_NS.get(entry.get("time_unit", "ns"), 1.0)
        value = (ns, entry.get("items_per_second"))
        if entry.get("run_type") == "aggregate" or "aggregate_name" in entry:
            if entry.get("aggregate_name") == "median" and entry.get("run_name"):
                medians[entry["run_name"]] = value
            continue
        if entry.get("name"):
            singles[entry["name"]] = value
    return medians if medians else singles


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="maximum tolerated slowdown as a fraction (default 0.15 = +15%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="after comparing, copy CURRENT over BASELINE (promotes a fresh "
        "baseline; comparison failures are reported but do not block the "
        "promotion — it is the intentional-change workflow)",
    )
    args = parser.parse_args()

    def promote():
        import shutil

        shutil.copyfile(args.current, args.baseline)
        print(f"bench_compare: promoted {args.current} -> {args.baseline}")

    try:
        baseline = load_times(args.baseline)
    except FileNotFoundError:
        if args.update_baseline:
            promote()
            return 0
        raise
    current = load_times(args.current)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("bench_compare: no overlapping benchmarks; nothing to gate")
        if args.update_baseline:
            promote()
        return 0

    regressions = []
    width = max(len(name) for name in shared)
    print(f"bench_compare: gate at +{args.threshold:.0%} over {args.baseline}")
    for name in shared:
        base_ns, base_ips = baseline[name]
        cur_ns, cur_ips = current[name]
        rate_gated = "Throughput" in name or "ServerConnections" in name
        if rate_gated and base_ips and cur_ips:
            # Rate benchmarks (BM_SampleThroughput*, BM_ServerConnections)
            # are gated on the items/s drop — the number they exist to
            # report (a slowdown is base/current - 1, same sign convention
            # as the time ratio; BM_ServerConnections' client-side cpu_time
            # is additionally meaningless — the work runs in the server's
            # threads).  Everything else is gated on its median time
            # (gated_time_key): wall time for UseRealTime() benchmarks,
            # cpu_time otherwise.
            delta = base_ips / cur_ips - 1.0 if cur_ips > 0 else float("inf")
            shown = f"{base_ips:>12.3g} -> {cur_ips:>12.3g} it/s"
        else:
            delta = cur_ns / base_ns - 1.0 if base_ns > 0 else float("inf")
            shown = f"{base_ns:>12.1f} -> {cur_ns:>12.1f} ns  "
        flag = "OK"
        if delta > args.threshold:
            flag = "REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            flag = "improved"
        print(f"  {name:<{width}}  {shown}  {delta:+7.1%}  {flag}")

    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:<{width}}  removed (not gated)")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  new (not gated)")

    if regressions:
        print(f"bench_compare: FAIL — {len(regressions)} benchmark(s) regressed "
              f"beyond +{args.threshold:.0%}:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        if args.update_baseline:
            promote()
        return 1
    print(f"bench_compare: OK — {len(shared)} benchmark(s) within +{args.threshold:.0%}")
    if args.update_baseline:
        promote()
    return 0


if __name__ == "__main__":
    sys.exit(main())
