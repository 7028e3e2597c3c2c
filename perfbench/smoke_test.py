#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Run from the repository root.  Runs every workload of BENCHMARK.json at tiny
scale (1 s window) and asserts that each end-to-end metric is printed with
its unit, both as a "metric <name> <value> <unit>" line and in the result
JSON; runs one traced pass and asserts the same for every per-layer metric;
and runs once with a deliberately wrong expected hash, which must fail
verification and exit nonzero.  Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SWEEP_SUFFIXES = (".t1", ".t2", ".tN")


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def json_problems(result, expected):
    """Metric names and units of the result line against BENCHMARK.json."""
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    problems = ["unexpected or missing metrics %s" % sorted(set(got) ^ set(want))] \
        if set(got) != set(want) else []
    problems += ["%s has unit %r, expected %r" % (name, got[name].get("unit"), unit)
                 for name, unit in want.items()
                 if name in got and got[name].get("unit") != unit]
    return problems


def line_problems(lines, expected, prefix):
    """Each metric also printed as '<prefix><name> <value> <unit>'."""
    problems = []
    for m in expected:
        fields = [l.split() for l in lines if l.startswith(prefix + m["name"] + " ")]
        if not fields or len(fields[0]) != 4 or fields[0][-1] != m["unit"]:
            problems.append("no '%s%s <value> %s' line" % (prefix, m["name"], m["unit"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    tiny = ["--seed", "7", "--seconds", "1"]

    def check(label, code, result, found):
        if code != 0 or result is None or not result["correct"] or result["failed"] != 0:
            found = ["exit %d, result %s" % (code, result)]
        problems.extend("%s: %s" % (label, p) for p in found)
        print("%s  %s" % ("FAIL" if found else "ok  ", label), flush=True)

    for workload in (w["name"] for w in bench["workloads"]):
        code, lines, result = run(["--workload", workload, "--trace", "0"] + tiny)
        found = [] if result is None else (json_problems(result, bench["end_to_end"]) +
                                           line_problems(lines, bench["end_to_end"], "metric "))
        check(workload + " (trace 0)", code, result, found)

    # The thread-sweep metrics come from re-executed runs and appear only in
    # the result line; every other layer also has a "layer" line.
    workload = bench["workloads"][0]["name"]
    code, lines, result = run(["--workload", workload, "--trace", "1"] + tiny)
    layers = [m for m in bench["per_layer"] if not m["name"].endswith(SWEEP_SUFFIXES)]
    found = [] if result is None else (json_problems(result, bench["per_layer"]) +
                                       line_problems(lines, layers, "layer "))
    check(workload + " (trace 1)", code, result, found)

    code, lines, result = run(["--workload", workload, "--trace", "0", "--corrupt-golden"] + tiny)
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        problems.append("a wrong expected hash did not fail the run (exit %d, result %s)" %
                        (code, result))
        print("FAIL  wrong golden hash", flush=True)
    else:
        print("ok    wrong golden hash fails verification (exit %d, %d failed)" %
              (code, result["failed"]), flush=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
