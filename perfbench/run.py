#!/usr/bin/env python3
"""Build and run the kinetd serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
perfbench/ (which builds the kinet library from ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally.  Build output goes to stderr.

--trace 0 prints the workload's end-to-end metrics; --trace 1 prints the
per-layer ledger, for which this script also re-executes the benchmark at
pool sizes 1, 2 and nproc (the .t1/.t2/.tN thread-sweep metrics).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exits nonzero when a response fails verification or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# KINET_NUM_THREADS of every measured run: part of each workload's definition.
POOL_THREADS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "service", "server.hpp"))):
        log("kinet sources not found next to perfbench/; nothing to build")
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "kinet_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "kinet_perfbench")


def run(binary, args, threads):
    """Runs the benchmark program; returns (exit code, stdout lines, result)."""
    try:
        proc = subprocess.run([binary] + args + ["--threads", str(threads)],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-golden", action="store_true",
                        help="flip every expected hash (verification must then fail)")
    opts = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.corrupt_golden:
        args.append("--corrupt-golden")
    code, lines, result = run(binary, args, POOL_THREADS)
    for line in lines:
        print(line)
    if result is None:
        log("benchmark printed no result (exit code %d)" % code)
        return code or 1
    if opts.trace:
        nproc = len(os.sched_getaffinity(0))
        for suffix, threads in (("t1", 1), ("t2", 2), ("tN", nproc)):
            sweep_args = ["--sweep", "--seed", str(opts.seed)]
            if opts.corrupt_golden:
                sweep_args.append("--corrupt-golden")
            sweep_code, sweep_lines, sweep = run(binary, sweep_args, threads)
            for line in sweep_lines:
                print("%s %s" % (suffix, line))
            if sweep is None:
                log("thread-sweep run at %d threads printed no result" % threads)
                return sweep_code or 1
            code = code or sweep_code
            result["correct"] = result["correct"] and sweep["correct"]
            result["attempted"] += sweep["attempted"]
            result["failed"] += sweep["failed"]
            for name, metric in sweep["metrics"].items():
                result["metrics"]["%s.%s" % (name, suffix)] = metric
        print("note thread sweep: nproc %d, KINET_NUM_THREADS 1 / 2 / %d" % (nproc, nproc))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
