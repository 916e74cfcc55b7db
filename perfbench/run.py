#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/NOTES.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds perfbench (CMake, Release) into .bench_build/perfbench
and runs one workload; the last line of its standard output is the result
JSON. --smoke runs one short pass of every workload, traced and untraced, and
checks that each metric BENCHMARK.json names is printed with its unit and
that no operation failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FIXTURE = os.path.join(HERE, "fixture", "timings.csv")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no adsala sources next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--fixture", FIXTURE, "--work-dir", work,
           "--trace-out", os.path.join(BUILD, "traces",
                                       "%s-seed%d.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_binary(workload, 1, 1, trace, smoke=True)
            result = parse_result(lines)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result line" % (where, code))
                continue
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s: ops_failed %d" % (where, result["failed"]))
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s: %s missing" % (where, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        where, metric["name"], got["unit"], metric["unit"]))
            print("smoke %s: %d metrics, %d ops, %d failed" % (
                where, len(result["metrics"]), result["attempted"],
                result["failed"]))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or parse_result(lines) is None:
        print("\n".join(lines), file=sys.stderr)
        fail("%s failed with exit code %d" % (args.workload, code))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
