#!/usr/bin/env python3
"""Build and run the end-to-end collector benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/ (or
$CARGO_TARGET_DIR); later calls only rebuild what changed. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), named and united as BENCHMARK.json names
them: this script is the one place that list is read. The binary reports
each metric the workload measures and names the per-layer metrics it does
not exercise; those read 0. A run in which a measured metric is missing
or not a finite number fails. A run the binary marks invalid (generator
behind schedule, drops in the closed loop, starved system threads) is
repeated, at most twice, with the same seed. --self-test runs every
workload at a tiny size in both modes and checks that every metric it
measures is emitted and the outputs check out.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_e2e")
INVALID_EXIT = 3
ATTEMPTS = 3
RUN_DEADLINE_S = 170
SETTLE_AFTER_BUILD_S = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def build():
    """Configure (a no-op when nothing changed) and build the benchmark binary;
    output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_e2e", "-j", jobs]]
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    if os.path.getmtime(BINARY) != before:
        # A fresh build leaves dirty pages and busy cores behind; the first
        # run after one measured visibly slower tails until they settled.
        os.sync()
        time.sleep(SETTLE_AFTER_BUILD_S)
    return True


def run_binary(args, timeout):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines, expected):
    """The binary's last line turned into the result line: every metric of
    `expected` ((name, unit) pairs) in its order, with its unit. None, with
    the reason logged, when the line is malformed, a measured metric is
    missing, unknown or not finite, or a not-applicable one is not a
    per-layer metric."""
    if not lines:
        return None
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(raw) != {"correct", "attempted", "failed", "metrics", "not_applicable"}:
        return None
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        return None
    measured, absent = raw["metrics"], set(raw["not_applicable"])
    names = [name for name, _ in expected]
    problems = []
    for name in names:
        if name in absent:
            if name in measured:
                problems.append("%s is both measured and not applicable" % name)
        elif name not in measured:
            problems.append("%s is not emitted" % name)
        elif not isinstance(measured[name], (int, float)) or not math.isfinite(measured[name]):
            problems.append("%s was not measured (%s)" % (name, measured[name]))
    problems += ["%s is not a metric of BENCHMARK.json" % n
                 for n in sorted((set(measured) | absent) - set(names))]
    if problems:
        log("perfbench: " + "; ".join(problems))
        return None
    metrics = {name: {"value": 0 if name in absent else measured[name], "unit": unit}
               for name, unit in expected}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def host_of(lines):
    for line in lines:
        if line.startswith("host: "):
            return json.loads(line[len("host: "):])
    return None


def note_host(workload, host, result):
    """Append the result to the local history and flag results of earlier
    runs on another host: they are not comparable with this one."""
    path = os.path.join(BUILD, "results.jsonl")
    key = {k: v for k, v in (host or {}).items() if k != "git_sha"}
    others = 0
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    old = json.loads(line)
                except json.JSONDecodeError:
                    continue
                old_key = {k: v for k, v in old.get("host", {}).items() if k != "git_sha"}
                if old.get("workload") == workload and old_key != key:
                    others += 1
    if others:
        print("note: %d earlier %s result(s) in %s came from another host; "
              "they are not comparable with this run" % (others, workload, path))
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "host": host, "result": result}) + "\n")


def run(args, spec):
    expected = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    start = time.monotonic()
    result = None
    for attempt in range(1, ATTEMPTS + 1):
        t0 = time.monotonic()
        remaining = RUN_DEADLINE_S - (t0 - start)
        code, lines = run_binary(cmd, remaining)
        for line in lines[:-1]:
            print(line)
        if code is None:
            log("perfbench: run timed out")
            return 1
        if code not in (0, INVALID_EXIT):
            log("perfbench: benchmark binary exited with %d" % code)
            return 1
        result = parse_result(lines, expected)
        if result is None:
            log("perfbench: malformed result line")
            return 1
        took = time.monotonic() - t0
        if code == 0:
            break
        if attempt == ATTEMPTS or took * 1.3 > RUN_DEADLINE_S - (time.monotonic() - start):
            print("note: run still invalid after %d attempt(s); reporting it as measured"
                  % attempt)
            break
        print("note: invalid run, repeating with the same seed (attempt %d of %d)"
              % (attempt + 1, ATTEMPTS))
    note_host(args.workload, host_of(lines), result)
    print(json.dumps(result))
    return 0


def self_test(spec):
    """Every workload, tiny, both modes: every metric the workload measures
    emitted as a finite number, the rest declared not applicable, outputs
    correct."""
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            code, lines = run_binary(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"], RUN_DEADLINE_S)
            result = parse_result(lines, expected) if code in (0, INVALID_EXIT) else None
            ok = result is not None and result["correct"]
            failures += not ok
            print("self-test %-24s trace=%d: %s" % (workload, trace, "ok" if ok else "FAIL"))
    print("self-test: %s" % ("PASS" if failures == 0 else "%d FAILED" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    if not args.self_test and args.workload not in spec["workloads"]:
        log("perfbench: unknown workload %s" % args.workload)
        return 1
    if not build():
        log("perfbench: build failed")
        return 1
    return self_test(spec) if args.self_test else run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
