#!/usr/bin/env python3
"""Layered performance ledger: builds msx_ledger and runs its workloads.

    python3 bench/ledger/run.py --seed N                 every workload
    python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/ledger/run.py --self-test

Each workload runs in its own process. The driver's human-readable lines
are passed through; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails, a run fails or crashes, or any checked result was wrong.

The build lives in .bench_build/ledger at the repository root, and traced
runs write trace_<workload>.json there (Chrome trace format; open it in
Perfetto).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "msx_ledger")
WORKLOADS = ["apps-rmat", "svc-small", "svc-stream", "svc-2d"]
RUN_TIMEOUT_S = 170
THREADS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds msx_ledger; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", THREADS, "--target", "msx_ledger"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def catalogue():
    """The metric names and units msx_ledger reports, by run kind."""
    out = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    cat = json.loads(out)
    return {kind: {m["name"]: m["unit"] for m in cat[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_result(stdout, expected):
    """The result object on the last line, checked against `expected`
    (name -> unit); None when the line is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != expected:
        log(f"metric names/units differ from the catalogue: {got} vs {expected}")
        return None
    return res


def run_workload(workload, seed, seconds, trace, expected):
    """Runs one workload in its own process; returns (result, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", BUILD]
    env = dict(os.environ, OMP_NUM_THREADS=THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    res = parse_result(proc.stdout, expected)
    if res is None:
        log(f"{workload}: no valid result (exit {proc.returncode})")
        return None, proc.returncode or 1
    return res, proc.returncode


def print_table(workload, res, units):
    print(f"--- {workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']!s:>24} {units[name]}")


def self_test():
    """Driver unit checks plus the output contract against BENCHMARK.json."""
    failures = 0
    proc = subprocess.run([BINARY, "--self-test"], capture_output=True, text=True)
    print(proc.stdout, end="")
    failures += proc.returncode != 0
    cat = catalogue()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        ok = declared == cat[kind]
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json {kind} names and units "
              "match the driver catalogue")
        failures += not ok
    ok = sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json workloads match the driver")
    failures += not ok
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        res, code = run_workload("svc-small", 1, 1, trace, cat[kind])
        ok = res is not None and code == 0 and res["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} a --trace {trace} run prints exactly "
              f"the {kind} metrics with their units")
        failures += not ok
    print(f"{failures} failed checks")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not build():
        log("msx_ledger: build failed")
        return 1
    if args.self_test:
        return self_test()

    kind = "per_layer" if args.trace else "end_to_end"
    expected = catalogue()[kind]
    if args.workload:
        res, code = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace, expected)
        if res is None:
            return code
        print(json.dumps(res))
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        res, code = run_workload(workload, args.seed, args.seconds, args.trace,
                                 expected)
        worst = worst or code
        if res is None:
            summary["correct"] = False
            continue
        print_table(workload, res, expected)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
