#!/usr/bin/env python3
"""Records ledger runs and the run-to-run spread behind each bound.

    python3 bench/ledger/baseline.py [--runs 5] [--traced 1] [--first-seed 1]
                                     [--out bench/ledger/baseline]

Runs every workload `--runs` times untraced and `--traced` times traced,
each run with its own seed, through run.py. Writes:

  runs.jsonl   one line per run: workload, seed, trace, host, seconds, result
  spread.json  per workload and end-to-end metric: the median, the quartiles
               and the spread (Q3 - Q1) / median of the untraced runs, next
               to the metric's bound in BENCHMARK.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace, "host": host,
            "exit": proc.returncode, "wall_s": round(wall, 2), "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)

    records = []
    with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
        for w in bench["workloads"]:
            for trace, count in ((0, args.runs), (1, args.traced)):
                for i in range(count):
                    rec = run(w["name"], args.first_seed + i, seconds, trace)
                    records.append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    print(f"{w['name']} seed={rec['seed']} trace={trace} "
                          f"exit={rec['exit']} wall={rec['wall_s']} s", flush=True)

    table = {}
    for w in bench["workloads"]:
        runs = [r["result"] for r in records
                if r["workload"] == w["name"] and r["trace"] == 0 and r["result"]]
        if len(runs) < 2:
            continue
        table[w["name"]] = {}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            s["runs"] = len(runs)
            table[w["name"]][name] = s
            print(f"{w['name']:12s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {bound}")
    with open(os.path.join(args.out, "spread.json"), "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    return 0 if all(r["exit"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
