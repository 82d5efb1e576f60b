#!/usr/bin/env python3
"""Full benchmark report: every workload, untraced and traced, plus the
tier-1 test suite's wall time, written to bench/out/BENCH_<tag>.json.

    python3 bench/report.py --tag baseline --seed 0

Each run is `bench/run.py` in a process of its own, one after another,
measuring for BENCHMARK.json's `run_seconds`.
The tier-1 suite is timed once per report; its wall time is informational
and not one of the gated metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    for line in lines[:-1]:
        print(f"  {line}")
    return {"result": json.loads(lines[-1]), "report": lines[:-1]}


def tier1_wall_s() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="suffix of the BENCH_<tag>.json file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    out = {"tag": args.tag, "seed": args.seed, "seconds": seconds,
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "workloads": {}}
    for name in workloads.WORKLOADS:
        out["workloads"][name] = {}
        for trace in (0, 1):
            print(f"{name} trace={trace}", flush=True)
            out["workloads"][name]["traced" if trace else "untraced"] = \
                run_workload(name, args.seed, seconds, trace)
    print("tier-1 suite", flush=True)
    out["tier1"] = tier1_wall_s()
    print(f"  tier1 wall_s={out['tier1']['wall_s']:.1f} s  {out['tier1']['summary']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
