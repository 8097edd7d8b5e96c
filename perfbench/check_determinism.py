"""Determinism check for the benchmark itself (not part of the test suite).

    python3 perfbench/check_determinism.py [--seed 7] [--workload zero-scan ...]

For each workload it checks that
- the same seed gives the same task list (one cycle), and the
  next seed changes the task parameters;
- two fresh processes, with different hash seeds, running the first round
  give the same output digest for every task.
Exits 1 and names the difference when a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tasks  # noqa: E402


def task_list_json(workload: str, seed: int) -> list:
    return [[[t.kind, t.params] for t in r] for r in tasks.build(workload, seed)]


def digests(workload: str, seed: int) -> dict[str, str]:
    return {t.id: checks.digest(tasks.run(t)) for t in tasks.build(workload, seed)[0]}


def digests_in_fresh_process(workload: str, seed: int, hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--digests", "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(tasks.WORKLOADS), choices=tasks.WORKLOADS)
    ap.add_argument("--digests", action="store_true", help="print one workload's task digests as JSON")
    args = ap.parse_args()
    if args.digests:
        print(json.dumps(digests(args.workload[0], args.seed)))
        return 0

    problems = []
    for w in args.workload:
        first = task_list_json(w, args.seed)
        if task_list_json(w, args.seed) != first:
            problems.append(f"{w}: seed {args.seed} gave two different task lists")
        if task_list_json(w, args.seed + 1) == first:
            problems.append(f"{w}: seeds {args.seed} and {args.seed + 1} gave the same task list")
        a = digests_in_fresh_process(w, args.seed, "1")
        b = digests_in_fresh_process(w, args.seed, "2")
        differ = sorted(k for k in a if a[k] != b.get(k))
        if a.keys() != b.keys() or differ:
            problems.append(f"{w}: output digests differ between processes for {differ or 'the task set'}")
        print(f"{w}: {len(a)} tasks run twice, digests {'differ' if differ else 'match'}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
