#!/usr/bin/env python3
"""The benchmark's own test: exact per-layer counts repeat for a seed.

Runs short traced runs of each workload: twice with one seed and once with
another. It checks that every exact count is identical across the two
same-seed runs. It checks that the other seed changes the scene-dependent
counts (unique set, screen and merge comparisons). It also checks that each
workload's counts are non-zero where that workload exercises the layer.

    python3 perfbench/check_counts.py [--seconds 2] [--workloads resident,stream,remote]

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = [
    "core.unique_set_size",
    "core.screen_comparisons",
    "core.merge_comparisons",
    "linalg.jacobi_sweeps",
    "stream.chunks",
    "hsi.bytes_read_per_job",
    "scp.wire_bytes_per_job",
]
SEED_DEPENDENT = [
    "core.unique_set_size",
    "core.screen_comparisons",
    "core.merge_comparisons",
]
# Counts that only the named workloads' jobs produce.
NONZERO_ON = {
    "scp.wire_bytes_per_job": {"remote"},
}


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: failed requests")
    return {k: result["metrics"][k]["value"] for k in EXACT}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--workloads", default="resident,stream,remote")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--other-seed", type=int, default=99)
    args = ap.parse_args()

    problems = []
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        other = traced_counts(workload, args.other_seed, args.seconds)
        print(f"{workload} seed {args.seed}: {first}")
        print(f"{workload} seed {args.other_seed}: {other}")
        for k in EXACT:
            if first[k] != second[k]:
                problems.append(f"{workload} {k}: {first[k]} then {second[k]} "
                                f"with the same seed")
            expect_nonzero = workload in NONZERO_ON.get(k, {workload})
            if (first[k] != 0) != expect_nonzero:
                problems.append(f"{workload} {k} = {first[k]}: expected "
                                f"{'non-zero' if expect_nonzero else 'zero'}")
        for k in SEED_DEPENDENT:
            if first[k] == other[k]:
                problems.append(f"{workload} {k}: seed {args.other_seed} did "
                                f"not change it ({first[k]})")
    for p in problems:
        print("FAIL:", p)
    print("counts repeat" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
