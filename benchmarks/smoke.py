"""Smoke test of the benchmark: a tiny version of every workload, untraced
and traced, must run, pass its own checks and report every metric.

    python3 benchmarks/smoke.py

Exits 0 when every tiny run succeeds. Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = run.Sizes(
    setup_repeats=1,
    check_per_unit=2,
    sample_rows=2,
    steady_seeds=(1,),
    steady_generations=4,
    dense_networks=2,
    dense_seeds=(1, 2),
    dense_budget=3_000,
    sweep_limits=(1_000, 20_000),
    sweep_runs=3,
    sweep_replays=2,
)


def main() -> int:
    problems = []
    for workload in sorted(run.WORKLOADS):
        for trace, expected in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.run_workload(workload, seed=1, seconds=0.2, trace=trace, sizes=TINY)
            result = json.loads(out.getvalue().splitlines()[-1])
            label = f"{workload} trace={int(trace)}"
            if set(result["metrics"]) != set(expected):
                problems.append(f"{label}: metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            print(f"{label}: {result['attempted']} checks, {result['failed']} failed")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
