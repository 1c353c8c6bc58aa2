"""Run the benchmark several times per workload and report each metric's
median, quartiles and spread (quartile distance over median) against the
bound in BENCHMARK.json.

    python3 benchmarks/repeat.py --seeds 1-10
    python3 benchmarks/repeat.py --seeds 1-3 --trace 1
    python3 benchmarks/repeat.py --seeds 1-10 --out benchmarks/baseline.json

Runs are sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(command, workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write medians and quartiles as JSON here")
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        environment = ""
        failed = attempted = 0
        for seed in args.seeds:
            start = time.perf_counter()
            result, lines = one_run(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            environment = lines[1]
            failed += result["failed"]
            attempted += result["attempted"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        print(f"== {workload}: {environment}")
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  <-- above a third of the bound" if spread > bound / 3 else ""
            print(f"  {m['name']:34} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}" + (f" / bound {bound}" if bound is not None else "") + flag)
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "unit": m["unit"], "values": vals}
        report["workloads"][workload] = {"environment": environment, "failed": failed,
                                         "attempted": attempted, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not args.trace:
        print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
