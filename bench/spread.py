"""
Run the benchmark repeatedly, one seed per run, and measure its spread.

    python3 bench/spread.py [--runs 10] [--workloads hae-n5-g2,...] [--first-seed 1] [--out FILE]

Runs the command of ``BENCHMARK.json`` with its ``run_seconds``, once per
workload and seed, as the benchmark is meant to be run.  For every end-to-end
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median next
to the metric's bound, and the same for the raw medians each run prints.
``--out`` writes all of it as JSON, together with the interpreter version, the
CPU count, the git revision and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
        "PYTHONHASHSEED": run.child_env()["PYTHONHASHSEED"],
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    worst = 0.0
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw {"))
            runs.append(
                {
                    "seed": seed,
                    "wall_s": wall,
                    "attempted": result["attempted"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "raw": raw,
                }
            )
            print(f"{name} seed {seed}: {wall:.1f} s, {result['attempted']} samples", file=sys.stderr)
        summary = {}
        for metric in runs[0]["metrics"]:
            summary[metric] = quartiles([r["metrics"][metric] for r in runs]) | {"bound": bounds.get(metric)}
            if metric in bounds and metric != "setup_s":
                worst = max(worst, summary[metric]["spread"] / bounds[metric])
        # the uncorrected medians, to show what the speed correction does
        summary.update({f"raw.{k}": quartiles([r["raw"][k] for r in runs]) for k in runs[0]["raw"]})
        for metric, q in summary.items():
            print(f"{name:16s} {metric:26s} median {q['median']:10.5g}  q1 {q['q1']:10.5g}  q3 {q['q3']:10.5g}  spread {q['spread']:.4f}  bound {q.get('bound')}")
        record["workloads"][name] = {"runs": runs, "summary": summary}
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
