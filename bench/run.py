"""
Time-to-verdict benchmark of orbigw.

    python3 bench/run.py --workload hae-n5-g2 --seed 1 --seconds 25 --trace 0

Run from the repository root.  One client in a closed loop: each sample is one
verdict request in a fresh interpreter (``bench/sample.py``), started only
after the previous one has ended, with ``ORBIGW_CACHE_DIR`` removed so no
cached result is served.  Another sample is started while at least half of
it would end within ``--seconds``, so the run ends as near the deadline as it
can; at least one always runs.  Every sample goes through the
correctness gate of ``bench/workloads.py``.

Times in seconds are corrected for the machine's drifting speed: they are
scaled to the speed at which ``reference.reference()`` takes
``reference.NOMINAL_S``, using the reference's typical time in the same
sample (see ``reference.py``).  The raw medians of the untraced samples are
printed on a line ``raw {...}`` before the result.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced samples alternate, and the per-layer metrics (medians over
traced samples) are printed together with ``trace.overhead``.  Spans are
written to ``bench/out/`` when the run ends.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # a run must end within 180 s

def child_env() -> dict:
    """No cache directory, and no interpreter setting of the caller's.

    Bytecode caching stays on, as for an installed package, so ``setup_s``
    does not include compiling the sources.
    """
    env = {k: v for k, v in os.environ.items() if k != "ORBIGW_CACHE_DIR" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.t0 = time.perf_counter()
        self.samples: list[dict] = []  # gated verdict samples
        self.failures: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def child(self, *flags: str) -> tuple[dict | None, float, str]:
        """Start ``sample.py``; returns its record, its spawn time and an error text."""
        cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", self.workload.name, "--seed", str(self.seed), *flags]
        spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, spawn, "timed out"
        lines = out.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = None
        if proc.returncode != 0 or record is None:
            return record, spawn, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
        return record, spawn, ""

    def setup_probe(self) -> float:
        record, spawn, err = self.child("--import-only")
        if err:
            raise SystemExit(f"bench: cannot import orbigw from {ROOT / 'src'}: {err}")
        return normalized(record["setup_end"] - spawn, record)

    def sample(self, traced: bool) -> dict:
        i = len(self.samples) + len(self.failures)
        run_id = f"{self.workload.name}-seed{self.seed}-{i}"
        flags = ["--run-id", run_id] + (["--trace"] if traced else [])
        record, spawn, err = self.child(*flags)
        reasons = [err] if err else []
        if record is not None:
            reasons += self.workload.gate(record.get("facts", {}))
        if reasons:
            self.failures.append(f"{run_id}: " + "; ".join(reasons))
            return {}
        record["setup_s"] = normalized(record["setup_end"] - spawn, record)
        record["traced"] = traced
        self.samples.append(record)
        return record

    def loop(self, seconds: float, traced_too: bool) -> None:
        """Closed loop while at least half of the next round would end before the deadline."""
        deadline = time.perf_counter() + seconds
        rounds: list[float] = []
        while True:
            start = time.perf_counter()
            ok = self.sample(False)
            if traced_too and ok:
                ok = self.sample(True)
            rounds.append(time.perf_counter() - start)
            if not ok:
                break
            nxt = statistics.median(rounds)
            if time.perf_counter() + nxt / 2 > deadline or nxt > self.remaining():
                break


def normalized(seconds: float, record: dict) -> float:
    """``seconds`` at the speed where the reference takes ``reference.NOMINAL_S``."""
    return seconds * reference.NOMINAL_S / record["ref_s"]


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def median_normalized(records: list[dict], key: str) -> float:
    return statistics.median(normalized(r[key], r) for r in records)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "orbigw" / "__init__.py").is_file():
        print(f"bench: no orbigw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    runner.setup_probe()  # unmeasured: the first import writes the bytecode cache
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    runner.loop(args.seconds, traced_too=bool(args.trace))
    setups += [runner.setup_probe() for _ in range(SETUP_PROBES)]

    plain = [r for r in runner.samples if not r["traced"]]
    traced = [r for r in runner.samples if r["traced"]]
    attempted = len(runner.samples) + len(runner.failures)
    failed = len(runner.failures)
    # the metric names and units are those of BENCHMARK.json; spans.py says how
    # the per-layer ones are measured
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values: dict[str, float] = {}
    if args.trace and traced and plain:
        units = {m["name"]: m["unit"] for m in spec}
        for name in traced[0]["layers"]:
            if units.get(name) == "s":  # span times are corrected like every time
                values[name] = statistics.median(normalized(r["layers"][name], r) for r in traced)
            else:
                values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace.overhead"] = median_normalized(traced, "verdict_s") / median_normalized(plain, "verdict_s")
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([r["trace"] | {"layers": r["layers"]} for r in traced])
        )
    elif plain and not args.trace:
        values = {
            "verdict_s": median_normalized(plain, "verdict_s"),
            "cpu_s": median_normalized(plain, "cpu_s"),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "verified_share": (attempted - failed) / attempted,
        }
    unmeasured = [m["name"] for m in spec if m["name"] not in values] if values else []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec if m["name"] in values}

    for f in runner.failures:
        print(f"FAILED {f}", file=sys.stderr)
    for name in unmeasured:
        print(f"bench: BENCHMARK.json names {name}, which this run does not measure", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced samples, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if plain:
        raw = {"verdict_s": median_of(plain, "verdict_s"), "cpu_s": median_of(plain, "cpu_s"), "reference_ms": 1000 * median_of(plain, "ref_s")}
        print("raw " + json.dumps(raw))
    correct = failed == 0 and bool(metrics) and not unmeasured
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
