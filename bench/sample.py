"""
One sample: a fresh interpreter imports orbigw, makes one verdict request and
prints one JSON record as the last line of its standard output.

    PYTHONPATH=src python3 bench/sample.py --workload hae-n5-g2 --seed 1 [--trace] [--import-only]

``bench/run.py`` starts these; every process-level cache starts cold.

The record carries the typical time of ``reference.reference()``: timed on a
timer while the verdict runs, or five times after the import for an
import-only probe.  ``run.py`` uses it to correct for the machine's speed.
"""

import sys
import time

import orbigw  # set-up ends when the package, CLI included, is imported
import orbigw.cli

SETUP_END = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(orbigw.__file__).resolve().parents:
        print(f"orbigw imported from {orbigw.__file__}, not from {src}", file=sys.stderr)
        return 2
    record: dict = {"setup_end": SETUP_END}
    if args.import_only:
        record["ref_s"] = statistics.harmonic_mean(reference.time_reference() for _ in range(5))
        print(json.dumps(record))
        return 0

    w = workloads.get(args.workload)
    tracer = spans.Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    status = 0
    try:
        with reference.SpeedProbe() as probe:
            start = time.perf_counter()
            result = tracer.span("verdict", lambda: w.call(orbigw, args.seed)) if tracer else w.call(orbigw, args.seed)
            record["verdict_s"] = time.perf_counter() - start
        record["ref_s"] = probe.typical
        record["facts"] = w.facts(result)
    except Exception as exc:  # the sample fails; the gate reports it
        traceback.print_exc()
        record["facts"] = {"error": f"{type(exc).__name__}: {exc}"}
        status = 1
    if tracer:
        record["layers"] = tracer.layer_metrics()
        record["trace"] = tracer.to_json() | {"self_times": tracer.self_times()}
    # a process the program starts is the sample's work too
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    record["cpu_s"] = sum(ru.ru_utime + ru.ru_stime for ru in usage)
    record["peak_rss_mb"] = max(ru.ru_maxrss for ru in usage) / 1024
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
