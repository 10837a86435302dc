"""
Regenerate the ROADMAP baseline table from traced samples.

    python3 bench/table.py

Each column is one traced sample of ``verify_hae(n, g, "symplectic")`` in a
fresh interpreter, gated like every benchmark sample.  The rows are read off
its spans: ``GenusZeroData.build``; the P column (``compute_P_column``, the
symplectic solve included); ``series_tables`` + ``lift_tables`` as called by
``build_pmatrix`` after the column is fixed; the cold ``enumerate_decorated(g,
0, n)``; ``assemble_F(g, ())``; and ``verify_hae`` given the tables, which is
its span less the genus-zero build, the ring context and ``build_pmatrix``.
Times are raw seconds, as in the ROADMAP; the last row gives the time of
``reference.reference()`` during the sample, so columns taken while the
machine ran at another speed can be compared.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads

GRID = [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]  # the (n, g) columns of the ROADMAP table


def rows(record: dict, n: int, g: int) -> dict[str, str]:
    spans = record["trace"]["spans"]
    by_id = {s["id"]: s for s in spans}
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    named = lambda name: [s for s in spans if s["name"] == name]  # noqa: E731
    parent_name = lambda s: by_id[s["parent"]]["name"] if s["parent"] in by_id else None  # noqa: E731

    tables_s = sum(dur(s) for s in named("pmatrix.series_tables") if parent_name(s) == "pmatrix.build")
    tables_s += sum(dur(s) for s in named("pmatrix.lift"))
    enum = next(s for s in named("graphs.enumerate") if s["attrs"]["key"] == [g, 0, n])
    assemble = next(s for s in named("potentials.assemble") if s["attrs"]["g"] == g and not s["attrs"]["insertions"])
    verify = named("hae.verify")[0]
    building = sum(
        dur(s) for s in spans if s["parent"] == verify["id"] and s["name"] in ("genus0.build", "ring.context", "pmatrix.build")
    )
    return {
        "`GenusZeroData.build`": f"{sum(dur(s) for s in named('genus0.build')):.2f} s",
        "P column, `k_max = 3g-2`": f"{sum(dur(s) for s in named('pmatrix.column')):.2f} s",
        "`series_tables` + `lift_tables`": f"{tables_s:.2f} s",
        "`enumerate_decorated(g, 0, n)`": f"{enum['attrs']['count']} graphs / {dur(enum):.2f} s",
        "`assemble_F(g, ())`": f"{dur(assemble):.2f} s",
        "`verify_hae` given the tables": f"{dur(verify) - building:.2f} s",
        "machine speed: `reference()` time": f"{1000 * record['ref_s']:.2f} ms",
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[1]).parse_args(argv)
    columns = {}
    for n, g in GRID:
        runner = run.Runner(workloads.get(f"hae-n{n}-g{g}"), seed=0)
        record = runner.sample(traced=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        columns[(n, g)] = rows(record, n, g)
        print(f"n={n} g={g}: traced verdict {record['verdict_s']:.2f} s", file=sys.stderr)

    head = [f"n={n} g={g}" for n, g in GRID]
    print("| stage (policy symplectic) | " + " | ".join(head) + " |")
    print("|---|" + "---|" * len(head))
    for label in next(iter(columns.values())):
        print(f"| {label} | " + " | ".join(columns[key][label] for key in GRID) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
