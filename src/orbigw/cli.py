"""
Command line surface.

Subcommands:

* ``genus0``            dump the genus zero series and their identity report
* ``pmatrix``           build the column polynomials and run their verification
* ``potential``         assemble one potential and emit its canonical form
* ``verify-identities`` the full lemma battery below the anomaly equations
* ``verify-hae``        the anomaly equation itself, across constants policies

Exit codes: 0 on success, 1 when any verification fails or an internal
invariant breaks (reported as a failing ``internal invariant`` check), 2 on
configuration errors.  Input is checked in one place before any work starts:
the ranges of n, N, --k-max and the insertion indices, the --policies list,
the potential type (g, insertions) and the directory of --out.  ``--format``
selects json, csv or text output.  Every run recomputes everything; outputs
are byte-identical across runs and hash seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import product

from .genus0 import GenusZeroData, ModelConfig, verify_genus0
from .hae import verify_hae_policies
from .pmatrix import POLICIES, build_pmatrix, entry_to_json, verify_pmatrix
from .potentials import ContributionTables, _check_type, assemble_F, audit_generators
from .report import Report, canonical_json
from .ring import certify_rules


def _indices(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t != "")


def _validate(args) -> None:
    """Reject out-of-range input before any work starts (a ValueError exits 2)."""
    ModelConfig(args.n, args.N)  # n >= 3 and N >= 4n
    if getattr(args, "k_max", 1) < 1:
        raise ValueError(f"--k-max must be at least 1, got {args.k_max}")
    for c in getattr(args, "insertions", ()):
        if not 0 <= c < args.n:
            raise ValueError(f"insertion index {c} is outside 0..{args.n - 1}")
    for policy in args.policies.split(",") if getattr(args, "policies", "") else ():
        if policy not in POLICIES:
            raise ValueError(f"unknown constants policy {policy!r} in --policies")
    if args.command == "potential":
        _check_type(args.g, args.insertions)
    if args.out != "-" and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"the directory of --out {args.out!r} does not exist")


def _emit(payload: dict, report: Report | None, fmt: str, out) -> None:
    if fmt == "json":
        body = dict(payload)
        if report is not None:
            body["report"] = report.to_json()
        out.write(canonical_json(body) + "\n")
    elif fmt == "csv":
        out.write("check,ok,detail\n")
        if report is not None:
            for c in report.checks:
                detail = c.detail.replace('"', "'")
                out.write(f'"{c.name}",{int(c.ok)},"{detail}"\n')
    else:
        if report is not None:
            out.write(report.render() + "\n")
        for k, v in payload.items():
            if k not in ("series", "column", "potential", "lifted"):
                out.write(f"{k}: {v}\n")


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="order of the cyclic quotient, n >= 3")
    parser.add_argument("--N", type=int, default=0, help="x-truncation order (default 10n)")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", default="-", help="output file, - for stdout")


def cmd_genus0(args) -> tuple[dict, Report]:
    cfg = ModelConfig(args.n, args.N)
    data = GenusZeroData.build(cfg)
    rep = verify_genus0(data, f"genus zero (n={cfg.n}, N={cfg.N})")
    series = {
        "L": data.L.to_json(),
        "Theta": data.Theta.to_json(),
        "I": [s.to_json() for s in data.I],
        "C": [s.to_json() for s in data.C],
        "K": [s.to_json() for s in data.K],
        "A": [s.to_json() for s in data.A],
    }
    return {"n": cfg.n, "N": cfg.N, "series": series}, rep


def cmd_pmatrix(args) -> tuple[dict, Report]:
    cfg = ModelConfig(args.n, args.N)
    data = GenusZeroData.build(ModelConfig(cfg.n, cfg.N + 2 * args.k_max + 2))
    pm = build_pmatrix(data, args.k_max, args.policy)
    rep = certify_rules(pm.ctx, data)
    rep.checks.extend(verify_pmatrix(pm).checks)
    entries = product(range(args.k_max + 1), range(cfg.n), range(cfg.n))
    payload = {
        "n": cfg.n,
        "k_max": args.k_max,
        "policy": args.policy,
        "column": pm.col.to_json(),
        "lifted": {f"{k},{i},{j}": entry_to_json(pm.lift_entry(k, i, j)) for k, i, j in entries},
    }
    return payload, rep


def cmd_potential(args) -> tuple[dict, Report]:
    insertions = args.insertions
    # the one-vertex graph carries a tail of order 3g-2+m, the deepest entry
    # any factor of F_{g,m} reads (edges and legs stop at 3g-3+m)
    k_max = max(3 * args.g - 2 + len(insertions), 1)
    cfg = ModelConfig(args.n, args.N)
    data = GenusZeroData.build(cfg)
    pm = build_pmatrix(data, k_max, args.policy)
    tables = ContributionTables(pm)
    pot = assemble_F(tables, args.g, insertions)
    audit = audit_generators(tables, pot)
    ev = pm.ctx.evaluator(data)
    rep = Report(f"potential, genus {args.g}, insertions {insertions}")
    rep.add("finite generation audit", audit["core_ok"] and audit["prefactor_ok"] and audit["vertex_ok"], str(audit["core_gens"]))
    payload = {
        "n": cfg.n,
        "g": args.g,
        "insertions": list(insertions),
        "potential": {
            "prefactor": pot.prefactor.to_json(),
            "core": pot.core.to_json(),
            "series": ev.eval(pot.full()).to_json(),
        },
    }
    return payload, rep


def cmd_verify_identities(args) -> tuple[dict, Report]:
    cfg = ModelConfig(args.n, args.N)
    data = GenusZeroData.build(ModelConfig(cfg.n, cfg.N + 2 * args.k_max + 2))
    rep = verify_genus0(data, f"full identity battery (n={cfg.n})")
    pm = build_pmatrix(data, args.k_max, args.policy)
    rep.checks.extend(certify_rules(pm.ctx, data).checks)
    rep.checks.extend(verify_pmatrix(pm).checks)
    return {"n": cfg.n, "N": cfg.N, "k_max": args.k_max}, rep


def cmd_verify_hae(args) -> tuple[dict, Report]:
    policies = args.policies.split(",") if args.policies else ["symplectic", "zero"]
    rep, results = verify_hae_policies(args.n, args.g, policies, N=args.N or None)
    payload = {
        "n": args.n,
        "g": args.g,
        "results": [r.to_json() for r in results],
    }
    return payload, rep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbigw", description=__doc__.splitlines()[1])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus0", help="genus zero series and identities")
    _common(p)
    p.set_defaults(func=cmd_genus0)

    p = sub.add_parser("pmatrix", help="column polynomials, lift, verification")
    _common(p)
    p.add_argument("--k-max", dest="k_max", type=int, default=4)
    p.add_argument("--policy", choices=("symplectic", "zero"), default="symplectic")
    p.set_defaults(func=cmd_pmatrix)

    p = sub.add_parser("potential", help="assemble one potential")
    _common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--insertions", type=_indices, default="", help="comma separated sector indices 0..n-1")
    p.add_argument("--policy", choices=("symplectic", "zero"), default="symplectic")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("verify-identities", help="all identities below the anomaly equation")
    _common(p)
    p.add_argument("--k-max", dest="k_max", type=int, default=4)
    p.add_argument("--policy", choices=("symplectic", "zero"), default="symplectic")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("verify-hae", help="the holomorphic anomaly equation")
    _common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--policies", default="", help="comma separated constants policies")
    p.set_defaults(func=cmd_verify_hae)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate(args)
        payload, report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        payload, report = {}, Report(f"orbigw {args.command}")
        report.add("internal invariant", False, str(exc))
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        _emit(payload, report, args.format, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
