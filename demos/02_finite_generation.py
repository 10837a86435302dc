#!/usr/bin/env python3
"""
Finite generation in action.

Constructs the free polynomial ring with its rewrite rules, certifies the
rules against the exact series, lifts the flatness solution into the ring,
and assembles the genus two potential as a graph sum.  The punch line is
that the potential is a short polynomial in L and a handful of
A-generators, certified two ways: canonically in the ring and numerically
through the evaluation homomorphism.
"""

from orbigw import (
    ContributionTables,
    GenusZeroData,
    ModelConfig,
    assemble_F,
    audit_generators,
    build_pmatrix,
    certify_rules,
)
from orbigw.pmatrix import verify_pmatrix


def main():
    n = 5
    data = GenusZeroData.build(ModelConfig(n))
    pm = build_pmatrix(data, k_max=4, policy="symplectic")
    ctx = pm.ctx
    print(f"admitted generators for n={n}:")
    for (kind, i, j) in ctx.a_gens():
        name = f"A_{i}" if j == 0 else f"D^{j} A_{i}"
        print("   ", name)
    print()

    rep = certify_rules(ctx, data)
    print(rep.render())
    print()

    print("integration constants:", [str(c) for c in pm.col.constants],
          "status:", pm.col.constant_status)
    rep = verify_pmatrix(pm)
    print(rep.render())
    print()

    tables = ContributionTables(pm)
    pot = assemble_F(tables, 2, ())
    print("the genus two potential, canonically:")
    print("   ", pot.core)
    audit = audit_generators(tables, pot)
    print("generator audit:", audit["core_gens"], "->",
          "inside the finite generation ring" if audit["core_ok"] else "FAILED")
    series = ctx.evaluator(data).eval(pot.core)
    print("its expansion starts:", [(e, series.get(e)) for e in sorted(series.nums)[:3]])


if __name__ == "__main__":
    main()
