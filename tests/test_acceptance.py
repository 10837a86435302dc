"""
Acceptance criteria, one test per criterion, one printed line per criterion.

Every assertion here is exact (zero tolerance) at the stated truncation
orders; run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import orbigw

from orbigw.genus0 import (
    GenusZeroData,
    ModelConfig,
    f_n_poly,
    verify_birkhoff,
    verify_picard_fuchs,
    verify_ring_series,
)
from oracles import (
    CyclotomicSeries,
    enumerate_decorated,
    enumerate_stable_graphs_naive,
    lifted_entry,
    psi_integral_bruteforce,
    series_entry,
)
from orbigw.graphs import aut_count, enumerate_stable_graphs
from orbigw.hae import verify_hae
from orbigw.pmatrix import apply_operator, build_pmatrix
from orbigw.psi import psi_genus0, psi_integral
from orbigw.ring import RingContext, fit_laurent_in_L
from orbigw.series import Series

_DATA: dict[tuple[int, int], GenusZeroData] = {}
_CTX: dict[int, RingContext] = {}


def data_for(n: int, N: int = 0) -> GenusZeroData:
    cfg = ModelConfig(n, N)
    key = (cfg.n, cfg.N)
    if key not in _DATA:
        _DATA[key] = GenusZeroData.build(cfg)
    return _DATA[key]


def ctx_for(n: int) -> RingContext:
    if n not in _CTX:
        _CTX[n] = RingContext(n)
    return _CTX[n]


def _line(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_picard_fuchs():
    for n in (3, 4, 5, 6):
        t0 = time.time()
        data = data_for(n)
        N = data.cfg.N
        rep = verify_picard_fuchs(data)
        ok = rep.ok
        # the stated order: residuals checked through x^(N-n) at least
        for name in [c for c in rep.checks if c.name.startswith(("full equation", "component"))]:
            if "zero through x^" in name.detail:
                checked = int(name.detail.split("^")[-1])
                ok = ok and checked >= N - n
        elapsed = time.time() - t0
        assert elapsed < 60, f"criterion 1 runtime for n={n}: {elapsed:.1f}s"
        if not ok:
            break
    _line(1, "Picard-Fuchs residuals vanish to order N-n for n in 3..6", ok)


def test_criterion_2_birkhoff_identities():
    ok = True
    for n in (3, 4, 5, 6):
        rep = verify_birkhoff(data_for(n))
        ok = ok and rep.ok
    _line(2, "normalization factor identities and the two constructions agree, n in 3..6", ok)


def test_criterion_3_ring_structure():
    t0 = time.time()
    ok = True
    for n in (3, 4, 5, 6, 7):
        rep = verify_ring_series(data_for(n))
        ok = ok and rep.ok
    elapsed = time.time() - t0
    _line(3, "A-identities, ladder commutator, graded relation, closure for n in 3..7", ok, f"{elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_4_polynomiality():
    ok = True
    detail = ""
    for n in (3, 4, 5):
        N = 10 * n
        data = data_for(n, N + 16)  # headroom so the fit still checks through x^N
        pm = build_pmatrix(data, 7, policy="zero")
        for j in range(n):
            Lj = CyclotomicSeries(data.L) * data.zeta(j)
            for k in range(8):
                series_val = series_entry(pm, k, 0, j) * data.zeta(-k * j)
                fit, checked = fit_laurent_in_L(series_val, Lj, max_degree=(k + 1) * n)
                if checked < N:
                    ok, detail = False, f"n={n} j={j} k={k}: checked only x^{checked}"
                    break
                if fit and min(fit) < 0:
                    ok, detail = False, "negative power appeared"
                    break
                if fit != {e: pm.col.phis[k].get(e) for e in pm.col.phis[k].nums}:
                    ok, detail = False, f"n={n} j={j} k={k}: the fit in L is not p_k"
                    break
        # D p_1 = f_n p_0 exactly
        d_phi1 = apply_operator([Series.zero(), Series.one()], pm.col.phis[1], n)
        if d_phi1 != f_n_poly(n):
            ok, detail = False, f"n={n}: D p_1 != f_n p_0"
    _line(4, "row-zero entries certified in C[L] to order N, and D p_1 = f_n p_0", ok, detail)


def test_criterion_5_derivative_lemmas():
    from orbigw.ring import RingElement

    ok = True
    for n in (3, 5, 4):
        data = data_for(n, 10 * n + 16)
        pm = build_pmatrix(data, 7, policy="zero")
        ctx = pm.ctx
        s = ctx.s
        gen = ("A", ctx.distinguished, 0)
        for j in range(n):
            for k in range(8):
                for i in range(n):
                    got = lifted_entry(pm, k, i, j).partial(gen)
                    want = RingElement.zero()
                    if k >= 1:
                        if n % 2:
                            if i == s:
                                want = lifted_entry(pm, k - 1, s + 1, j)
                        else:
                            if i == s:
                                want = lifted_entry(pm, k - 1, s + 1, j)
                            elif i == s - 1:
                                want = lifted_entry(pm, k - 1, s, j)
                    if not (got - want).is_zero():
                        ok = False
    _line(5, "flatness partial-derivative lemmas hold canonically for n=3,5 (odd) and n=4 (even), k <= 7", ok)


def test_criterion_6_psi_oracle():
    ok = True
    count = 0
    for m in range(3, 11):
        for ex in combinations_with_replacement(range(m - 2), m):
            if sum(ex) == m - 3:
                count += 1
                if psi_integral(0, ex) != psi_genus0(ex):
                    ok = False
    ok = ok and psi_integral(1, (1,)) == Fraction(1, 24) == psi_integral_bruteforce(1, (1,))
    ok = ok and psi_integral(2, (4,)) == Fraction(1, 1152) == psi_integral_bruteforce(2, (4,))
    _line(6, "psi oracle: closed form vs recursion (m <= 10) and the two frozen seeds", ok, f"{count} genus-0 cases")


def test_criterion_7_graph_enumeration():
    ok = True
    for (g, m) in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        a, b = enumerate_stable_graphs(g, m), enumerate_stable_graphs_naive(g, m)
        if len(a) != len(b):
            ok = False
    for n in (2, 3, 4):
        for (g, m) in [(1, 1), (1, 2), (2, 0), (2, 1)]:
            for graph in enumerate_stable_graphs(g, m):
                total = Fraction(0)
                for d in enumerate_decorated(g, m, n):
                    if d.graph == graph:
                        total += Fraction(1, d.aut)
                if total != Fraction(n**graph.num_vertices, aut_count(graph)):
                    ok = False
    _line(7, "independent enumerators agree and Burnside validates the automorphism counts", ok)


_HAE_RESULTS = {}


def test_criterion_8_holomorphic_anomaly():
    ok = True
    detail = []
    for n, g in ((3, 2), (5, 2), (4, 2)):
        for policy in ("symplectic", "zero", "custom"):
            t0 = time.time()
            custom = [Fraction(1, k + 2) for k in range(3 * g - 2)] if policy == "custom" else None
            r = verify_hae(n, g, policy=policy, custom_constants=custom)
            elapsed = time.time() - t0
            _HAE_RESULTS[(n, g, policy)] = r
            if not (r.verified and r.difference.is_zero() and r.eval_residual.is_zero()):
                ok = False
            allowed_c = ("C", ctx_for(n).c_index(ctx_for(n).s + 1))
            for side in (r.lhs, r.rhs):
                for gen in side.generators_used():
                    if gen[0] == "C" and gen != allowed_c:
                        ok = False
            assert elapsed < 600, f"HAE n={n} took {elapsed:.0f}s"
            detail.append(f"n={n}/{policy}:{elapsed:.1f}s")
    _line(8, "anomaly equations exact for (3,2), (5,2), (4,2) under three policies", ok, " ".join(detail))


def test_criterion_8b_optional_genus3():
    t0 = time.time()
    r = verify_hae(3, 3, policy="zero")
    elapsed = time.time() - t0
    _line(8, "optional extended run: n=3, g=3", r.verified, f"{elapsed:.0f}s")
    assert elapsed < 3600


def test_criterion_9_finite_generation():
    ok = True
    if not _HAE_RESULTS:
        test_criterion_8_holomorphic_anomaly()
    for r in _HAE_RESULTS.values():
        for audit in r.generator_audits:
            if not (audit["core_ok"] and audit["prefactor_ok"] and audit["vertex_ok"]):
                ok = False
    _line(9, "generator audits pass for every potential behind criterion 8", ok)


def test_criterion_10_determinism():
    # the hash seed decides set and dict iteration orders; a canonical output
    # must not depend on it
    cmd = [sys.executable, "-m", "orbigw.cli", "potential", "--n", "3", "--g", "2", "--policy", "zero",
           "--N", "30", "--format", "json"]
    src = str(Path(orbigw.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(proc.stdout.encode()).hexdigest())
    _line(10, "canonical potential output identical under hash seeds 0, 1, 4242", len(digests) == 1)
