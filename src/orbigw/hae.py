r"""
Holomorphic anomaly equations, verified as exact ring identities.

For odd n = 2s+1 and genus g >= 2 the claim is

    C_{s+1} / ((2s+1) L) d F_g / d A_s
        = (1/2) F_{g-1,2}(phi_s, phi_s)
          + (1/2) sum_{i=1}^{g-1} F_{g-i,1}(phi_s) F_{i,1}(phi_s),

and for even n = 2s

    C_{s+1} / (2s L) d F_g / d A_{s-1}
        = F_{g-1,2}(phi_{s-1}, phi_s)
          + sum_{i=1}^{g-1} F_{g-i,1}(phi_{s-1}) F_{i,1}(phi_s),

both inside C[L^{+-1}][S_n][C_{s+1}].  The right-hand potentials carry two
leg prefactors whose product collapses, through the exact identities
K_{s+1}^2 = C_{s+1} L^n (odd) and K_s K_{s+1} = C_{s+1} L^n (even), to the
same monomial C_{s+1}/L that multiplies the left side, so each theorem is
equivalent to an identity between the prefactor-free cores.  Both the
canonical-form difference and the evaluated series residual are computed;
the two checkers must agree, and the identity must hold under every
constants policy, because the proof consumes only the flatness structure.
"""

from __future__ import annotations

from fractions import Fraction

from .genus0 import GenusZeroData, ModelConfig, require_int
from .pmatrix import build_pmatrix, check_constants
from .potentials import ContributionTables, assemble_F, assemble_potentials, audit_generators
from .report import Report
from .ring import RingContext, RingElement
from .series import Series


class HaeReport:
    __slots__ = ("n", "g", "parity", "policy", "lhs", "rhs", "difference", "eval_residual", "generator_audits", "status")

    def __init__(
        self,
        n: int,
        g: int,
        parity: str,
        policy: str,
        lhs: RingElement,
        rhs: RingElement,
        difference: RingElement,
        eval_residual: Series,
        generator_audits: list[dict],
        status: str,
    ):
        self.n = n
        self.g = g
        self.parity = parity
        self.policy = policy
        self.lhs = lhs
        self.rhs = rhs
        self.difference = difference
        self.eval_residual = eval_residual
        self.generator_audits = generator_audits
        self.status = status

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "parity": self.parity,
            "policy": self.policy,
            "status": self.status,
            "difference_monomials": self.difference.monomial_count(),
            "eval_residual_zero": self.eval_residual.is_zero(),
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


def _common_prefactor(ctx: RingContext) -> RingElement:
    """The monomial C_{s+1} / L both sides of the anomaly equation carry."""
    return RingElement({(-1, ((ctx.c_gen(ctx.s + 1), 1),)): Fraction(1)})


def prefactor_collapse_check(data: GenusZeroData) -> bool:
    """K_{Inv(c1)} K_{Inv(c2)} / L^{...} = C_{s+1}/L for the two legs of the right side."""
    n = data.cfg.n
    s = data.cfg.s
    if n % 2:
        lhs = data.K[s + 1] * data.K[s + 1]
    else:
        lhs = data.K[s] * data.K[s + 1]
    rhs = data.C[s + 1] * data.L_pow(n)
    return (lhs - rhs).zero_order() is None


def verify_hae(
    n: int,
    g: int,
    policy: str = "symplectic",
    custom_constants: list[Fraction] | None = None,
    N: int | None = None,
) -> HaeReport:
    """
    Build the contribution tables for (n, g) under one constants policy
    (default symplectic) and check the anomaly equation on them (:func:`check_hae`).
    The arguments are checked before any table is built.
    """
    for name, value in (("n", n), ("g", g), ("N", 0 if N is None else N)):
        require_int(name, value)
    check_constants(custom_constants)
    if g < 2:
        raise ValueError("the anomaly equation is stated for g >= 2")
    data = GenusZeroData.build(ModelConfig(n, N or 0))
    pm = build_pmatrix(data, 3 * g - 2, policy, custom_constants=custom_constants)
    return check_hae(ContributionTables(pm), g)


def check_hae(tables: ContributionTables, g: int) -> HaeReport:
    """
    Compare both sides of the genus-g anomaly equation canonically and under
    evaluation, for the n, N, constants policy and constants of the tables.
    """
    if g < 2:
        raise ValueError("the anomaly equation is stated for g >= 2")
    ctx, data, policy = tables.ctx, tables.data, tables.pm.col.policy
    n, cfg = ctx.n, data.cfg
    s = cfg.s
    odd = bool(n % 2)
    dist_gen = ("A", ctx.distinguished, 0)

    Fg = assemble_F(tables, g, ())
    lhs_core = Fg.core.partial(dist_gen) * Fraction(1, n)

    legs_two = (s, s) if odd else (s - 1, s)
    ca = s if odd else s - 1
    # the potentials of one genus are assembled together, F_{g-1,2} with the
    # one-leg potentials of genus g - 1; for odd n both one-leg insertions are s
    ones = tuple((c,) for c in sorted({ca, s}))
    legged = {h: assemble_potentials(tables, h, ((legs_two,) if h == g - 1 else ()) + ones) for h in range(1, g)}
    F_two = legged[g - 1][legs_two]
    rhs_core = F_two.core
    one_left = [legged[g - i][(ca,)] for i in range(1, g)]
    one_right = [legged[i][(s,)] for i in range(1, g)]
    for left, right in zip(one_left, one_right):
        rhs_core = rhs_core + left.core * right.core
    if odd:
        rhs_core = rhs_core * Fraction(1, 2)

    pref = _common_prefactor(ctx)
    lhs = pref * lhs_core
    rhs = pref * rhs_core
    difference = lhs - rhs

    ev = ctx.evaluator(data)
    lhs_series = ev.eval(lhs)
    rhs_series = ev.eval(rhs)
    eval_residual = lhs_series - rhs_series

    canonical_zero = difference.is_zero()
    # a vacuous zero (no surviving precision) must not count as a pass
    eval_zero = eval_residual.is_zero() and eval_residual.prec >= 2 * n
    collapse_ok = prefactor_collapse_check(data)
    if canonical_zero and eval_zero and collapse_ok:
        status = "verified"
    elif canonical_zero != eval_zero:
        status = "checker-disagreement"
    else:
        status = "failed"

    audits = [
        audit_generators(tables, Fg),
        audit_generators(tables, F_two),
    ] + [audit_generators(tables, p) for p in one_left + one_right]

    return HaeReport(
        n,
        g,
        cfg.parity,
        policy,
        lhs,
        rhs,
        difference,
        eval_residual,
        audits,
        status,
    )


def verify_hae_policies(n: int, g: int, policies: list[str], N: int | None = None) -> tuple[Report, list[HaeReport]]:
    """
    Run the anomaly equation under several constants policies and compare.
    ``custom`` is given the free constants 1, 1/2, 1/3, ..., one per odd
    order 1, 3, 5, ... up to 3g - 2, and unitarity fixes the even orders.
    """
    rep = Report(f"holomorphic anomaly equation (n={n}, g={g})")
    results = []
    for pol in policies:
        custom = [Fraction(1, k + 1) for k in range((3 * g - 1) // 2)] if pol == "custom" else None
        r = verify_hae(n, g, policy=pol, custom_constants=custom, N=N)
        results.append(r)
        rep.add(f"policy {pol}: exact identity", r.verified, r.status)
        for a in r.generator_audits:
            if not (a["core_ok"] and a["prefactor_ok"] and a["vertex_ok"]):
                rep.add(f"policy {pol}: finite generation audit", False, str(a))
                break
        else:
            rep.add(f"policy {pol}: finite generation audit", True)
    rep.add("status independent of policy", len({r.status for r in results}) == 1)
    return rep, results
