r"""
The free Laurent-polynomial ring that certifies finite generation.

Ring elements are polynomials over Q in

* integer powers of the symbol L,
* the admitted A-generators D^j A_i (a finite set fixed per n),
* the factor symbols C_1, ..., C_ceil((n-1)/2) (indices canonicalized by the
  palindrome C_i = C_{n+1-i}),

with a formal derivation D.  D acts on L-powers through D L = L Y with
Y = 1 + (-1)^n L^n / n^n, raises admitted A-generators by one derivative,
and rewrites any derivative that falls outside the admitted set using two
families of relations:

* the closure relation that expresses the first derivative of the
  distinguished A-generator (index s for odd n = 2s+1, s-1 for even n = 2s)
  through lower data and the explicit Laurent polynomial f_n(L);
* for each remaining representative index m, the relation obtained by
  pushing the rank-n differential equation through the ladder expansion of
  D^k I_m, which eliminates D^{n-1-m} A_m.

An element is a :class:`~orbigw.qvector.QVector` keyed by monomial; it adds
the product, ``mul_L`` and ``partial``.  Products go through one loop,
``RingElement.sum_of_products``, which sums many products over the lcm of
their denominators with one normalisation; ``x * y`` is the sum of one pair,
and the derivation the sum of its Leibniz pairs.  Roots of unity never
enter: a column of the P matrix is a zeta-weighted sum of rational ring elements, assembled
outside the ring (:mod:`orbigw.pmatrix`).

The rewrite rules are constructed symbolically once per n.  They are not
trusted: ``certify_rules`` evaluates every rule against the genus zero
series and fails loudly on the first mismatched coefficient.  The evaluation
homomorphism (L to the series L(x), D^j A_i to the series derivative,
C_i to the normalization factor) is the module's ground truth, and
``derive`` commutes with it by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import isinf, lcm

from .genus0 import GenusZeroData, Y_poly, f_n_poly, ladder_sum
from .qvector import QVector
from .report import Report
from .series import Series
from .stirling import stirling_first

# generator keys: ("A", i, j) stands for D^j A_i, ("C", i) for C_i
Gen = tuple
Monomial = tuple  # (L_exponent, ((gen, exp), ...)) with gens sorted


def _mono(L_exp: int = 0, gens: tuple = ()) -> Monomial:
    return (L_exp, gens)


_ONE_MONO = _mono()
_UNIT_NUMS = {_ONE_MONO: 1}


def _merge(g1: tuple, g2: tuple) -> tuple:
    """The generator part of a product of two monomials."""
    if not g2:
        return g1
    if not g1:
        return g2
    acc = dict(g1)
    for g, e in g2:
        acc[g] = acc.get(g, 0) + e
    return tuple(sorted(acc.items()))


class RingElement(QVector):
    """
    Polynomial in L^{+-1} and the ring generators over Q: ``nums`` maps each
    monomial to an integer numerator, over the one denominator ``den``.
    """

    __slots__ = ()

    ONE = _ONE_MONO

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "RingElement":
        return RingElement()

    @staticmethod
    def scalar(c: int | Fraction) -> "RingElement":
        return RingElement({_ONE_MONO: c})

    @staticmethod
    def L_power(k: int, c: int | Fraction = 1) -> "RingElement":
        return RingElement({_mono(k): c})

    @staticmethod
    def generator(gen: Gen, c: int | Fraction = 1) -> "RingElement":
        return RingElement({_mono(0, ((gen, 1),)): c})

    @staticmethod
    def L_poly(p: Series) -> "RingElement":
        """An exact polynomial in the symbol L (rational coefficients) as a ring element."""
        return RingElement({_mono(e): p.get(e) for e in p.nums})

    # -- structure -------------------------------------------------------------

    def generators_used(self) -> set[Gen]:
        out: set[Gen] = set()
        for (_, gens) in self.nums:
            out.update(g for g, _ in gens)
        return out

    def uses_negative_L(self) -> bool:
        return any(le < 0 for (le, _) in self.nums)

    def monomial_count(self) -> int:
        return len(self.nums)

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def sum_of_products(pairs) -> "RingElement":
        """
        The sum of x * y over a sequence of pairs (x, y) of ring elements.

        The products are summed over the lcm of their denominators, so the
        result is normalised once, with one gcd, however many pairs there
        are.  ``x * y`` is the sum of the one pair, so the ring multiplies
        monomials in this loop alone.  A constant operand (the monomial 1
        alone) scales the other's numerators, and a product with 1 is the
        other operand.
        """
        if len(pairs) == 1:
            (x, y), = pairs
            # a product with the constant 1 is the other operand
            if y.den == 1 and y.nums == _UNIT_NUMS:
                return x
            den = x.den * y.den
        else:
            den = lcm(*[x.den * y.den for x, y in pairs])
        out: dict[Monomial, int] = {}
        get = out.get
        for x, y in pairs:
            xs, ys = x.nums, y.nums
            if len(xs) == 1 and _ONE_MONO in xs:
                xs, ys = ys, xs
            scale = den // (x.den * y.den)
            if len(ys) == 1 and _ONE_MONO in ys:
                c2 = ys[_ONE_MONO] * scale
                for m, c1 in xs.items():
                    out[m] = get(m, 0) + c1 * c2
                continue
            for (l1, g1), c1 in xs.items():
                c1 *= scale
                for (l2, g2), c2 in ys.items():
                    # the empty generator parts, most of them, skip the call
                    m = (l1 + l2, g1 if not g2 else g2 if not g1 else _merge(g1, g2))
                    out[m] = get(m, 0) + c1 * c2
        return _ZERO._reduced(out, den)

    def _times(self, other: "RingElement") -> "RingElement":
        return RingElement.sum_of_products(((self, other),))

    def mul_L(self, k: int) -> "RingElement":
        return self._new({(le + k, gens): c for (le, gens), c in self.nums.items()}, self.den)

    # -- calculus -------------------------------------------------------------------

    def partial(self, gen: Gen) -> "RingElement":
        """Formal partial derivative with respect to one generator."""
        out: dict[Monomial, int] = {}
        for (le, gens), c in self.nums.items():
            for idx, (g, e) in enumerate(gens):
                if g == gen:
                    m = (le, _lower(gens, idx))
                    out[m] = out.get(m, 0) + c * e
                    break
        return self._reduced(out, self.den)

    # -- rendering and serialization ---------------------------------------------------

    def __repr__(self) -> str:
        if not self.nums:
            return "RingElement(0)"
        bits = []
        for (le, gens), c in sorted(self.nums.items())[:6]:
            gtxt = "*".join(
                (f"{_gen_name(g)}^{e}" if e > 1 else _gen_name(g)) for g, e in gens
            )
            ltxt = f"L^{le}" if le else ""
            body = "*".join(t for t in (ltxt, gtxt) if t) or "1"
            bits.append(f"({Fraction(c, self.den)})*{body}")
        tail = " + ..." if len(self.nums) > 6 else ""
        return " + ".join(bits) + tail

    def to_json(self) -> list:
        return terms_to_json(self.nums, lambda c: str(Fraction(c, self.den)))


_ZERO = RingElement()


def terms_to_json(terms: dict[Monomial, object], coeff_json) -> list:
    """[L exponent, [[generator, exponent], ...], coeff_json(coefficient)] per monomial, in monomial order."""
    return [[le, [[list(g), e] for g, e in gens], coeff_json(terms[(le, gens)])] for le, gens in sorted(terms)]


def _lower(gens: tuple, idx: int) -> tuple:
    """The generator part with the exponent at position idx lowered by one."""
    g, e = gens[idx]
    return gens[:idx] + gens[idx + 1 :] if e == 1 else gens[:idx] + ((g, e - 1),) + gens[idx + 1 :]


def _gen_name(g: Gen) -> str:
    if g[0] == "A":
        _, i, j = g
        return f"A{i}" if j == 0 else f"D{j}A{i}"
    return f"C{g[1]}"


class RingContext:
    """
    Rewrite rules and evaluation for the ring of one model order n.

    Construction is purely symbolic.  Certification against genus zero series
    is a separate step (``certify_rules``) so the same context can be reused
    at different truncation orders.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("n >= 3 required")
        self.n = n
        s = n // 2
        self.s = s
        self.odd = bool(n % 2)
        self.distinguished = s if self.odd else s - 1
        # admitted derivative bound per representative index
        self.admitted: dict[int, int] = {}
        for i in range(1, self.distinguished):
            self.admitted[i] = n - 2 - i
        self.admitted[self.distinguished] = 0
        self.Y = RingElement.L_poly(Y_poly(n))
        self.f_n = RingElement.L_poly(f_n_poly(n))  # drives the closure relation
        self._nf: dict[tuple[int, int], RingElement] = {}
        self._dgen: dict[tuple[Gen, bool], RingElement] = {}
        self._base_rules: dict[int, RingElement] = {}
        self._build_rules()

    # -- generator bookkeeping ----------------------------------------------------

    def a_gens(self) -> list[Gen]:
        out = []
        for i in sorted(self.admitted):
            out += [("A", i, j) for j in range(self.admitted[i] + 1)]
        return out

    def c_index(self, i: int) -> int:
        """Canonical factor index under the palindrome C_i = C_{n+1-i}."""
        i = ((i - 1) % self.n) + 1
        return min(i, self.n + 1 - i)

    def c_gen(self, i: int) -> Gen:
        return ("C", self.c_index(i))

    def a_rep(self, i: int) -> tuple[int, int]:
        """Representative index and sign for A_i under A_{n-i} = -A_i; (0,0) when zero."""
        n = self.n
        if i % n == 0:
            return (0, 0)
        i %= n
        if not self.odd and i == self.s:
            return (0, 0)
        if i <= self.distinguished:
            return (i, 1)
        return (n - i, -1)

    def A(self, i: int) -> RingElement:
        rep, sign = self.a_rep(i)
        if sign == 0:
            return RingElement.zero()
        return RingElement.generator(("A", rep, 0), sign)

    def X_poly(self, i: int) -> RingElement:
        """X_i = DC_i / C_i expressed through A-generators: Y - L A_i + L A_{i-1}."""
        if i == 0:
            return RingElement.zero()
        return self.Y - self.A(i).mul_L(1) + self.A(i - 1).mul_L(1)

    # -- the derivation --------------------------------------------------------------

    def derive(self, e: RingElement, free: bool = False) -> RingElement:
        """
        Formal D; with free=True derivatives are never rewritten (rule construction).

        By the Leibniz rule D(e) = (L d/dL e) Y + sum_g (d e / d g) D(g) over
        the generators g of e (D L^k = k L^k Y), so D(e) is the one
        ``sum_of_products`` of the pairs (D(factor), cofactor).
        """
        # cofactors[g]: d e / d g as numerators over e.den, and under the key
        # None L d/dL e; lowering g is injective on monomials, so no key repeats
        cofactors: dict[Gen | None, dict[Monomial, int]] = {}
        for (le, gens), c in e.nums.items():
            if le:
                cofactors.setdefault(None, {})[(le, gens)] = c * le
            for idx, (g, ex) in enumerate(gens):
                cofactors.setdefault(g, {})[(le, _lower(gens, idx))] = c * ex
        pairs = [(self.Y if g is None else self._d_gen(g, free), e._reduced(nums, e.den)) for g, nums in cofactors.items()]
        return RingElement.sum_of_products(pairs)

    def _d_gen(self, g: Gen, free: bool) -> RingElement:
        key = (g, free)
        if key not in self._dgen:
            if g[0] == "A":
                _, i, j = g
                if free or j + 1 <= self.admitted.get(i, -1):
                    d = RingElement.generator(("A", i, j + 1))
                else:
                    d = self.normal_form(i, j + 1)
            else:
                # D C_i = C_i X_i; the stored index is already canonical and
                # X is palindrome-symmetric in the same way (X_i = X_{n+1-i})
                d = RingElement.generator(g) * self.X_poly(g[1])
            self._dgen[key] = d
        return self._dgen[key]

    def normal_form(self, i: int, j: int) -> RingElement:
        """Normal form of D^j A_i for j beyond the admitted bound."""
        top = self.admitted[i]
        if j <= top:
            return RingElement.generator(("A", i, j))
        key = (i, j)
        if key not in self._nf:
            if j == top + 1:
                self._nf[key] = self._base_rules[i]
            else:
                self._nf[key] = self.derive(self.normal_form(i, j - 1))
        return self._nf[key]

    # -- rule construction --------------------------------------------------------------

    def _X_ladder(self, k: int, l: int) -> RingElement:
        """X_{k,l} = (D + X_k)^{l-1} X_k in the free ring; X_{k,0} = 1."""
        if l == 0:
            return RingElement.scalar(1)
        xk = self.X_poly(k)
        t = xk
        for _ in range(l - 1):
            t = self.derive(t, free=True) + xk * t
        return t

    def _BK(self, k: int, p: int) -> RingElement:
        """B_{k,p} / K_p in the free ring, expanded through the X ladder."""
        return ladder_sum(k, p, self._X_ladder, RingElement.scalar(1))

    def _build_rules(self):
        n = self.n
        limit = (n - 1) // 2
        dist = self.distinguished
        # closure relation for the distinguished generator
        rhs = self.f_n * -n
        for r in range(1, limit + 1):
            rhs = rhs + (self.A(r) * self.A(r)).mul_L(1)
        for r in range(1, limit):
            rhs = rhs - RingElement.generator(("A", r, 1)) * (n - 2 * r)
        self._base_rules[dist] = rhs * Fraction(1, n - 2 * limit)

        # ladder relations eliminate the top derivative of every other representative
        for m in range(1, dist):
            rel = self._BK(n, m)
            for k in range(m, n):
                rel = rel + self.Y * self._BK(k, m) * stirling_first(n, k)
            target = ("A", m, n - 1 - m)
            pivot: dict[Monomial, int] = {}
            rest: dict[Monomial, int] = {}
            for (le, gens), c in rel.nums.items():
                hit = [e for g, e in gens if g == target]
                if hit:
                    if hit[0] != 1:
                        raise AssertionError(f"relation not linear in {target}")
                    pivot[(le, tuple((g, e) for g, e in gens if g != target))] = c
                else:
                    rest[(le, gens)] = c
            if len(pivot) != 1:
                raise AssertionError(f"unexpected pivot for {target}: {pivot!r}")
            ((le, gens), c), = pivot.items()
            if gens:
                raise AssertionError(f"pivot for {target} is not a pure L power")
            # rel = c L^le target / den + rest / den = 0, so target = -rest / (c L^le)
            sign = -1 if c > 0 else 1
            rule = rel._reduced({(l2 - le, g2): sign * c2 for (l2, g2), c2 in rest.items()}, abs(c))
            bad = [g for g in rule.generators_used() if g[0] == "A" and g[2] > self.admitted.get(g[1], -1)]
            if bad:
                raise AssertionError(f"rule for {target} mentions inadmissible {bad}")
            self._base_rules[m] = rule

    # -- evaluation ------------------------------------------------------------------------

    def evaluator(self, data: GenusZeroData) -> "RingEvaluator":
        return RingEvaluator(self, data)


class RingEvaluator:
    """Caches generator series and maps ring elements to truncated series."""

    def __init__(self, ctx: RingContext, data: GenusZeroData):
        if data.cfg.n != ctx.n:
            raise ValueError("ring context and genus zero data disagree on n")
        self.ctx = ctx
        self.data = data
        self._gen_series: dict[Gen, Series] = {}
        self._L_pows: dict[int, Series] = {0: Series.one()}

    def L_pow(self, k: int) -> Series:
        if k not in self._L_pows:
            if k > 0:
                self._L_pows[k] = self.L_pow(k - 1) * self.data.L
            else:
                self._L_pows[k] = self.L_pow(k + 1) / self.data.L
        return self._L_pows[k]

    def gen_series(self, g: Gen) -> Series:
        if g not in self._gen_series:
            if g[0] == "A":
                _, i, j = g
                s = self.data.A[i]
                for _ in range(j):
                    s = s.D()
                self._gen_series[g] = s
            else:
                self._gen_series[g] = self.data.C[g[1]]
        return self._gen_series[g]

    def eval(self, e: RingElement) -> Series:
        """The series of e: each monomial's series scaled by its numerator, then one division by the denominator."""
        total = Series.zero()
        for (le, gens), c in e.nums.items():
            term = self.L_pow(le)
            for g, ex in gens:
                term = term * self.gen_series(g) ** ex
            total = total + term * c
        return total / e.den if e.den != 1 else total


def certify_rules(ctx: RingContext, data: GenusZeroData) -> Report:
    """
    Evaluate every rewrite rule against the genus zero series.

    Two derivative levels are certified beyond each base rule, which exercises
    the lazily derived normal forms as well.
    """
    ev = ctx.evaluator(data)
    rep = Report(f"rewrite rule certification (n={ctx.n}, N={data.cfg.N})")
    for i, top in sorted(ctx.admitted.items()):
        for j in range(top + 1, top + 3):
            got = ev.eval(ctx.normal_form(i, j))
            want = data.A[i].deriv_pow(j)
            d = (got - want).zero_order()
            rep.add(
                f"normal form of D^{j} A_{i}",
                d is None,
                f"first bad x-power {d}" if d is not None else f"zero through x^{int((got - want).prec) - 1}",
            )
    # D commutes with evaluation on a catalogue of small elements
    probes: list[RingElement] = [RingElement.L_power(-1)]
    for g in ctx.a_gens():
        probes.append(RingElement.generator(g))
    for i in range(1, ctx.n // 2 + 1):
        probes.append(RingElement.generator(("C", ctx.c_index(i))))
    for idx, p in enumerate(probes):
        got = ev.eval(ctx.derive(p))
        want = ev.eval(p).D()
        d = (got - want).zero_order()
        rep.add(f"derive/eval commute on probe {idx}", d is None, f"first bad x-power {d}" if d is not None else "")
    return rep


def fit_laurent_in_L(f: Series, L: Series, max_pole: int, max_degree: int) -> tuple[dict, int]:
    """
    The unique Laurent polynomial p(L) with p(L(x)) = f to the available order.

    Matching ascending x-coefficients is a triangular solve because
    L^r = c^r x^r (1 + O(x^n)) for the invertible leading coefficient c.
    Returns the coefficient dict and the last checked x-order; raises
    ValueError when no polynomial with pole order <= max_pole and degree
    <= max_degree fits.
    """
    lead_base = L.first_nonzero()
    if lead_base is None or lead_base[0] != 1:
        raise ValueError("the base series must have valuation exactly 1")
    out: dict = {}
    residual = f
    pows: dict[int, Series] = {}
    while True:
        lead = residual.first_nonzero()
        if lead is None:
            return out, (-1 if isinf(residual.prec) else int(residual.prec) - 1)
        e, c = lead
        if e < -max_pole:
            raise ValueError(f"pole order exceeds {max_pole} at L^{e}")
        if e > max_degree:
            raise ValueError(f"no fit with degree <= {max_degree}; residual starts at x^{e}")
        if e not in pows:
            pows[e] = L**e
        unit = pows[e].get(e)
        coeff = c / unit
        out[e] = coeff
        residual = residual - pows[e] * coeff
