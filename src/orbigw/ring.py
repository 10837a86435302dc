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

Keys.  A monomial's public form is the tuple ``(L_exponent, ((gen, exp),
...))``, generators sorted (``Monomial``); ``nums`` keys it by one packed
integer, all its exponents in one number (packed exponent vectors; Monagan
and Pearce, CASC 2007):

    key = L_exponent + sum_g exp_g * 2^(FIELD_BITS * (slot(g) + 1)),

the L exponent, signed, in the lowest field of ``FIELD_BITS`` = 32 bits and
each generator's exponent in the field above it at the slot the registry
here gives the generator on first sight (:func:`encode`; a context
registers the generators its verdicts read first, so they take the lowest
slots).  A monomial product is then ``m1 + m2``, ``mul_L(k)`` is ``m + k``,
and lowering a generator subtracts its unit.  The bound: every exponent
lies in (-EXPONENT_BOUND, EXPONENT_BOUND), EXPONENT_BOUND = 2^30, and a
generator's is positive; a field has room for twice the bound either way,
so a product of two monomials in range carries into no other field.
:func:`encode` refuses an exponent out of range and :func:`decode` a field
out of range, both with ``ValueError``, so an overflow fails loudly and
never aliases another monomial.  Verdicts stay far inside: through genus 4 at n = 3..5 no
exponent reaches 100.  Keys are tuples on the public side: the constructor
encodes them, and ``terms()``, ``to_json``, ``__repr__``,
``generators_used`` and ``uses_negative_L`` decode them, as do ``derive``,
the rule construction and the evaluator where they read generators, and
``PMatrixData.lift_entry`` for the column entries.

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
Monomial = tuple  # (L_exponent, ((gen, exp), ...)) with gens sorted; ``nums`` packs it (module docstring, Keys)

FIELD_BITS = 32
EXPONENT_BOUND = 1 << (FIELD_BITS - 2)
_MASK = (1 << FIELD_BITS) - 1
_HALF = 1 << (FIELD_BITS - 1)  # adding it makes the signed L field nonnegative

# the registry: slot -> generator, and generator -> (shift of its field, its unit 1 << shift)
_GENS: list[Gen] = []
_FIELD: dict[Gen, tuple[int, int]] = {}


def _field(g: Gen) -> tuple[int, int]:
    """The shift and unit of g's field, registering g at the next free slot on first sight."""
    f = _FIELD.get(g)
    if f is None:
        shift = FIELD_BITS * (len(_GENS) + 1)
        f = _FIELD[g] = (shift, 1 << shift)
        _GENS.append(g)
    return f


def _check(exp: int, low: int) -> int:
    if not low <= exp < EXPONENT_BOUND:
        raise ValueError(f"monomial exponent {exp} outside [{low}, {EXPONENT_BOUND})")
    return exp


def encode(mono: Monomial) -> int:
    """The packed key of a monomial (L_exp, ((gen, exp), ...)); ValueError on an exponent out of range."""
    L_exp, gens = mono
    key = _check(L_exp, 1 - EXPONENT_BOUND)
    for g, e in gens:
        key += _check(e, 1) * _field(g)[1]
    return key


def decode(key: int) -> Monomial:
    """The monomial (L_exp, ((gen, exp), ...)) of a packed key, gens sorted; ValueError on a field out of range."""
    L_exp = ((key + _HALF) & _MASK) - _HALF
    rest = (key + _HALF) >> FIELD_BITS
    gens = []
    for g in _GENS:
        e = rest & _MASK
        if rest <= 0 or e >= EXPONENT_BOUND:
            break  # a field out of range leaves rest nonzero
        if e:
            gens.append((g, e))
        rest >>= FIELD_BITS
    if rest or not -EXPONENT_BOUND < L_exp < EXPONENT_BOUND:
        raise ValueError(
            f"packed monomial {key} has an exponent outside (-{EXPONENT_BOUND}, {EXPONENT_BOUND}) or no registered slot"
        )
    return L_exp, tuple(sorted(gens))


class RingElement(QVector):
    """
    Polynomial in L^{+-1} and the ring generators over Q: ``nums`` maps each
    monomial's packed key to an integer numerator, over the one denominator
    ``den``.  The constructor takes {monomial: coefficient} with tuple monomials.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict[Monomial, int | Fraction] | None = None):
        super().__init__({encode(m): c for m, c in coeffs.items()} if coeffs else None)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "RingElement":
        return _ZERO

    @staticmethod
    def scalar(c: int | Fraction) -> "RingElement":
        return RingElement({(0, ()): c})

    @staticmethod
    def L_power(k: int, c: int | Fraction = 1) -> "RingElement":
        return RingElement({(k, ()): c})

    @staticmethod
    def generator(gen: Gen, c: int | Fraction = 1) -> "RingElement":
        return RingElement({(0, ((gen, 1),)): c})

    @staticmethod
    def L_poly(p: Series) -> "RingElement":
        """An exact polynomial in the symbol L (rational coefficients) as a ring element."""
        return RingElement({(e, ()): p.get(e) for e in p.nums})

    # -- structure -------------------------------------------------------------

    def terms(self):
        """(monomial, numerator) per term in ``nums`` order, each monomial decoded to its tuple."""
        return ((decode(m), c) for m, c in self.nums.items())

    def generators_used(self) -> set[Gen]:
        return {g for (_, gens), _ in self.terms() for g, _ in gens}

    def uses_negative_L(self) -> bool:
        return any(le < 0 for (le, _), _ in self.terms())

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
        monomials in this loop alone, each product one addition of keys.
        """
        if len(pairs) == 1:
            (x, y), = pairs
            den = x.den * y.den
        else:
            den = lcm(*[x.den * y.den for x, y in pairs])
        out: dict[int, int] = {}
        get = out.get
        for x, y in pairs:
            scale = den // (x.den * y.den)
            ys = y.nums.items()
            for m1, c1 in x.nums.items():
                c1 *= scale
                for m2, c2 in ys:
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
        return _ZERO._reduced(out, den)

    def _times(self, other: "RingElement") -> "RingElement":
        return RingElement.sum_of_products(((self, other),))

    def mul_L(self, k: int) -> "RingElement":
        return self._new({m + k: c for m, c in self.nums.items()}, self.den)

    # -- calculus -------------------------------------------------------------------

    def partial(self, gen: Gen) -> "RingElement":
        """Formal partial derivative with respect to one generator."""
        shift, unit = _field(gen)
        out: dict[int, int] = {}
        for m, c in self.nums.items():
            e = ((m + _HALF) >> shift) & _MASK
            if e:
                out[m - unit] = c * e
        return self._reduced(out, self.den)

    # -- rendering and serialization ---------------------------------------------------

    def __repr__(self) -> str:
        if not self.nums:
            return "RingElement(0)"
        bits = []
        for (le, gens), c in sorted(self.terms())[:6]:
            gtxt = "*".join(
                (f"{_gen_name(g)}^{e}" if e > 1 else _gen_name(g)) for g, e in gens
            )
            ltxt = f"L^{le}" if le else ""
            body = "*".join(t for t in (ltxt, gtxt) if t) or "1"
            bits.append(f"({Fraction(c, self.den)})*{body}")
        tail = " + ..." if len(self.nums) > 6 else ""
        return " + ".join(bits) + tail

    def to_json(self) -> list:
        return terms_to_json(dict(self.terms()), lambda c: str(Fraction(c, self.den)))


_ZERO = RingElement()


def terms_to_json(terms: dict[Monomial, object], coeff_json) -> list:
    """[L exponent, [[generator, exponent], ...], coeff_json(coefficient)] per monomial, in monomial order."""
    return [[le, [[list(g), e] for g, e in gens], coeff_json(terms[(le, gens)])] for le, gens in sorted(terms)]


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
        # the generators every verdict reads take the lowest free slots, in order
        for g in self.a_gens() + [self.c_gen(i) for i in range(1, (n + 1) // 2 + 1)]:
            _field(g)
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
        cofactors: dict[Gen | None, dict[int, int]] = {}
        for m, c in e.nums.items():
            le, gens = decode(m)
            if le:
                cofactors.setdefault(None, {})[m] = c * le
            for g, ex in gens:
                cofactors.setdefault(g, {})[m - _FIELD[g][1]] = c * ex
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
        return ladder_sum(k, p, self._X_ladder)

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
            rest: dict[int, int] = {}
            for key, c in rel.nums.items():
                le, gens = decode(key)
                hit = [e for g, e in gens if g == target]
                if hit:
                    if hit[0] != 1:
                        raise AssertionError(f"relation not linear in {target}")
                    pivot[(le, tuple((g, e) for g, e in gens if g != target))] = c
                else:
                    rest[key] = c
            if len(pivot) != 1:
                raise AssertionError(f"unexpected pivot for {target}: {pivot!r}")
            ((le, gens), c), = pivot.items()
            if gens:
                raise AssertionError(f"pivot for {target} is not a pure L power")
            # rel = c L^le target / den + rest / den = 0, so target = -rest / (c L^le)
            sign = -1 if c > 0 else 1
            rule = rel._reduced({key - le: sign * c2 for key, c2 in rest.items()}, abs(c))
            bad = [g for g in rule.generators_used() if g[0] == "A" and g[2] > self.admitted.get(g[1], -1)]
            if bad:
                raise AssertionError(f"rule for {target} mentions inadmissible {bad}")
            self._base_rules[m] = rule

    # -- evaluation ------------------------------------------------------------------------

    def evaluator(self, data: GenusZeroData) -> "RingEvaluator":
        return RingEvaluator(self, data)


class RingEvaluator:
    """
    Maps ring elements to truncated series through the evaluation homomorphism.

    Every generator's series, each power of it a monomial ends in, and every
    monomial's series is built once and kept for the evaluator's lifetime,
    so one evaluator reused across elements evaluates each monomial once;
    the L powers are the genus-zero data's own (``GenusZeroData.L_pow``).
    """

    def __init__(self, ctx: RingContext, data: GenusZeroData):
        if data.cfg.n != ctx.n:
            raise ValueError("ring context and genus zero data disagree on n")
        self.ctx = ctx
        self.data = data
        self._gen_series: dict[Gen, Series] = {}
        self._gen_powers: dict[tuple[Gen, int], Series] = {}
        self._mono_series: dict[int, Series] = {}

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

    def mono_series(self, key: int) -> Series:
        """
        The series of the monomial with packed key ``key``: that of the
        monomial without its last generator power, times that power.
        """
        if key not in self._mono_series:
            le, gens = decode(key)
            if gens:
                g, ex = gens[-1]
                if (g, ex) not in self._gen_powers:
                    self._gen_powers[(g, ex)] = self.gen_series(g) ** ex
                self._mono_series[key] = self.mono_series(key - ex * _FIELD[g][1]) * self._gen_powers[(g, ex)]
            else:
                self._mono_series[key] = self.data.L_pow(le)
        return self._mono_series[key]

    def eval(self, e: RingElement) -> Series:
        """
        The series of e: its monomials' series summed with their numerators
        over the lcm of their denominators times ``e.den``, known below the
        least of their bounds, with one normalisation (the way
        ``RingElement.sum_of_products`` sums).
        """
        terms = [(self.mono_series(m), c) for m, c in e.nums.items()]
        if not terms:
            return Series.zero()
        prec = min(s.prec for s, _ in terms)
        den = lcm(*[s.den for s, _ in terms])
        out: dict[int, int] = {}
        get = out.get
        for s, c in terms:
            c *= den // s.den
            for x, a in s.nums.items():
                if x < prec:
                    out[x] = get(x, 0) + a * c
        return Series.zero()._reduced(out, den * e.den, prec)


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
            residual = ev.eval(ctx.normal_form(i, j)) - data.A[i].deriv_pow(j)
            rep.zero(f"normal form of D^{j} A_{i}", residual, through=True)
    # D commutes with evaluation on a catalogue of small elements
    probes: list[RingElement] = [RingElement.L_power(-1)]
    for g in ctx.a_gens():
        probes.append(RingElement.generator(g))
    for i in range(1, ctx.n // 2 + 1):
        probes.append(RingElement.generator(("C", ctx.c_index(i))))
    for idx, p in enumerate(probes):
        rep.zero(f"derive/eval commute on probe {idx}", ev.eval(ctx.derive(p)) - ev.eval(p).D())
    return rep


def fit_laurent_in_L(f: Series, L: Series, max_degree: int) -> tuple[dict, int]:
    """
    The unique polynomial p(L) with p(L(x)) = f to the available order.

    Matching ascending x-coefficients is a triangular solve because
    L^r = c^r x^r (1 + O(x^n)) for the invertible leading coefficient c.
    Returns the coefficient dict and the last checked x-order; raises
    ValueError when no polynomial in L (pole order 0) of degree
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
        if e < 0:
            raise ValueError(f"pole order exceeds 0 at L^{e}")
        if e > max_degree:
            raise ValueError(f"no fit with degree <= {max_degree}; residual starts at x^{e}")
        if e not in pows:
            pows[e] = L**e
        unit = pows[e].get(e)
        coeff = c / unit
        out[e] = coeff
        residual = residual - pows[e] * coeff
