r"""
Genus zero data for the cyclic quotient orbifold of order n.

Everything downstream is built from a handful of explicit series in x:

* the components I_k of the hypergeometric solution of the rank-n
  Picard-Fuchs equation,

      I_k(x) = sum_{l >= 0} (-1)^{nl} x^{nl+k} / (nl+k)!
               * (prod_{j<l} (j + k/n))^n,

  held as the z^{-k} slots of one z-adic array so the Birkhoff
  normalization can act on it;
* the distinguished series L(x) = x (1 - (-1)^n (x/n)^n)^{-1/n}, the base
  generator of every finite-generation ring;
* the normalization factors C_i produced by iterating the operator
  M F = z D (F / F(x, infinity)), together with the running products
  K_l = C_0 ... C_l;
* the logarithmic derivatives X_k = D C_k / C_k and the combinations
  A_i = (i DL/L - sum_{r<=i} X_r) / L in which the higher genus theory is
  polynomial;
* the two explicit polynomials in the symbol L that the ring and the
  P column share, Y = 1 + (-1)^n L^n / n^n (so D L = L Y) and f_n(L), held
  once as exact series and evaluated at L(x) by ``GenusZeroData.at_L``.

Two independent constructions of the C_i are implemented: the z-adic
normalization above and the inductive form C_i = D Lop_{i-1} ... Lop_0 I_i
with Lop_i = C_i^{-1} D.  Their agreement, the Picard-Fuchs residuals, and
the product identities are exposed as verification reports rather than
assumed.

All arithmetic is exact.  The semisimple frame (idempotents, Psi and its
inverse) carries roots of unity only as DFT weights on rational series, so
``verify_quantum`` checks it through rational differences, and
:func:`at_column` is the one place a root of unity enters, here and in the
P column: a zeta-weighted sum of series or ring elements is no series or
ring element but a dict {key: coefficient} (:func:`entry_at_column`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import comb, factorial
from operator import add

from .cyclotomic import Cyclotomic
from .report import Report
from .series import Series
from .stirling import stirling_first


def require_int(name: str, value) -> None:
    if type(value) is not int:  # a bool, an int subclass, is refused too
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class ModelConfig:
    """
    Order n >= 3 of the quotient and the x-truncation order N (0 stands for
    10n); immutable, equal and hashed by (n, N).
    """

    __slots__ = ("n", "N")

    def __init__(self, n: int, N: int = 0):
        require_int("n", n)
        require_int("N", N)
        if n < 3:
            raise ValueError("the model needs n >= 3")
        N = N or 10 * n
        if N < 4 * n:
            raise ValueError("truncation order N must be at least 4n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name} = {value!r}: a ModelConfig is immutable")

    def __eq__(self, other):
        if other.__class__ is not ModelConfig:
            return NotImplemented
        return (self.n, self.N) == (other.n, other.N)

    def __hash__(self):
        return hash((self.n, self.N))

    def __repr__(self) -> str:
        return f"ModelConfig(n={self.n!r}, N={self.N!r})"

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"

    @property
    def s(self) -> int:
        """n = 2s+1 for odd n, n = 2s for even n."""
        return self.n // 2


def compute_I(cfg: ModelConfig, slots: int) -> list[Series]:
    """
    The z^{-k} slot series of the hypergeometric array, k = 0..slots.

    Each x-degree m = nq + r contributes through the degree-q polynomial
    prod_{j<q} (1 + (-1)^n b_j^n z^n) with b_j = j + r/n; the z^{nj} term
    lands in slot m - nj.  With a_j = (jn + r)^n that term is
    (-1)^{nj} e_j / (n^{nj} m!), e_j the elementary symmetric functions of
    a_0 .. a_{q-1}.  So each residue r is walked with q increasing, its
    integer e_j grown by one factor a_q = m^n per step (e_j += e_{j-1} a_q),
    and only the j with m - nj <= slots become coefficients: O(N^2 / n)
    integer operations, where expanding the product afresh for every m took
    O(N^3 / n^2) rational ones.
    """
    n, N = cfg.n, cfg.N
    out: list[dict[int, Fraction]] = [dict() for _ in range(slots + 1)]
    for r in range(n):
        e = [1]  # e[j] = e_j(a_0 .. a_{q-1}) at the degree m = nq + r
        for m in range(r, N + 1, n):
            for j in range(max(0, -((slots - m) // n)), len(e)):
                out[m - n * j][m] = Fraction((-1) ** (n * j) * e[j], n ** (n * j) * factorial(m))
            a = m**n
            e.append(0)
            for j in range(len(e) - 1, 0, -1):
                e[j] += e[j - 1] * a
    return [Series(d, N + 1) for d in out]


def compute_L(cfg: ModelConfig) -> Series:
    """
    L = x (1 - (-1)^n (x/n)^n)^(-1/n), which satisfies DL/L = L^n/x^n, summed
    from its binomial series: x^(nj+1) carries (1/n)_j / j! ((-1)^n / n^n)^j,
    j = 0 .. N // n, so L is known below x^(N+2).
    """
    n, N = cfg.n, cfg.N
    ratio = Fraction((-1) ** n, n**n)
    coeffs, c = {}, Fraction(1)
    for j in range(N // n + 1):
        coeffs[n * j + 1] = c
        c = c * (Fraction(1, n) + j) / (j + 1) * ratio
    return Series(coeffs, N + 2)


def birkhoff_C(slots: list[Series], count: int) -> tuple[list[Series], list[Series]]:
    """
    C_0 .. C_count by iterating the normalization M F = z D (F / F(x, infinity)),
    and the inverses of C_0 .. C_{count-1} the iteration takes on the way.

    In slot form one step maps [s_0, s_1, ...] to [D(s_1/s_0), D(s_2/s_0), ...],
    so C_i only ever consumes the first i+1 slots, and step i grows only the
    count - i slots a later step reads.
    """
    if count > len(slots) - 1:
        raise ValueError("not enough z-slots for the requested C count")
    cs: list[Series] = []
    invs: list[Series] = []
    cur = slots
    for i in range(count + 1):
        lead = cur[0]
        if lead.first_nonzero() is None:
            raise ZeroDivisionError(f"slot 0 vanished at step {i}; truncation order too small")
        cs.append(lead)
        if i < count:
            invs.append(lead.inverse())
            cur = [(cur[k + 1] * invs[-1]).D() for k in range(min(len(cur) - 1, count - i))]
    return cs, invs


def C_via_inversion(slots: list[Series], count: int) -> list[Series]:
    """
    The inductive normalization C_i = D Lop_{i-1} ... Lop_0 I_i, Lop_r = C_r^{-1} D.

    Self-contained (uses only its own output), so it cross-validates
    :func:`birkhoff_C`.
    """
    cs = [Series.one().truncate(slots[0].prec)]
    invs: list[Series] = []  # the inverses of cs[1], cs[2], ..., each taken once
    for i in range(1, count + 1):
        t = slots[i]
        for inv in invs:
            t = t.D() * inv
        cs.append(t.D())
        if i < count:
            invs.append(cs[i].inverse())
    return cs


class GenusZeroData:
    """
    All genus zero series for one (n, N), plus the ring generators.

    The inverses the batteries and the P column divide by are taken once per
    instance and kept for its lifetime: ``L_inv``, ``C_inv`` (C_1 .. C_n),
    ``K_inv`` (K_0 .. K_{n-1}), the powers ``L_pow(k)`` of either sign, and
    the derivatives D^m C_i the ladder sums read.  ``build`` seeds ``L_inv``
    and ``C_inv`` with the inverses it takes on the way (``birkhoff_C``
    inverts the C_i it builds); the rest are taken on first read.  None of
    them is a constructor argument, so an instance built from other series
    computes its own, and it keeps its own ``quantum_coeff`` cache too.
    ``C_via_inversion`` keeps inverses of its own: it is the independent
    second construction that "two constructions of C_i agree" compares
    against.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        I: list[Series],
        L: Series,
        C: list[Series],
        K: list[Series],
        X: list[Series],
        A: list[Series],
        Theta: Series,
        DLL: Series,
    ):
        self.cfg = cfg
        self.I = I
        self.L = L
        self.C = C
        self.K = K
        self.X = X
        self.A = A
        self.Theta = Theta
        self.DLL = DLL
        self._quantum_cache: dict[tuple[int, int], Series] = {}

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(cfg: ModelConfig) -> "GenusZeroData":
        n = cfg.n
        slots = compute_I(cfg, n + 2)
        L = compute_L(cfg)
        C, C_inv = birkhoff_C(slots, n + 1)
        K = [C[0]]
        for l in range(1, n + 1):
            K.append(K[-1] * C[l])
        X = [C[r].D() * C_inv[r] for r in range(n + 1)]
        L_inv = L.inverse()
        DLL = L.D() * L_inv
        A = []
        for i in range(n + 1):
            acc = DLL * i
            for r in range(1, i + 1):
                acc = acc - X[r]
            A.append(acc * L_inv)
        data = GenusZeroData(cfg, slots, L, C, K, X, A, slots[1], DLL)
        data.L_inv = L_inv
        data.C_inv = {r: C_inv[r] for r in range(1, n + 1)}
        return data

    # -- small helpers --------------------------------------------------------

    def zeta(self, k: int) -> Cyclotomic:
        return Cyclotomic.zeta(self.cfg.n, k)

    @cached_property
    def L_inv(self) -> Series:
        return self.L.inverse()

    @cached_property
    def C_inv(self) -> dict[int, Series]:
        """{r: 1 / C_r} for r = 1 .. n."""
        return {r: self.C[r].inverse() for r in range(1, self.cfg.n + 1)}

    @cached_property
    def K_inv(self) -> list[Series]:
        """1 / K_l for l = 0 .. n-1."""
        return [self.K[l].inverse() for l in range(self.cfg.n)]

    @cached_property
    def _L_pows(self) -> dict[int, Series]:
        return {0: Series.one()}

    @cached_property
    def _C_derivs(self) -> dict[tuple[int, int], Series]:
        return {}

    def L_pow(self, k: int) -> Series:
        """L^k for any integer k, each power one product from its neighbour towards L^0."""
        pows = self._L_pows
        if k not in pows:
            pows[k] = self.L_pow(k - 1) * self.L if k > 0 else self.L_pow(k + 1) * self.L_inv
        return pows[k]

    def at_L(self, p: Series) -> Series:
        """An exact polynomial in the symbol L, evaluated at the series L(x)."""
        return reduce(add, (self.L_pow(e) * c for e, c in sorted(p.nums.items())), Series.zero()) / p.den

    def K_ext(self, l: int) -> Series:
        """K_l for any l >= 0 through K_{n+l} = L^n K_l."""
        n = self.cfg.n
        return self.K[l] if l < n else self.K[l % n] * self.L_pow(l - l % n)

    def two_point(self, i: int) -> Series:
        """<<phi_i, phi_{n-1-i}>> = (1/n) Lop_i ... Lop_0 I_{i+1}; zero otherwise."""
        t = self.I[i + 1]
        for r in range(1, i + 1):
            t = t.D() * self.C_inv[r]
        return t / self.cfg.n

    def quantum_coeff(self, i: int, j: int) -> Series:
        """Structure constant of phi_i * phi_j = (K_{i+j} / K_i K_j) phi_{i+j}."""
        if (i, j) not in self._quantum_cache:
            self._quantum_cache[(i, j)] = self.K_ext(i + j) * self.K_inv[i] * self.K_inv[j]
        return self._quantum_cache[(i, j)]

    # -- the B / Z ladder -----------------------------------------------------

    def Z_series(self, m: int, k: int) -> Series:
        if k > m:
            return Series.zero(self.C[0].prec)
        if k == m:
            return Series.one().truncate(self.C[0].prec)
        t = Series.one()
        for r in range(m, k, -1):
            t = (self.C[r] * t).D_inverse()
        return t

    def C_deriv(self, i: int, m: int) -> Series:
        """D^m C_i, each one derivative of the one below it."""
        derivs = self._C_derivs
        if (i, m) not in derivs:
            derivs[(i, m)] = self.C_deriv(i, m - 1).D() if m else self.C[i]
        return derivs[(i, m)]

    def B_series(self, k: int, p: int) -> Series:
        return ladder_sum(k, p, self.C_deriv)


def Y_poly(n: int) -> Series:
    """Y = 1 + (-1)^n L^n / n^n, so that D L = L Y, as an exact polynomial in L."""
    return Series({0: Fraction(1), n: Fraction((-1) ** n, n**n)})


def f_n_poly(n: int) -> Series:
    """f_n(L) = ((-1)^(n-1)/n) C(n+1,4) Y L^(n-1) / n^n as an exact polynomial in L."""
    return (Y_poly(n) * Fraction((-1) ** (n - 1) * comb(n + 1, 4), n ** (n + 1))).shift(n - 1)


def ladder_sum(k: int, p: int, block):
    """
    The chain sum over k = c_1 > c_2 > ... > c_p >= 1 of

        prod_{i<p} comb(c_i - 1, c_{i+1}) block(i, c_i - 1 - c_{i+1})  *  block(p, c_p - 1),

    for 1 <= p <= k.  With block(i, m) = D^m C_i it is the series B_{k,p};
    with the free-ring ladder X_{i,m} it is B_{k,p} / K_p.  Each chain starts
    at its first block, with no product by a constant one.
    """
    terms = []

    def chain(acc, b):
        return b if acc is None else acc * b

    def rec(i: int, c: int, acc, coeff: int):
        if i == p:
            terms.append(chain(acc, block(p, c - 1)) * coeff)
            return
        for nxt in range(p - i, c):
            rec(i + 1, nxt, chain(acc, block(i, c - 1 - nxt)), coeff * comb(c - 1, nxt))

    rec(1, k, None, 1)
    return reduce(add, terms)


def at_column(pieces: list, j: int, zeta):
    """
    The DFT value sum_w zeta^{wj} pieces[w] of pieces graded by residue, zero
    pieces skipped: the one place a root of unity enters the frame battery
    and the P column (its series oracle and ring lift alike).
    """
    n = len(pieces)
    terms = [piece * zeta(w * j) if w * j % n else piece for w, piece in enumerate(pieces) if piece]
    return sum(terms[1:], terms[0]) if terms else pieces[0]


def entry_at_column(pieces: list, j: int, zeta) -> dict:
    """
    The column-j entry sum_w zeta^{wj} pieces[w] of rational pieces graded by
    residue, each a ring element or a series (integer ``nums`` over one
    ``den``): a dict {key: coefficient} over the pieces' monomials or
    exponents, each coefficient the DFT (:func:`at_column`) of that key's
    per-residue rationals, a ``Fraction`` when it is rational, a
    ``Cyclotomic`` otherwise.  A series entry is known below the least
    truncation bound of its nonzero pieces, and stops there.  Zero pieces give
    the empty entry and build no cyclotomic number.
    """
    live = [piece for piece in pieces if piece]
    if live and isinstance(live[0], Series):
        known = min(piece.prec for piece in live)
        pieces = [piece.truncate(known) for piece in pieces]
    out = {}
    for key in dict.fromkeys(key for piece in pieces for key in piece.nums):
        c = at_column([Fraction(piece.nums.get(key, 0), piece.den) for piece in pieces], j, zeta)
        if c:
            out[key] = c.to_rational() if isinstance(c, Cyclotomic) and c.is_rational() else c
    return out


# -- verification -------------------------------------------------------------


def verify_picard_fuchs(data: GenusZeroData) -> Report:
    """
    Residuals of the rank-n equation, slot by slot, in three equivalent forms:
    the raw x^{-n}-form, the per-component form, and the factorized form.
    """
    cfg = data.cfg
    n = cfg.n
    rep = Report(f"Picard-Fuchs residuals (n={n}, N={cfg.N})")
    sign = Fraction((-1) ** n, n**n)

    for k, slot in enumerate(data.I):
        lhs = Series.zero()
        for j in range(1, n + 1):
            lhs = lhs + slot.deriv_pow(j) * stirling_first(n, j)
        lhs = lhs.shift(-n) - slot.deriv_pow(n) * sign
        rhs = data.I[k - n] if k >= n else Series.zero()
        rep.zero(f"full equation, slot {k}", lhs - rhs, through=True)

    for k in range(n):
        resid = data.I[k].deriv_pow(n)
        for r in range(1, n):
            resid = resid + data.DLL * data.I[k].deriv_pow(r) * stirling_first(n, r)
        rep.zero(f"component form, I_{k}", resid, through=True)

    def chain(slot: Series, order: range) -> Series:
        t = slot
        for r in order:
            t = t.D() * data.C_inv[r]
        return t

    for k, slot in enumerate(data.I):
        rhs = data.I[k - n] if k >= n else Series.zero()
        for label, order in (("L1..Ln", range(n, 0, -1)), ("Ln..L1", range(1, n + 1))):
            rep.zero(f"factorized ({label}), slot {k}", chain(slot, order) - rhs)
    return rep


def verify_birkhoff(data: GenusZeroData) -> Report:
    """Periodicity, palindrome, and product identities of the C and K series."""
    cfg = data.cfg
    n = cfg.n
    rep = Report(f"Birkhoff identities (n={n}, N={cfg.N})")

    C_alt = C_via_inversion(data.I, n + 1)
    for i in range(n + 2):
        rep.zero(f"two constructions of C_{i} agree", data.C[i] - C_alt[i])
    rep.zero("periodicity C_{n+1} = C_1", data.C[n + 1] - data.C[1])

    prod = Series.one()
    for k in range(1, n + 1):
        prod = prod * data.C[k]
    rep.zero("product C_1 ... C_n = L^n", prod - data.L_pow(n))
    for k in range(1, n + 1):
        rep.zero(f"palindrome C_{k} = C_{n+1-k}", data.C[k] - data.C[n + 1 - k])
    for l in range(n + 1):
        rep.zero(f"K_{l} K_{n-l} = L^n", data.K[l] * data.K[n - l] - data.L_pow(n))
    rep.zero("K_n = L^n", data.K[n] - data.L_pow(n))
    return rep


def verify_ring_series(data: GenusZeroData) -> Report:
    """
    Series-level identities behind the finite-generation ring: the A-symmetries,
    the ladder expansion of D^k I_m, and the graded ladder relation.
    """
    cfg = data.cfg
    n = cfg.n
    rep = Report(f"ring generator identities (n={n}, N={cfg.N})")

    for i in range(n + 1):
        rep.zero(f"A_{i} + A_{n-i} = 0", data.A[i] + data.A[n - i])
    rep.zero("sum of all A_i = 0", reduce(add, data.A))
    if n % 2 == 0:
        rep.zero("A_{n/2} = 0", data.A[n // 2])
    rep.zero("A_0 = 0", data.A[0])
    rep.zero("A_n = 0", data.A[n])
    rep.zero("sum X_r = n DL/L", reduce(add, data.X) - data.DLL * n)

    # every ladder sum B_{k,p} and every Z_{m,p} the two checks read, built once
    B = {(k, p): data.B_series(k, p) for k in range(1, n + 1) for p in range(1, k + 1)}
    Z = {(m, p): data.Z_series(m, p) for m in range(1, n + 1) for p in range(1, n + 1)}
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            lhs = data.I[m].deriv_pow(k)
            rhs = Series.zero()
            for p in range(1, k + 1):
                rhs = rhs + B[(k, p)] * Z[(m, p)]
            rep.zero(f"ladder expansion D^{k} I_{m}", lhs - rhs)

    for m in range(1, n):
        resid = B[(n, m)]
        for k in range(m, n):
            resid = resid + data.DLL * B[(k, m)] * stirling_first(n, k)
        rep.zero(f"graded ladder relation, column {m}", resid)

    # the derivative relation that closes the generator set
    limit = (n - 1) // 2
    resid = data.at_L(f_n_poly(n)) * Fraction(n)
    for r in range(1, limit + 1):
        resid = resid + data.A[r].D() * Fraction(n - 2 * r)
    resid = resid * data.L_inv
    for r in range(1, limit + 1):
        resid = resid - data.A[r] * data.A[r]
    rep.zero("closure relation for the top A derivative", resid)
    return rep


def verify_quantum(data: GenusZeroData) -> Report:
    r"""
    Idempotents, pairing normalization, transition matrix, canonical coordinates.

    The frame e_a = sum_i zeta^{-ai} (1/n) U_i phi_i, U_i = K_i / L^i, carries
    its roots of unity as DFT weights on rational series, so every check reads
    a rational difference that is a root-of-unity unit times the frame's own:

    * (e_a e_b - delta_ab e_b)_k = zeta^{-bk} / n^2 sum_i zeta^{(b-a)i} D_{k,i},
      D_{k,i} = U_i U_{k-i} q(i, k-i) - U_k, q the structure constants;
    * (phi_1 e_a - (L/C_1) zeta^a e_a)_k = zeta^{a-ak} / n (U_{k-1} q(1, k-1) - U_k L/C_1);
    * (Psi Psi^{-1} - Id)_{ab} = (1/n) sum_i zeta^{(a-b)i} ((L^i/K_i)(K_i/L^i) - 1);
    * in g(e_a, e_a) and du^a/dx the weights cancel term by term.

    A unit moves no zero order, so each verdict and failure detail is the
    frame's.  The zeta-sums are entries {exponent: coefficient}
    (:func:`entry_at_column`), whose least exponent is the zero order; zero
    pieces give the empty entry, so a passing battery builds no cyclotomic
    number.
    """
    cfg = data.cfg
    n = cfg.n
    rep = Report(f"quantum structure (n={n}, N={cfg.N})")

    c1_inv = data.C_inv[1]
    for i in range(n):
        rep.zero(f"phi_1 * phi_{i} multiplier", data.quantum_coeff(1, i) - data.C[i + 1] * c1_inv)
    rep.zero("two-point value at i = 0", data.two_point(0) - data.Theta / n)
    for i in range(n):
        rep.zero(f"D of two-point function, i={i}", data.two_point(i).D() - data.C[i + 1] / n)

    def first_bad(diffs) -> str:
        """'(k, d)' for the first component k whose {exponent: coefficient} is nonzero from x^d on, else ''."""
        bad = next(((k, min(d)) for k, d in enumerate(diffs) if d), None)
        return str(bad) if bad else ""

    units = [data.K[i] * data.L_pow(-i) for i in range(n)]
    D = [
        [units[i] * units[(k - i) % n] * data.quantum_coeff(i, (k - i) % n) - units[k] for i in range(n)]
        for k in range(n)
    ]
    # the idempotency verdict of (a, b) depends on b - a mod n alone: each column is read once
    columns = [first_bad(entry_at_column(D[k], j, data.zeta) for k in range(n)) for j in range(n)]
    for a in range(n):
        for b in range(n):
            bad = columns[(b - a) % n]
            rep.add(f"idempotency e_{a} * e_{b}", not bad, bad)

    pair = reduce(add, (units[i] * units[-i % n] for i in range(n))) - Series.monomial(Fraction(n))
    for a in range(n):
        rep.zero(f"g(e_{a}, e_{a}) = 1/n^2", pair)

    pieces = [(data.L_pow(i) * data.K_inv[i]) * units[i] - Series.one() for i in range(n)]
    orders = [min(entry_at_column(pieces, j, data.zeta), default=None) for j in range(n)]
    bad = None
    for a in range(n):
        for b in range(n):
            if orders[(a - b) % n] is not None:
                bad = (a, b, orders[(a - b) % n])
    rep.add("Psi Psi^{-1} = Id", bad is None, str(bad) if bad else "")

    # canonical coordinate eigenvalue: phi_1 * e_alpha = (zeta^alpha L / C_1) e_alpha
    slope = data.L * c1_inv
    eig = first_bad((units[(k - 1) % n] * data.quantum_coeff(1, (k - 1) % n) - units[k] * slope).nums for k in range(n))
    du = slope * data.Theta.D() - data.L
    for a in range(n):
        rep.add(f"canonical coordinate eigenvalue, alpha={a}", not eig, eig)
        # du/dx form: eigenvalue times D(Theta)/x equals zeta^alpha L / x
        rep.zero(f"du^{a}/dx = zeta^{a} L / x", du)
    return rep


def verify_genus0(data: GenusZeroData, title: str) -> Report:
    """The four genus zero batteries above, in one report under ``title``."""
    rep = Report(title)
    for verify in (verify_picard_fuchs, verify_birkhoff, verify_ring_series, verify_quantum):
        rep.checks.extend(verify(data).checks)
    return rep

