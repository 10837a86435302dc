r"""
Exact arithmetic in the cyclotomic field Q(zeta_n).

An element is a :class:`~orbigw.qvector.QVector` keyed by power-basis index
(1, zeta, ..., zeta^{phi(n)-1}), beside its ``order`` n.  It adds the product
reduced modulo the n-th cyclotomic polynomial (monic with integer
coefficients, so reducing a power of zeta stays integral), ``inverse``, and
``coords``/``to_json``, which read all phi(n) coordinates as rationals.

Example::

    >>> z = Cyclotomic.zeta(5)
    >>> sum(z**k for k in range(5))
    Cyclotomic(5, ['0'])
    >>> (z**3 * z**2).is_one()
    True
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .qvector import QVector


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomials given as coefficient lists (low degree first)."""
    num = list(num)
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    rem = num[: len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError(f"Phi_{d} does not divide x^{n} - 1")
    while len(num) > 1 and not num[-1]:
        num.pop()
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Power basis coordinates of zeta^e mod Phi_n, for e = 0 .. max(n, 2*phi(n)) - 1 (integers)."""
    phi = [int(c) for c in cyclotomic_polynomial(n)]
    d = len(phi) - 1
    top = max(n, 2 * d)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(top):
        rows.append(tuple(cur))
        # multiply by zeta and reduce by Phi_n
        nxt = [0] + cur
        if nxt[d]:
            lead = nxt.pop()
            for j in range(d):
                nxt[j] -= lead * phi[j]
        else:
            nxt.pop()
        cur = nxt
    return tuple(rows)


def _fold(raw: dict, order: int) -> dict:
    """Coefficients {power of zeta: c} reduced by Phi_n to {power-basis index: c}, zeros kept."""
    d = euler_phi(order)
    table = _power_table(order)
    out = {e: c for e, c in raw.items() if e < d}
    for e, c in raw.items():
        if e >= d:
            for j, t in enumerate(table[e]):
                if t:
                    out[j] = out.get(j, 0) + c * t
    return out


class Cyclotomic(QVector):
    """An exact element of Q(zeta_n), n = ``order``: ``nums`` keyed by power-basis index."""

    __slots__ = ("order",)

    def __init__(self, order: int, coords: Iterable[int | Fraction]):
        coords = dict(enumerate(coords))
        d = euler_phi(order)
        if len(coords) > d:
            raise ValueError(f"at most {d} coordinates for order {order}")
        super().__init__(coords)
        self.order = order

    def _new(self, nums: dict[int, int], den: int, context=None) -> "Cyclotomic":
        z = object.__new__(Cyclotomic)
        z.nums, z.den, z.order = nums, den, self.order
        return z

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """All phi(n) power-basis coordinates as rationals."""
        return tuple(Fraction(self.nums.get(i, 0), self.den) for i in range(euler_phi(self.order)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return Cyclotomic(order, [])

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return Cyclotomic(order, [1])

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k, for any integer k (reduced mod n)."""
        return Cyclotomic(order, _power_table(order)[k % order])

    # -- basic structure ----------------------------------------------------

    def is_one(self) -> bool:
        return self.den == 1 and self.nums == {0: 1}

    def is_rational(self) -> bool:
        return self.nums.keys() <= {0}

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums.get(0, 0), self.den)

    # -- arithmetic ----------------------------------------------------------

    def _times(self, other: "Cyclotomic") -> "Cyclotomic":
        if other.order != self.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
        raw: dict[int, int] = {}
        for i, a in self.nums.items():
            for j, b in other.nums.items():
                raw[i + j] = raw.get(i + j, 0) + a * b
        return self._reduced(_fold(raw, self.order), self.den * other.den)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return self._const(1 / self.to_rational())
        phi = list(cyclotomic_polynomial(self.order))
        a = list(self.coords)
        while a and not a[-1]:
            a.pop()
        # extended gcd of a(x) and Phi_n(x); they are coprime since Phi_n is irreducible
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0]:
            q, r = _poly_divmod(r0, r1)
            if not r:
                r = [Fraction(0)]
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s[i + j] -= qi * sj
            r0, r1, s0, s1 = r1, r, s1, s
            if len(r1) == 1 and r1[0]:
                break
        unit = r1[0]
        # s1 may exceed the basis length; reduce by Phi_n
        inv = _fold({e: c / unit for e, c in enumerate(s1)}, self.order)
        result = Cyclotomic(self.order, [inv.get(i, 0) for i in range(euler_phi(self.order))])
        if not (result * self).is_one():
            raise AssertionError(f"inverse check failed in Q(zeta_{self.order})")
        return result

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.to_rational())
        return hash((self.order, self.coords))

    def __repr__(self) -> str:
        coords = list(self.coords)
        while len(coords) > 1 and not coords[-1]:
            coords.pop()
        return f"Cyclotomic({self.order}, {[str(c) for c in coords]})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


Coefficient = Cyclotomic | Fraction | int
