r"""
Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are stored in the power basis 1, zeta, ..., zeta^{phi(n)-1} with
rational coordinates, reduced modulo the n-th cyclotomic polynomial.  All
operations are exact; there is no floating point anywhere in this module.

The coordinates are kept as integer numerators over one positive common
denominator, in lowest terms, so a product is integer arithmetic and one
gcd; since Phi_n is monic with integer coefficients, reducing a power of zeta
stays integral.  The ``coords`` view reads them as ``fractions.Fraction``,
the coefficient type the rest of the engine builds on.

Example::

    >>> z = Cyclotomic.zeta(5)
    >>> sum(z**k for k in range(5))
    Cyclotomic(5, [0])
    >>> (z**3 * z**2).is_one()
    True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Union

Coefficient = Union["Cyclotomic", Fraction, int]


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


class _Over(tuple):
    """(numerators, denominator): integer coordinates over one positive denominator, as the arithmetic passes them."""


class Cyclotomic:
    """An exact element of Q(zeta_n) in the power basis of zeta_n."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coords: Iterable[Coefficient]):
        d = euler_phi(order)
        if isinstance(coords, _Over):
            num, den = coords
        else:
            cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
            den = lcm(*(c.denominator for c in cs))
            num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > d:
            raise ValueError(f"at most {d} coordinates for order {order}")
        g = gcd(den, *num)
        if g != 1:
            num, den = [a // g for a in num], den // g
        self.order = order
        self._num = (*num, *(0,) * (d - len(num)))
        self._den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as rationals."""
        return tuple(Fraction(a, self._den) for a in self._num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return Cyclotomic(order, [])

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(1)])

    @staticmethod
    def from_rational(order: int, q: Fraction | int) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(q)])

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k, for any integer k (reduced mod n)."""
        return Cyclotomic(order, _Over((_power_table(order)[k % order], 1)))

    # -- basic structure ----------------------------------------------------

    def _coerce(self, other: Coefficient) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def __bool__(self) -> bool:
        return any(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, o: "Cyclotomic", sign: int) -> "Cyclotomic":
        p, q = self._den, o._den
        if p == q:
            return Cyclotomic(self.order, _Over(([a + sign * b for a, b in zip(self._num, o._num)], p)))
        return Cyclotomic(self.order, _Over(([a * q + sign * b * p for a, b in zip(self._num, o._num)], p * q)))

    def __add__(self, other: Coefficient):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, _Over(([-a for a in self._num], self._den)))

    def __sub__(self, other: Coefficient):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other: Coefficient):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: Coefficient):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyclotomic.zero(self.order)
            p, q = other.numerator, other.denominator
            return Cyclotomic(self.order, _Over(([a * p for a in self._num], self._den * q)))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = len(self._num)
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self._num):
            if not a:
                continue
            for j, b in enumerate(o._num):
                if b:
                    raw[i + j] += a * b
        table = _power_table(self.order)
        for e in range(d, 2 * d - 1):
            c = raw[e]
            if c:
                for j, t in enumerate(table[e]):
                    if t:
                        raw[j] += c * t
        return Cyclotomic(self.order, _Over((raw[:d], self._den * o._den)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return Cyclotomic.from_rational(self.order, 1 / self.to_rational())
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
        inv = [c / unit for c in s1]
        d = euler_phi(self.order)
        # s1 may exceed the basis length; reduce by the power table
        table = _power_table(self.order)
        out = [Fraction(0)] * d
        for e, c in enumerate(inv):
            if c:
                row = table[e]
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        result = Cyclotomic(self.order, out)
        if not (result * self).is_one():
            raise AssertionError(f"inverse check failed in Q(zeta_{self.order})")
        return result

    def __truediv__(self, other: Coefficient):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("cyclotomic number divided by zero")
            if p < 0:
                p, q = -p, -q
            return Cyclotomic(self.order, _Over(([a * q for a in self._num], self._den * p)))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Coefficient):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_rational() == other
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self._num == other._num and self._den == other._den
        return NotImplemented

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
