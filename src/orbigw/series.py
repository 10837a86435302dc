r"""
Truncated Laurent series in one variable x with rational coefficients.

A :class:`Series` is a :class:`~orbigw.qvector.QVector` keyed by exponent,
with a truncation bound ``prec``: coefficients of x^e are known exactly for
every e < prec and unknown beyond, and the normal form keeps no exponent at
or beyond it.  ``prec = INF`` marks an exact Laurent polynomial.  Roots of
unity never enter; a zeta-weighted sum of series is assembled outside the
type, as a dict {exponent: coefficient}
(:func:`~orbigw.genus0.entry_at_column`).  The type adds the truncating sum
and product, and ``inverse`` by Newton iteration (Brent and Kung, "Fast
algorithms for manipulating formal power series", JACM 1978): w <- w (2 - u w)
doubles the number of known coefficients of 1/u through one pair of integer
products.

Negative exponents are allowed because the engine routinely divides by
series of positive valuation (all the Birkhoff factors vanish at x = 0).
Every arithmetic operation propagates the tightest truncation bound implied
by its inputs, so a zero test against ``prec`` is an honest statement about
every coefficient that could have been computed.

The differential calculus is the one used throughout:

* ``D`` is x d/dx, acting as multiplication by e on the coefficient of x^e;
* ``D_inverse`` divides the coefficient of x^e by e and requires a zero
  constant term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import lcm

from .qvector import RATIONAL, QVector

INF = math.inf


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known truncation order is requested."""


class Series(QVector):
    """
    A truncated Laurent series sum_e c_e x^e, exact below its truncation
    bound ``prec``: ``nums`` maps each exponent to an integer numerator over
    the one denominator ``den``.
    """

    __slots__ = ("prec",)

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None, prec: float = INF):
        # terms at or beyond prec are unknown and dropped, but a non-rational one is still rejected
        super().__init__({e: c for e, c in (coeffs or {}).items() if e < prec or not isinstance(c, RATIONAL)})
        self.prec = prec

    def _new(self, nums: dict[int, int], den: int, prec: float | None = None) -> "Series":
        """A series in normal form, bounded by prec (default: self's bound)."""
        s = object.__new__(Series)
        s.nums, s.den, s.prec = nums, den, self.prec if prec is None else prec
        return s

    def _const(self, q: int | Fraction) -> "Series":
        return self._new({0: q.numerator}, q.denominator, INF) if q else self._new({}, 1, INF)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(prec: float = INF) -> "Series":
        return Series(None, prec)

    @staticmethod
    def one() -> "Series":
        return Series({0: 1})

    @staticmethod
    def monomial(coeff: int | Fraction, exponent: int = 0) -> "Series":
        return Series({exponent: coeff})

    @staticmethod
    def x() -> "Series":
        return Series({1: 1})

    # -- structure ----------------------------------------------------------

    @property
    def val(self) -> float:
        """A lower bound for the valuation: the smallest known exponent, else prec."""
        return min(self.nums) if self.nums else self.prec

    def get(self, e: int) -> Fraction:
        if e >= self.prec:
            raise PrecisionError(f"coefficient of x^{e} unknown (prec={self.prec})")
        return Fraction(self.nums.get(e, 0), self.den)

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        if not self.nums:
            return None
        e = min(self.nums)
        return e, Fraction(self.nums[e], self.den)

    def truncate(self, prec: float) -> "Series":
        if prec >= self.prec:
            return self
        return self._reduced({e: c for e, c in self.nums.items() if e < prec}, self.den, prec)

    def __repr__(self) -> str:
        if not self.nums:
            body = "0"
        else:
            terms = [f"({Fraction(self.nums[e], self.den)})*x^{e}" for e in sorted(self.nums)[:8]]
            body = " + ".join(terms)
            if len(self.nums) > 8:
                body += " + ..."
        tail = "" if math.isinf(self.prec) else f" + O(x^{int(self.prec)})"
        return f"<{body}{tail}>"

    # -- ring operations ------------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign * other, known below the lesser bound."""
        if other.__class__ is not Series:
            if not isinstance(other, RATIONAL):
                return NotImplemented
            other = self._const(other)
        prec = min(self.prec, other.prec)
        p, q = self.den, other.den
        den = lcm(p, q)
        a, b = den // p, sign * (den // q)
        out = {e: c * a for e, c in self.nums.items() if e < prec}
        get = out.get
        for e, c in other.nums.items():
            if e < prec:
                out[e] = get(e, 0) + c * b
        return self._reduced(out, den, prec)

    def _times(self, other: "Series") -> "Series":
        prec = min(self.prec + other.val, other.prec + self.val)
        out: dict[int, int] = {}
        get = out.get
        right = sorted(other.nums.items())
        for e1, c1 in self.nums.items():
            room = prec - e1
            for e2, c2 in right:
                if e2 >= room:
                    break
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return self._reduced(out, self.den * other.den, prec)

    def shift(self, k: int) -> "Series":
        """Multiply by x^k."""
        return self._new({e + k: c for e, c in self.nums.items()}, self.den, self.prec + k)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the lowest-order coefficient must be known and nonzero."""
        lead = self.first_nonzero()
        if lead is None:
            raise ZeroDivisionError("cannot invert a series with no known nonzero coefficient")
        e0, c0 = lead
        rel = self.prec - e0  # number of known coefficients of the unit u = self / x^{e0}
        if math.isinf(rel) and len(self.nums) == 1:
            return Series({-e0: 1 / c0})
        if math.isinf(rel):
            raise PrecisionError("inverse of an exact non-monomial is an infinite series; truncate first")
        u = sorted((e - e0, c) for e, c in self.nums.items())
        # Newton: w is the exact polynomial of the first m coefficients of 1/u,
        # and w (2 - u w) holds the first 2m (Brent and Kung)
        w, m = self._const(1 / c0), 1
        while m < rel:
            m = min(2 * m, rel)
            head = self._reduced({e: c for e, c in u if e < m}, self.den, m)
            w = w * (2 - head * w)
            w = w._new(w.nums, w.den, INF)
        return w._new({e - e0: c for e, c in w.nums.items()}, w.den, rel - e0)

    # -- calculus -------------------------------------------------------------

    def D(self) -> "Series":
        """Apply x d/dx: multiply the coefficient of x^e by e."""
        return self._reduced({e: c * e for e, c in self.nums.items() if e}, self.den)

    def D_inverse(self) -> "Series":
        """Invert D on series with zero constant term and nonnegative valuation."""
        if 0 in self.nums:
            raise ValueError("D_inverse requires a zero constant term")
        if self.nums and min(self.nums) < 0:
            raise ValueError("D_inverse requires nonnegative valuation")
        scale = lcm(*self.nums)
        return self._reduced({e: c * (scale // e) for e, c in self.nums.items()}, self.den * scale)

    def deriv_pow(self, k: int) -> "Series":
        out = self
        for _ in range(k):
            out = out.D()
        return out

    # -- comparisons ------------------------------------------------------------

    def zero_order(self) -> int | None:
        """Exponent of the first known nonzero coefficient, or None when zero to precision."""
        return min(self.nums) if self.nums else None

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "prec": None if math.isinf(self.prec) else int(self.prec),
            "coeffs": {str(e): str(Fraction(self.nums[e], self.den)) for e in sorted(self.nums)},
        }
