r"""
Truncated Laurent series in one variable x with exact coefficients.

A :class:`Series` stores finitely many nonzero coefficients together with a
truncation bound ``prec``: coefficients of x^e are known exactly for every
e < prec and unknown beyond.  ``prec = INF`` marks an exact Laurent
polynomial.  Coefficients may be ``fractions.Fraction`` or
:class:`~orbigw.cyclotomic.Cyclotomic`; the two mix freely.

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

from .cyclotomic import Coefficient, Cyclotomic

INF = math.inf

_ZERO = Fraction(0)


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known truncation order is requested."""


class Series:
    """A truncated Laurent series sum_e c_e x^e, exact below its truncation bound."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs: dict[int, Coefficient] | None = None, prec: float = INF):
        cs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c and e < prec:
                    cs[e] = c
        self.coeffs = cs
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(prec: float = INF) -> "Series":
        return Series({}, prec)

    @staticmethod
    def one() -> "Series":
        return Series({0: Fraction(1)})

    @staticmethod
    def monomial(coeff: Coefficient, exponent: int = 0) -> "Series":
        return Series({exponent: coeff})

    @staticmethod
    def x() -> "Series":
        return Series({1: Fraction(1)})

    # -- structure ----------------------------------------------------------

    @property
    def val(self) -> float:
        """A lower bound for the valuation: the smallest known exponent, else prec."""
        if self.coeffs:
            return min(self.coeffs)
        return self.prec

    def get(self, e: int) -> Coefficient:
        if e >= self.prec:
            raise PrecisionError(f"coefficient of x^{e} unknown (prec={self.prec})")
        return self.coeffs.get(e, _ZERO)

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return not self.coeffs

    def first_nonzero(self) -> tuple[int, Coefficient] | None:
        if not self.coeffs:
            return None
        e = min(self.coeffs)
        return e, self.coeffs[e]

    def truncate(self, prec: float) -> "Series":
        if prec >= self.prec:
            return self
        return Series(self.coeffs, prec)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Series):
            return self.coeffs == other.coeffs and self.prec == other.prec
        return NotImplemented

    def __repr__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            for e in sorted(self.coeffs)[:8]:
                terms.append(f"({self.coeffs[e]})*x^{e}")
            body = " + ".join(terms)
            if len(self.coeffs) > 8:
                body += " + ..."
        tail = "" if math.isinf(self.prec) else f" + O(x^{int(self.prec)})"
        return f"<{body}{tail}>"

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return Series({0: other}) if other else Series({})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Series(out, prec)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not other:
                return Series({}, self.prec)
            return Series({e: c * other for e, c in self.coeffs.items()}, self.prec)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec + o.val, o.prec + self.val)
        out: dict[int, Coefficient] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = e1 + e2
                if e < prec:
                    p = c1 * c2
                    s = out.get(e, _ZERO) + p
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
        return Series(out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Series":
        """Multiply by x^k."""
        return Series({e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def invert(self) -> "Series":
        """Multiplicative inverse; the lowest-order coefficient must be known and nonzero."""
        lead = self.first_nonzero()
        if lead is None:
            raise ZeroDivisionError("cannot invert a series with no known nonzero coefficient")
        e0, c0 = lead
        # u = self / x^{e0} is a unit; invert it by the standard recurrence.
        rel = self.prec - e0  # number of known coefficients of u
        u = {e - e0: c for e, c in self.coeffs.items()}
        inv0 = 1 / c0 if isinstance(c0, Fraction) else c0.inverse()
        if math.isinf(rel) and len(u) == 1:
            return Series({-e0: inv0})
        if math.isinf(rel):
            raise PrecisionError("inverse of an exact non-monomial is an infinite series; truncate first")
        w: dict[int, Coefficient] = {0: inv0}
        for m in range(1, int(rel)):
            acc = None
            for k, uk in u.items():
                if 1 <= k <= m:
                    wk = w.get(m - k)
                    if wk is not None:
                        t = uk * wk
                        acc = t if acc is None else acc + t
            if acc is not None and acc:
                w[m] = -(acc * inv0)
        return Series({e - e0: c for e, c in w.items() if c}, rel - e0)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series({e: c / other for e, c in self.coeffs.items()}, self.prec)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return Series.one()
        result = self
        base = self
        k -= 1
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus -------------------------------------------------------------

    def D(self) -> "Series":
        """Apply x d/dx: multiply the coefficient of x^e by e."""
        return Series({e: c * e for e, c in self.coeffs.items() if e}, self.prec)

    def D_inverse(self) -> "Series":
        """Invert D on series with zero constant term and nonnegative valuation."""
        if 0 in self.coeffs:
            raise ValueError("D_inverse requires a zero constant term")
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("D_inverse requires nonnegative valuation")
        return Series({e: c / e for e, c in self.coeffs.items()}, self.prec)

    def deriv_pow(self, k: int) -> "Series":
        out = self
        for _ in range(k):
            out = out.D()
        return out

    # -- comparisons ------------------------------------------------------------

    def zero_order(self) -> int | None:
        """Exponent of the first known nonzero coefficient, or None when zero to precision."""
        return min(self.coeffs) if self.coeffs else None

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        def enc(c: Coefficient):
            if isinstance(c, Cyclotomic):
                return c.to_json()
            return str(c)

        return {
            "prec": None if math.isinf(self.prec) else int(self.prec),
            "coeffs": {str(e): enc(c) for e, c in sorted(self.coeffs.items())},
        }


def binomial_pow(u: Series, p: int, q: int, prec: float | None = None) -> Series:
    """
    (1 + u)^(p/q) for a series u of positive valuation.

    The result r satisfies r**q = (1+u)**p to the working truncation bound.
    """
    if u.coeffs and min(u.coeffs) < 1:
        raise ValueError("binomial_pow requires u(0) = 0")
    if prec is None:
        prec = u.prec
    alpha = Fraction(p, q)
    if math.isinf(prec) and u.coeffs and not (alpha.denominator == 1 and alpha >= 0):
        raise PrecisionError("fractional or negative power of an exact series needs an explicit prec")
    out = Series.one().truncate(prec)
    if not u.coeffs:
        return out
    term = Series.one()
    coeff = Fraction(1)
    v = min(u.coeffs)
    j = 0
    while math.isinf(prec) or j * v < prec:
        j += 1
        coeff = coeff * (alpha - (j - 1)) / j
        if not coeff:
            break
        term = (term * u).truncate(prec)
        if not term.coeffs:
            break
        out = out + term * coeff
    return out.truncate(prec)
