r"""
Truncated Laurent series in one variable x with rational coefficients.

A :class:`Series` stores finitely many nonzero coefficients together with a
truncation bound ``prec``: coefficients of x^e are known exactly for every
e < prec and unknown beyond.  ``prec = INF`` marks an exact Laurent
polynomial.  Coefficients are rational: the constructor and the operators
admit ``int`` and ``fractions.Fraction`` only.  Roots of unity never enter; a
zeta-weighted sum of series is assembled outside the type, as a dict
{exponent: coefficient} (:func:`~orbigw.genus0.entry_at_column`).

A series keeps integer numerators per exponent (``nums``) over one positive
common denominator (``den``), the form :class:`~orbigw.ring.RingElement`
keeps.  Normal form: ``den > 0``, gcd(den, *nums) == 1, no zero numerator, no
exponent at or beyond ``prec``, and zero has ``den == 1``.  So equality is
structural, and every operation is integer arithmetic with one gcd per
result.  ``invert`` is Newton iteration (Brent and Kung, "Fast algorithms for
manipulating formal power series", JACM 1978): w <- w (2 - u w) doubles the
number of known coefficients of 1/u through one pair of integer products.

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
from math import gcd, lcm

INF = math.inf

_RATIONAL = (int, Fraction)  # the coefficient types a series admits


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known truncation order is requested."""


def _reduced(nums: dict[int, int], den: int, prec: float) -> "Series":
    """The series nums / den (den > 0) + O(x^prec) in normal form: zero numerators dropped, one gcd."""
    if 0 in nums.values():
        nums = {e: c for e, c in nums.items() if c}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    return _normal(nums, den, prec)


def _normal(nums: dict[int, int], den: int, prec: float) -> "Series":
    """Wrap numerators, a denominator and a bound already in normal form."""
    s = object.__new__(Series)
    s.nums, s.den, s.prec = nums, den, prec
    return s


class Series:
    """
    A truncated Laurent series sum_e c_e x^e, exact below its truncation
    bound: ``nums`` maps each exponent to an integer numerator over the one
    denominator ``den``.
    """

    __slots__ = ("nums", "den", "prec")

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None, prec: float = INF):
        coeffs = coeffs or {}
        for c in coeffs.values():
            if not isinstance(c, _RATIONAL):
                raise TypeError(f"series coefficients are rational, not {type(c).__name__}")
        live = {e: c for e, c in coeffs.items() if c and e < prec}
        den = lcm(*(c.denominator for c in live.values()))
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in live.items()}
        self.den = den
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(prec: float = INF) -> "Series":
        return _normal({}, 1, prec)

    @staticmethod
    def one() -> "Series":
        return _normal({0: 1}, 1, INF)

    @staticmethod
    def monomial(coeff: int | Fraction, exponent: int = 0) -> "Series":
        return Series({exponent: coeff})

    @staticmethod
    def x() -> "Series":
        return _normal({1: 1}, 1, INF)

    # -- structure ----------------------------------------------------------

    @property
    def val(self) -> float:
        """A lower bound for the valuation: the smallest known exponent, else prec."""
        return min(self.nums) if self.nums else self.prec

    def get(self, e: int) -> Fraction:
        if e >= self.prec:
            raise PrecisionError(f"coefficient of x^{e} unknown (prec={self.prec})")
        return Fraction(self.nums.get(e, 0), self.den)

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return not self.nums

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        if not self.nums:
            return None
        e = min(self.nums)
        return e, Fraction(self.nums[e], self.den)

    def truncate(self, prec: float) -> "Series":
        if prec >= self.prec:
            return self
        return _reduced({e: c for e, c in self.nums.items() if e < prec}, self.den, prec)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Series):
            return self.den == other.den and self.prec == other.prec and self.nums == other.nums
        return NotImplemented

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
        if not isinstance(other, Series):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = Series({0: other})
        prec = min(self.prec, other.prec)
        p, q = self.den, other.den
        g = gcd(p, q)
        a, b = q // g, sign * (p // g)
        out = {e: c * a for e, c in self.nums.items() if e < prec}
        get = out.get
        for e, c in other.nums.items():
            if e < prec:
                out[e] = get(e, 0) + c * b
        return _reduced(out, p * a, prec)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return _normal({e: -c for e, c in self.nums.items()}, self.den, self.prec)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return Series({0: other})._plus(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Series):
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            p = other.numerator
            return _reduced({e: c * p for e, c in self.nums.items()}, self.den * other.denominator, self.prec)
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
        return _reduced(out, self.den * other.den, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Series":
        """Multiply by x^k."""
        return _normal({e + k: c for e, c in self.nums.items()}, self.den, self.prec + k)

    def invert(self) -> "Series":
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
        w, m = Series({0: 1 / c0}), 1
        while m < rel:
            m = min(2 * m, rel)
            head = _reduced({e: c for e, c in u if e < m}, self.den, m)
            w = w * (2 - head * w)
            w = _normal(w.nums, w.den, INF)
        return _normal({e - e0: c for e, c in w.nums.items()}, w.den, rel - e0)

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                raise ZeroDivisionError("series division by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _reduced({e: c * q for e, c in self.nums.items()}, self.den * p, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.invert()

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
        return _reduced({e: c * e for e, c in self.nums.items() if e}, self.den, self.prec)

    def D_inverse(self) -> "Series":
        """Invert D on series with zero constant term and nonnegative valuation."""
        if 0 in self.nums:
            raise ValueError("D_inverse requires a zero constant term")
        if self.nums and min(self.nums) < 0:
            raise ValueError("D_inverse requires nonnegative valuation")
        scale = lcm(*self.nums)
        return _reduced({e: c * (scale // e) for e, c in self.nums.items()}, self.den * scale, self.prec)

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


def binomial_pow(u: Series, p: int, q: int, prec: float | None = None) -> Series:
    """
    (1 + u)^(p/q) for a series u of positive valuation.

    The result r satisfies r**q = (1+u)**p to the working truncation bound.
    """
    if u.nums and min(u.nums) < 1:
        raise ValueError("binomial_pow requires u(0) = 0")
    if prec is None:
        prec = u.prec
    alpha = Fraction(p, q)
    if math.isinf(prec) and u.nums and not (alpha.denominator == 1 and alpha >= 0):
        raise PrecisionError("fractional or negative power of an exact series needs an explicit prec")
    out = Series.one().truncate(prec)
    if not u.nums:
        return out
    term = Series.one()
    coeff = Fraction(1)
    v = min(u.nums)
    j = 0
    while math.isinf(prec) or j * v < prec:
        j += 1
        coeff = coeff * (alpha - (j - 1)) / j
        if not coeff:
            break
        term = (term * u).truncate(prec)
        if not term.nums:
            break
        out = out + term * coeff
    return out.truncate(prec)
