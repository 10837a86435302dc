r"""
Finitely supported vectors over Q in one normal form, shared by the exact types.

A :class:`QVector` keeps integer numerators per key (``nums``) over one
positive common denominator (``den``), the form FLINT's ``fmpq_poly`` keeps
(Hart, "FLINT: Fast Library for Number Theory", ICMS 2010).  Normal form:
``den > 0``, gcd(den, *nums) == 1, no zero numerator, and zero has
``den == 1``.  So equality is structural, and every operation is integer
arithmetic with one gcd per result, in :meth:`QVector._reduced`, the one
place that normalises.

The keys are the subclass's: exponents of x for a truncated series
(:class:`~orbigw.series.Series`), monomials for a ring element
(:class:`~orbigw.ring.RingElement`), power-basis indices for an element of
Q(zeta_n) (:class:`~orbigw.cyclotomic.Cyclotomic`); ``ONE`` is the key of the
constant 1.  Coefficients are rational: the constructor and the operators
admit ``int`` and ``fractions.Fraction`` only.

This class owns the linear operations (``+``, ``-``, negation, scalar ``*``
and ``/``), ``**``, ``==`` and the zero test.  A subclass supplies the product
of two of its elements (``_times``) and, when it has one, ``inverse``; an
attribute it keeps beside the coefficients (its own ``__slots__``: a series'
truncation bound, a field element's order) is its context, copied by
``_new`` and compared by ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

RATIONAL = (int, Fraction)  # the coefficient types every QVector admits


class QVector:
    """Integer numerators per key (``nums``) over one positive denominator (``den``), in normal form."""

    __slots__ = ("nums", "den")

    ONE = 0  # the key of the constant 1

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for c in coeffs.values():
            if not isinstance(c, RATIONAL):
                raise TypeError(f"{type(self).__name__} coefficients are rational, not {type(c).__name__}")
        den = lcm(*(c.denominator for c in coeffs.values() if c))
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
        self.den = den

    # -- results --------------------------------------------------------------

    def _new(self, nums: dict, den: int, context=None):
        """
        An element from numerators and a denominator already in normal form,
        with self's context; a subclass whose results may take another context
        (a series' bound) reads it from ``context`` when that is not None.
        """
        out = object.__new__(self.__class__)
        out.nums = nums
        out.den = den
        return out

    def _reduced(self, nums: dict, den: int, context=None):
        """The element nums / den (den > 0) in normal form: zero numerators dropped, one gcd; ``context`` goes to ``_new``."""
        if 0 in nums.values():
            nums = {k: c for k, c in nums.items() if c}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        return self._new(nums, den, context)

    def _const(self, q: int | Fraction):
        """The rational q as an element beside self."""
        return self._new({self.ONE: q.numerator}, q.denominator) if q else self._new({}, 1)

    def _context(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            if not isinstance(other, RATIONAL):
                return NotImplemented
            other = self._const(other)
        return self.den == other.den and self.nums == other.nums and self._context() == other._context()

    # -- linear operations --------------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign * other for operands sharing their context."""
        if other.__class__ is not self.__class__:
            if not isinstance(other, RATIONAL):
                return NotImplemented
            other = self._const(other)
        elif self.__slots__ and self._context() != other._context():
            raise ValueError(f"mixed {type(self).__name__} contexts {self._context()} and {other._context()}")
        if not other.nums:
            return self
        p, q = self.den, other.den
        g = gcd(p, q)
        a, b = q // g, sign * (p // g)
        out = {k: c * a for k, c in self.nums.items()} if a != 1 else dict(self.nums)
        get = out.get
        for k, c in other.nums.items():
            out[k] = get(k, 0) + c * b
        return self._reduced(out, p * a)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, RATIONAL):
            return NotImplemented
        return self._const(other)._plus(self, -1)

    def __neg__(self):
        return self._new({k: -c for k, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            return self._times(other)
        if not isinstance(other, RATIONAL):
            return NotImplemented
        p = other.numerator
        return self._reduced({k: c * p for k, c in self.nums.items()}, self.den * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RATIONAL):
            if not other:
                raise ZeroDivisionError(f"{type(self).__name__} divided by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return self._reduced({k: c * q for k, c in self.nums.items()}, self.den * p)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, RATIONAL):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** -k
        if k == 0:
            return self._const(1)
        result = base = self
        k -= 1
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self):
        """The multiplicative inverse, for a subclass that has one."""
        raise ValueError(f"{type(self).__name__} elements have no general inverse")
