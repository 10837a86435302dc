r"""
Stirling numbers of the first kind.

s(m, k) is the coefficient of x^k in the falling factorial x(x-1)...(x-m+1).
It converts x^m (d/dx)^m into powers of D = x d/dx, which is how the
Picard-Fuchs operator is assembled:

    x^m d^m/dx^m = sum_k s(m, k) D^k.

The numbers are computed by their recursion; the test suite cross-checks
them against the falling-factorial expansion, closed forms and the inversion
identity with the second kind (``tests/test_stirling.py``).
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def stirling_first(m: int, k: int) -> int:
    """Signed Stirling number of the first kind; 0 outside 0 <= k <= m."""
    if m < 0 or k < 0:
        return 0
    if m == 0:
        return 1 if k == 0 else 0
    if k > m:
        return 0
    # falling factorial recursion: (x)_m = (x - m + 1) (x)_{m-1}
    return stirling_first(m - 1, k - 1) - (m - 1) * stirling_first(m - 1, k)
