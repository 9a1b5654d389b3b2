"""Betti numbers and Poincare polynomials of the compactified moduli spaces
of stable n-pointed genus-zero curves, via Keel's recurrence, and the point
counts over finite fields that the polynomials predict.

Writing s = t^2 (odd cohomology vanishes, so only even degrees carry data),
the Poincare polynomials P_n(s) = sum_k a_k(n) s^k satisfy

    P_3 = 1,
    P_{n+1} = (1 + s) P_n + (s/2) * sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1},

and |Mbar_{0,n}(F_q)| = P_n(q) for every prime power q.

By Poincare duality every row is palindromic, a_k(n) = a_{n-3-k}(n), so
it is a polynomial in u = s + 1/s: with h = (n-3)//2,

    P_n = s^h R_n(u)            when n - 3 is even,
    P_n = (1 + s) s^h R_n(u)    when n - 3 is odd,

and R_n has h + 1 coefficients.  The recurrence holds at every value of
s, hence of u: (1 + s) P_n becomes R_n, or (u + 2) R_n for odd n - 3
since (1 + s)^2 = s (u + 2), and each product P_{j+1} P_{n-j+1} becomes
R_{j+1} R_{n-j+1}, times (u + 2) when both rows have odd degree.  So the
rows are kept as values: each point u = x = 0, 1, ... keeps the values
R_3(x), R_4(x), ... in one list, each new value is the recurrence run on
those integers, and a list only grows, one whole value at a time.  Row n is
made when it is first asked for: each of the points x = 0..h is run up to
row n (a new point from row 3), and the h + 1 coefficients of R_n are read
back from its values there by exact interpolation.  R_n is turned back
into powers of s by Horner's rule in u on its lower half, which is then
mirrored, so the rows are palindromic by construction; the row is cached,
and betti reads it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from operator import add, mul, sub

from .algebra import (
    InexactDivisionError, IntPoly, poly_eval, require_int, require_prime_power, require_size,
)
from .report import make_report

KEEL_MAX_N = 175  # a cold row 175 takes 0.22-0.29 s; the cost grows about as n^3.5

# _VALUES[x][k] = R_k(x), one list per point x = 0, 1, ...; entries 0..2 are
# unused.  A list only grows by one whole value, so each is always a prefix
# of the values of rows 3, 4, ... at its point.
_VALUES = [[0, 0, 0, 1]]


@lru_cache(maxsize=None)
def _weights(m: int) -> tuple:
    """The weights of the half-sum that builds row m + 1, for even j and for
    odd j.  Terms j and m-j of the double sum are equal, so the half-sum is
    the terms 2 <= j < m/2 at C(m, j) plus, for even m, the middle term at
    half its weight, C(m, m/2) / 2 = C(m-1, m/2-1)."""
    w = [comb(m - 1, j - 1) if 2 * j == m else comb(m, j) for j in range(2, m // 2 + 1)]
    return w[::2], w[1::2]


def _next_value(v: list, m: int, x: int) -> int:
    """R_{m+1}(x) from the values v[k] = R_k(x) of the rows 3 <= k <= m.

    The factor s of the double sum is absorbed by s^h, so each term is the
    full product R_{j+1}(x) R_{m-j+1}(x).  For odd m, (1 + s) P_m adds R_m
    and no term has two factors of odd degree; for even m, R_m and the
    products of two odd rows (j and m-j odd) are multiplied by (x + 2)."""
    even_w, odd_w = _weights(m)
    top, stop = m // 2 + 2, m - m // 2
    even = sum(map(mul, even_w, map(mul, v[3:top:2], v[m - 1:stop:-2])))
    odd = sum(map(mul, odd_w, map(mul, v[4:top:2], v[m - 2:stop:-2])))
    if m % 2:
        return v[m] + even + odd
    return even + (x + 2) * (v[m] + odd)


def _interpolate(values) -> list:
    """The integer coefficients, in rising powers of u, of the polynomial of
    degree below len(values) that takes the values at u = 0, 1, ...; raises
    InexactDivisionError if a coefficient is not an integer."""
    # Newton's form at 0, 1, ...: the k-th forward difference at 0 is k!
    # times the coefficient of the falling factorial u (u-1) ... (u-k+1)
    newton, diffs = [], list(values)
    for k in range(len(diffs)):
        c, left = divmod(diffs[0], factorial(k))
        if left:
            raise InexactDivisionError(
                "inexact interpolation: difference %d is %r" % (k, diffs[0]))
        newton.append(c)
        diffs = list(map(sub, diffs[1:], diffs))
    # Horner's rule in the falling factorials: c_k + (u - k) (c_{k+1} + ...)
    coeffs = [newton.pop()]
    for k in range(len(newton) - 1, -1, -1):
        coeffs = list(map(sub, [newton[k], *coeffs], [*map(mul, coeffs, repeat(k)), 0]))
    return coeffs


def _in_powers_of_s(r, odd: bool) -> IntPoly:
    """The row s^h R(u), or (1 + s) s^h R(u) if odd, as a tuple in s, where
    R has the coefficients r and h + 1 = len(r)."""
    # Horner's rule in u: w[d] is the coefficient of s^-d, which equals
    # that of s^d, followed by two zeros; multiplying by s + 1/s sends
    # w[d] to w[d-1] + w[d+1], and the centre to twice w[1]
    w = [r[-1], 0, 0]
    for c in r[-2::-1]:
        w = [2 * w[1] + c, *map(add, w, w[2:]), 0, 0]
    low = w[-3::-1]  # a_0 .. a_h of s^h R(u)
    if odd:
        low = low[:1] + [a + b for a, b in zip(low, low[1:])]
        return tuple(low + low[::-1])
    return tuple(low + low[-2::-1])


def betti(n: int, k: int) -> int:
    """a_k(n) = b_{2k}(Mbar_{0,n}); zero outside 0 <= k <= n-3."""
    require_int("k", k)
    row = poincare_poly(n)
    return row[k] if 0 <= k < len(row) else 0


def poincare_poly(n: int) -> IntPoly:
    """P_n as a polynomial in s = t^2; degree is exactly n-3."""
    require_int("n", n)  # before the lookup: 5.0 hashes like 5 and would read row 5
    return _row(n)


@lru_cache(maxsize=None)
def _row(n: int) -> IntPoly:
    require_size("n", n, 3, KEEL_MAX_N, "the Keel row bound")
    # R_n has (n - 1)//2 coefficients, so row n needs that many points
    _VALUES.extend([0, 0, 0, 1] for _ in range(len(_VALUES), (n - 1) // 2))
    points = _VALUES[:(n - 1) // 2]
    for x, v in enumerate(points):
        for m in range(len(v) - 1, n):
            v.append(_next_value(v, m, x))
    return _in_powers_of_s(_interpolate([v[n] for v in points]), n % 2 == 0)


def point_count(n: int, q: int) -> int:
    """|Mbar_{0,n}(F_q)| = P_n(q); q must be a prime power."""
    require_prime_power(q)
    return poly_eval(poincare_poly(n), q)


def glued_pair_count(n: int, q: int) -> int:
    """(1/2) sum_{j=2}^{n-2} C(n,j) |Mbar_{0,j+1}(F_q)| |Mbar_{0,n-j+1}(F_q)|.

    Terms j and n-j are equal, so this is the terms j < n/2 plus, for even
    n, the middle term at its half weight C(n, n/2) / 2 = C(n-1, n/2-1).
    n and q are checked once, here, so n = 3, which has no terms and gives
    0, refuses a bad q too, and each term reads the rows at q directly.
    """
    require_size("n", n, 3, KEEL_MAX_N + 1, "the Keel row bound plus one")
    require_prime_power(q)
    return sum(
        (comb(n - 1, j - 1) if 2 * j == n else comb(n, j))
        * poly_eval(poincare_poly(j + 1), q) * poly_eval(poincare_poly(n - j + 1), q)
        for j in range(2, n // 2 + 1)
    )


def verify_count_recurrence(n_max: int, q: int) -> list:
    """Check the point-count recurrence at q for every 4 <= n+1 <= n_max.

    Both sides go through point_count, i.e. the check is
        |Mbar_{0,n+1}| = (1+q) |Mbar_{0,n}| + q * glued_pair_count(n, q).
    Returns one VerificationReport per n+1.
    """
    require_size("n_max", n_max, 4, KEEL_MAX_N, "the Keel row bound")
    require_prime_power(q)
    reports = []
    for m in range(4, n_max + 1):
        n = m - 1
        lhs = point_count(m, q)
        rhs = (1 + q) * point_count(n, q) + q * glued_pair_count(n, q)
        reports.append(make_report("count-recurrence", {"n": m, "q": q}, lhs, rhs))
    return reports
