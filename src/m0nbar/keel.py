"""Betti numbers and Poincare polynomials of the compactified moduli spaces
of stable n-pointed genus-zero curves, via Keel's recurrence, and the point
counts over finite fields that the polynomials predict.

Writing s = t^2 (odd cohomology vanishes, so only even degrees carry data),
the Poincare polynomials P_n(s) = sum_k a_k(n) s^k satisfy

    P_3 = 1,
    P_{n+1} = (1 + s) P_n + (s/2) * sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1},

and |Mbar_{0,n}(F_q)| = P_n(q) for every prime power q.  Rows are built
once, bottom-up, into one module-level dict; poincare_poly returns the
stored tuple and betti reads it.

By Poincare duality every row is palindromic, a_k(n) = a_{n-3-k}(n), so
it is a polynomial in u = s + 1/s: with h = (n-3)//2,

    P_n = s^h R_n(u)            when n - 3 is even,
    P_n = (1 + s) s^h R_n(u)    when n - 3 is odd,

and R_n has h + 1 coefficients.  The recurrence is run on the R_n, whose
products are a quarter of the full convolution: (1 + s) P_n becomes R_n,
or (u + 2) R_n for odd n - 3 since (1 + s)^2 = s (u + 2), and each product
P_{j+1} P_{n-j+1} becomes R_{j+1} R_{n-j+1}, times (u + 2) when both rows
have odd degree.  Both forms are palindromic whatever R is, so the rows
stay palindromic by construction; each is turned back into powers of s by
Horner's rule in u on its lower half, which is then mirrored.
"""

from __future__ import annotations

from math import comb

from .algebra import IntPoly, poly_eval, require_int, require_prime_power
from .report import make_report

KEEL_MAX_N = 175  # rows up to n = 175 build cold in 2-3 s; the cost grows about as n^4


# Row n is the coefficient tuple (a_0(n), ..., a_{n-3}(n)) of P_n.  Rows are
# built bottom-up, so the keys are 3 up to the largest row built, and a row
# is never mutated once stored.
_ROWS = {3: (1,)}
# _U_ROWS[n] holds the coefficients of R_n in rising powers of u, built in
# the same loop and with the same keys as _ROWS.
_U_ROWS = {3: (1,)}


def _in_powers_of_s(r, odd: bool) -> IntPoly:
    """The row s^h R(u), or (1 + s) s^h R(u) if odd, as a tuple in s, where
    R has the coefficients r and h + 1 = len(r)."""
    # Horner's rule in u: w[d] is the coefficient of s^-d, which equals
    # that of s^d, followed by two zeros; multiplying by s + 1/s sends
    # w[d] to w[d-1] + w[d+1], and the centre to twice w[1]
    w = [r[-1], 0, 0]
    for c in r[-2::-1]:
        w = [2 * w[1] + c] + [a + b for a, b in zip(w, w[2:])] + [0, 0]
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
    require_int("n", n)
    row = _ROWS.get(n)
    if row is not None:
        return row
    if n < 3:
        raise ValueError("n must be >= 3")
    if n > KEEL_MAX_N:
        raise ValueError("n = %d exceeds the Keel row bound (%d)" % (n, KEEL_MAX_N))
    rows, us = _ROWS, _U_ROWS
    for m in range(len(rows) + 2, n):
        # R_{m+1} has m//2 coefficients.  For odd m, (1 + s) P_m adds R_m
        # and no term of the double sum has two factors of odd degree.  For
        # even m, (1 + s)^2 = s (u + 2), so R_m and the products of two odd
        # rows (j and m-j odd) are summed apart and multiplied by (u + 2)
        # once.
        if m % 2:
            acc, paired = list(us[m]), None
        else:
            acc, paired = [0] * (m // 2), list(us[m])
        # Terms j and m-j of the double sum are equal, so the half-sum is
        # the terms j < m/2 plus, for even m, half the middle term, whose
        # weight C(m, m/2) / 2 is C(m-1, m/2-1).  The factor s is absorbed
        # by s^h, so each term is the full product R_{j+1} R_{m-j+1}.
        for j in range(2, m // 2 + 1):
            weight = comb(m - 1, j - 1) if 2 * j == m else comb(m, j)
            target = paired if j % 2 and (m - j) % 2 else acc
            longer = us[m - j + 1]
            for i, c in enumerate(us[j + 1]):
                c *= weight
                for k, d in enumerate(longer, i):
                    target[k] += c * d
        if paired is not None:
            for k, d in enumerate(paired):
                acc[k] += 2 * d
                acc[k + 1] += d
        us[m + 1] = tuple(acc)
        rows[m + 1] = _in_powers_of_s(acc, m % 2 == 1)
    return rows[n]


def point_count(n: int, q: int) -> int:
    """|Mbar_{0,n}(F_q)| = P_n(q); q must be a prime power."""
    require_prime_power(q)
    return poly_eval(poincare_poly(n), q)


def glued_pair_count(n: int, q: int) -> int:
    """(1/2) sum_{j=2}^{n-2} C(n,j) |Mbar_{0,j+1}(F_q)| |Mbar_{0,n-j+1}(F_q)|.

    Terms j and n-j are equal, so this is the terms j < n/2 plus, for even
    n, the middle term at its half weight C(n, n/2) / 2 = C(n-1, n/2-1).
    """
    require_int("n", n)
    return sum(
        (comb(n - 1, j - 1) if 2 * j == n else comb(n, j))
        * point_count(j + 1, q) * point_count(n - j + 1, q)
        for j in range(2, n // 2 + 1)
    )


def verify_count_recurrence(n_max: int, q: int) -> list:
    """Check the point-count recurrence at q for every 4 <= n+1 <= n_max.

    Both sides go through point_count, i.e. the check is
        |Mbar_{0,n+1}| = (1+q) |Mbar_{0,n}| + q * glued_pair_count(n, q).
    Returns one VerificationReport per n+1.
    """
    require_int("n_max", n_max)
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    require_prime_power(q)
    reports = []
    for m in range(4, n_max + 1):
        n = m - 1
        lhs = point_count(m, q)
        rhs = (1 + q) * point_count(n, q) + q * glued_pair_count(n, q)
        reports.append(make_report("count-recurrence", {"n": m, "q": q}, lhs, rhs))
    return reports
