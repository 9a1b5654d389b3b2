"""Betti numbers and Poincare polynomials of the compactified moduli spaces
of stable n-pointed genus-zero curves, via Keel's recurrence, and the point
counts over finite fields that the polynomials predict.

Writing s = t^2 (odd cohomology vanishes, so only even degrees carry data),
the Poincare polynomials P_n(s) = sum_k a_k(n) s^k satisfy

    P_3 = 1,
    P_{n+1} = (1 + s) P_n + (s/2) * sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1},

and |Mbar_{0,n}(F_q)| = P_n(q) for every prime power q.  Rows are built
once, bottom-up, into one module-level dict; poincare_poly returns the
stored tuple and betti reads it.  By Poincare duality every row is
palindromic, a_k(n) = a_{n-3-k}(n), and the recurrence keeps that by
induction, so only the coefficients up to the middle of each row are
summed and the upper half is the lower half reversed.
"""

from __future__ import annotations

from math import comb

from .algebra import IntPoly, poly_eval, require_prime_power
from .report import make_report

KEEL_MAX_N = 175  # rows up to n = 175 build cold in 3-5 s; the cost grows about as n^4


# Row n is the coefficient tuple (a_0(n), ..., a_{n-3}(n)) of P_n.  Rows are
# built bottom-up, so the keys are 3 up to the largest row built, and a row
# is never mutated once stored.
_ROWS = {3: (1,)}


def betti(n: int, k: int) -> int:
    """a_k(n) = b_{2k}(Mbar_{0,n}); zero outside 0 <= k <= n-3."""
    row = poincare_poly(n)
    return row[k] if 0 <= k < len(row) else 0


def poincare_poly(n: int) -> IntPoly:
    """P_n as a polynomial in s = t^2; degree is exactly n-3."""
    row = _ROWS.get(n)
    if row is not None:
        return row
    if n < 3:
        raise ValueError("n must be >= 3")
    if n > KEEL_MAX_N:
        raise ValueError("n = %d exceeds the Keel row bound (%d)" % (n, KEEL_MAX_N))
    rows = _ROWS
    for m in range(len(rows) + 2, n):
        # Row m+1 has degree m-2 and is palindromic, so only a_0 .. a_top
        # are summed; (1 + s) P_m, cut to that range, goes in first.
        top = (m - 2) // 2
        prev = rows[m]
        acc = [prev[0]] + [prev[k] + prev[k - 1] for k in range(1, top + 1)]
        # Terms j and m-j of the double sum are equal, so the half-sum is
        # the terms j < m/2 plus, for even m, half the middle term, whose
        # weight C(m, m/2) / 2 is C(m-1, m/2-1).  The factor s shifts
        # every product one place up, and a product landing above top is
        # never formed.  The shorter row, shifted, ends at j-1 <= top.
        for j in range(2, m // 2 + 1):
            weight = comb(m - 1, j - 1) if 2 * j == m else comb(m, j)
            longer = rows[m - j + 1]
            for i, c in enumerate(rows[j + 1], 1):
                c *= weight
                for k, d in enumerate(longer[:top - i + 1], i):
                    acc[k] += c * d
        # a_k = a_{m-2-k}: the upper half is the lower half reversed,
        # without repeating the middle coefficient when m-2 is even
        rows[m + 1] = tuple(acc + acc[m - 3 - top::-1])
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
