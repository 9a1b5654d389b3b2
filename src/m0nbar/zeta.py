"""Hasse-Weil zeta functions of P^n and Mbar_{0,n} as factored rational
functions, and the generating-function identity tying them to point counts.

For a smooth projective variety whose point count is a polynomial in q with
the Betti numbers as coefficients, the zeta function over F_p is the product
of factors (1 - p^j T)^(-e_j) with e_j = b_{2j}, and

    sum_{r>=1} |V(F_{p^r})| T^r = T d/dT log Z(T)
                                = sum_{r>=1} (sum_j e_j p^{jr}) T^r.

Zeta functions stay factored; expanding them buys nothing here, and the
point-count series is a tuple of exact ints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import require_int, require_order, require_prime, require_size
from .keel import KEEL_MAX_N, betti, point_count
from .report import make_report

# largest order of the point-count series, measured to answer in about 1.5 s:
# the counts of n = 175 at p = 1009 beyond the cost of the Keel row they read
ZETA_ORDER_GUARD = 45


@dataclass(frozen=True)
class FactoredZeta:
    """Z(T) = prod over (j, e) in factors of (1 - p^j T)^(-e)."""
    p: int
    factors: tuple

    def __post_init__(self):
        require_prime(self.p)
        factors = tuple((j, e) for j, e in self.factors)
        for j, e in factors:
            require_int("j", j)
            require_int("e", e)
        if sorted(j for j, _ in factors) != [j for j, _ in factors]:
            raise ValueError("factors must be sorted by j")
        if len({j for j, _ in factors}) != len(factors):
            raise ValueError("duplicate powers of p in factors")
        if any(e == 0 for _, e in factors):
            raise ValueError("zero exponents are not stored")
        object.__setattr__(self, "factors", factors)


def zeta_projective(n_dim: int, p: int) -> FactoredZeta:
    """Z_{P^n} = 1/((1-T)(1-pT)...(1-p^n T)), for n up to KEEL_MAX_N - 3, the
    largest dimension of any Mbar_{0,n} the package builds."""
    require_size("n_dim", n_dim, 0, KEEL_MAX_N - 3, "the dimension at the Keel row bound")
    return FactoredZeta(p, tuple((j, 1) for j in range(n_dim + 1)))


def zeta_moduli(n: int, p: int) -> FactoredZeta:
    """Z_{Mbar_{0,n}}: exponent at p^j is the Betti number b_{2j}."""
    require_size("n", n, 3)
    return FactoredZeta(p, tuple((j, betti(n, j)) for j in range(n - 2)))


def log_derivative_series(z: FactoredZeta, order: int) -> tuple:
    """T d/dT log Z(T) through T^order, i.e. the point-count generating series.

    Index r holds the T^r coefficient sum_j e_j p^{jr}, an int; index 0 is 0.
    Each p^{jr} is the one before it, over the sorted j, times a power of
    p^r.
    """
    require_order(order, 1, ZETA_ORDER_GUARD)
    series = [0]
    for r in range(1, order + 1):
        step = z.p ** r
        total, power, at = 0, 1, 0
        for j, e in z.factors:
            power *= step ** (j - at)
            at = j
            total += e * power
        series.append(total)
    return tuple(series)


def verify_zeta_counts(n: int, p: int, order: int) -> list:
    """Check the T^r coefficient against point_count(n, p^r) for r = 1..order."""
    require_order(order, 1, ZETA_ORDER_GUARD)
    series = log_derivative_series(zeta_moduli(n, p), order)
    reports = []
    for r in range(1, order + 1):
        reports.append(
            make_report(
                "zeta-log-derivative",
                {"n": n, "p": p, "r": r},
                series[r],
                point_count(n, p ** r),
            )
        )
    return reports


def zeta_str(z: FactoredZeta, latex: bool = False) -> str:
    """Render e.g. 1/((1-T)(1-2T)^5(1-4T))."""
    pieces = []
    for j, e in z.factors:
        scale = z.p ** j
        base = "(1-T)" if scale == 1 else "(1-%dT)" % scale
        if e != 1:
            base += "^{%d}" % e if latex else "^%d" % e
        pieces.append(base)
    body = "".join(pieces)
    return (r"\frac{1}{%s}" % body) if latex else "1/(%s)" % body


def zeta_record(z: FactoredZeta) -> dict:
    return {"p": z.p, "factors": [{"j": j, "exp": e} for j, e in z.factors]}
