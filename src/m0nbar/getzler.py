"""Getzler's pair of generating functions for genus-zero moduli, and the
mechanical check that they are compositional inverses.

With s = t^2, the closed form

    g(x) = x - ((1+x)^s - (1 + s*x)) / (s(s-1))

encodes the homology of the open moduli spaces, while

    f(x) = x + sum_{n>=2} x^n/n! * P_{n+1}(s)

is built from the Poincare polynomials of the compactified spaces, and
f(g(x)) = g(f(x)) = x.  Both are held as truncated bivariate series in
exponential form, n! [x^n], whose coefficients are integer polynomials in
s: f stores Keel's rows P_{n+1} as they are, and g stores
-(s-2)(s-3)...(s-n+1) for n >= 2, the falling factorial s(s-1)...(s-n+1)
without the two factors that s(s-1) cancels, built as that product in
integers.  It is, up to sign, the Poincare polynomial of the open
space M_{0,n+1}, which open_homology_dims reads without building the rest
of the series.  The compositions of verify_inverse run in
algebra.series_compose's integer kernel.  Only a printed coefficient is
scaled back by 1/n! into Fractions (ordinary_coeff).

The `order` arguments below are inclusive: order 8 keeps x^0 .. x^8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import (
    BiSeries,
    IntPoly,
    biseries_x,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_str,
    require_order,
    require_size,
    series_compose,
)
from .keel import poincare_poly
from .report import make_report

# largest order the series accept, measured to answer in about 1.5 s for
# verify_inverse at the guard; each series is refused beyond it before any
# coefficient is built
SERIES_ORDER_GUARD = 55


@lru_cache(maxsize=256)
def _open_poly(n: int) -> IntPoly:
    """-n! times the x^n coefficient of g(x) - x, for n >= 2: the product
    (s-2)(s-3)...(s-n+1) in integers.

    The x^n coefficient of (1+x)^s is s(s-1)...(s-n+1)/n!, and 1 + s*x
    cancels its terms at n <= 1, so dividing by s(s-1) leaves the factors
    from s-2 on.  The last 256 products are kept, well above the series
    order guard of 55, so series_g, open_homology_dims and verify_inverse
    build each n once.
    """
    poly = (1,)
    for j in range(2, n):
        poly = poly_mul(poly, (-j, 1))
    return poly


def series_g(order: int) -> BiSeries:
    """Getzler's g, from the closed form, through x^order."""
    require_order(order, 2, SERIES_ORDER_GUARD)
    return BiSeries(order + 1, [(), (1,)] + [poly_neg(_open_poly(n)) for n in range(2, order + 1)])


def series_f(order: int) -> BiSeries:
    """Getzler's f: n! [x^n] is Keel's row P_{n+1}(s) for n >= 2."""
    require_order(order, 2, SERIES_ORDER_GUARD)
    return BiSeries(order + 1, [(), (1,)] + [poincare_poly(n + 1) for n in range(2, order + 1)])


def ordinary_coeff(series: BiSeries, n: int) -> tuple:
    """[x^n] = n! [x^n] / n!, with Fraction coefficients: the printed form."""
    return poly_scale(series.coeffs[n], Fraction(1, factorial(n)))


def verify_inverse(order: int) -> list:
    """Check f(g(x)) = x and g(f(x)) = x exactly through x^order; series_f
    refuses a bad order before any Keel row is built."""
    f = series_f(order)
    g = series_g(order)
    identity = biseries_x(order + 1)
    return [
        _inverse_report(order, "f(g(x))", series_compose(f, g), identity),
        _inverse_report(order, "g(f(x))", series_compose(g, f), identity),
    ]


def _inverse_report(order: int, direction: str, composed: BiSeries, identity: BiSeries):
    """The report of one composition against x; a failing one also names the
    first power of x where the two differ, with both coefficients in s."""
    report = make_report("getzler-inverse", {"order": order, "direction": direction},
                         composed, identity, render=_biseries_brief)
    pairs = enumerate(zip(composed.coeffs, identity.coeffs))
    k = next((i for i, (a, b) in pairs if a != b), None)
    if k is not None:
        report.lhs += " [x^%d: %s]" % (k, poly_str(ordinary_coeff(composed, k)))
        report.rhs += " [x^%d: %s]" % (k, poly_str(ordinary_coeff(identity, k)))
    return report


def _biseries_brief(b: BiSeries) -> str:
    nonzero = ["x^%d" % i for i, c in enumerate(b.coeffs) if c]
    return " + ".join(nonzero) if nonzero else "0"


@dataclass(frozen=True)
class HomologyDims:
    """dims[i] = dim H_i of the open moduli space with n+1 marked points."""
    n: int
    dims: tuple


def open_homology_dims(n: int) -> HomologyDims:
    """Extract dim H_i(M_{0,n+1}) for i = 0..n-2 from g's x^n coefficient.

    The coefficient times -n! is sum_i (-1)^i dims[i] s^(n-2-i); there must
    be n - 1 values and each must come out nonnegative, or the expansion is
    broken and this raises.  n is capped at SERIES_ORDER_GUARD, as the
    series are.
    """
    require_size("n", n, 2, SERIES_ORDER_GUARD, "the series order guard")
    dims = tuple((-1) ** i * c for i, c in enumerate(reversed(_open_poly(n))))
    if len(dims) != n - 1 or min(dims) < 0:
        raise ArithmeticError("homology dimension extraction failed at n=%d: %r" % (n, dims))
    return HomologyDims(n, dims)
