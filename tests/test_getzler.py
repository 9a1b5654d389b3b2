from fractions import Fraction
from math import factorial

import pytest

from m0nbar import getzler
from m0nbar.algebra import BiSeries, intpoly, poly_add, poly_mul, poly_scale, series_compose
from m0nbar.cli import main
from m0nbar.getzler import (
    SERIES_ORDER_GUARD,
    open_homology_dims,
    ordinary_coeff,
    series_f,
    series_g,
    verify_inverse,
)
from m0nbar.keel import poincare_poly
from m0nbar.report import all_pass
from m0nbar.strata import open_stratum_poly


def test_g_low_coefficients():
    # exponential coefficients n! [x^n]
    g = series_g(4)
    assert g.coeffs[0] == ()
    assert g.coeffs[1] == (1,)
    assert g.coeffs[2] == (-1,)             # g = x - x^2/2 + ...
    assert g.coeffs[3] == (2, -1)           # -(s-2)
    assert g.coeffs[4] == (-6, 5, -1)       # -(s-2)(s-3)
    assert ordinary_coeff(g, 3) == (Fraction(1, 3), Fraction(-1, 6))


def test_f_low_coefficients():
    # exponential coefficients n! [x^n]
    f = series_f(4)
    assert f.coeffs[0] == ()
    assert f.coeffs[1] == (1,)
    assert f.coeffs[2] == (1,)
    assert f.coeffs[3] == (1, 1)
    assert f.coeffs[4] == (1, 5, 1)
    assert ordinary_coeff(f, 4) == (Fraction(1, 24), Fraction(5, 24), Fraction(1, 24))


def test_f_coefficients_are_scaled_poincare_rows():
    f = series_f(7)
    for n in range(2, 8):
        assert f.coeffs[n] == poincare_poly(n + 1)
        expected = poly_scale(poincare_poly(n + 1), Fraction(1, factorial(n)))
        assert ordinary_coeff(f, n) == expected


def test_f_times_factorial_is_palindromic():
    f = series_f(8)
    for n in range(2, 9):
        row = f.coeffs[n]
        assert row == tuple(reversed(row))


def test_order_validation():
    with pytest.raises(ValueError):
        series_g(1)
    with pytest.raises(ValueError):
        series_f(0)
    with pytest.raises(ValueError):
        open_homology_dims(1)


def test_series_order_guard_refuses_before_any_work(monkeypatch):
    # series_g(400) took 5.6 s, and verify_inverse(200) built every Keel row
    # to 175 before it refused; past the guard nothing is built
    assert len(series_f(SERIES_ORDER_GUARD).coeffs) == SERIES_ORDER_GUARD + 1
    assert len(series_g(SERIES_ORDER_GUARD).coeffs) == SERIES_ORDER_GUARD + 1

    def refuse(*args):
        raise AssertionError("a coefficient was built past the guard")

    monkeypatch.setattr(getzler, "poincare_poly", refuse)
    monkeypatch.setattr(getzler, "_open_poly", refuse)
    for call in (series_f, series_g, verify_inverse):
        for order in (SERIES_ORDER_GUARD + 1, 400):
            with pytest.raises(ValueError, match="^order must be between 2 and %d$"
                                                 % SERIES_ORDER_GUARD):
                call(order)


def test_homology_dims_refuse_a_negative_dimension(monkeypatch):
    # an open polynomial 2 + s reads as dims (1, -2), which no space has
    monkeypatch.setattr(getzler, "_open_poly", lambda n: (2, 1))
    with pytest.raises(ArithmeticError, match="extraction failed at n=3"):
        open_homology_dims(3)


def test_inverse_hand_order_three():
    # x^2 of f(g): 1/2 - 1/2; x^3: -(s-2)/6 - 1/2*2*(-1/2)... all cancel
    f, g = series_f(3), series_g(3)
    composed = series_compose(f, g)
    assert composed.coeffs[1] == (1,)
    assert composed.coeffs[2] == ()
    assert composed.coeffs[3] == ()


def test_inverse_orders():
    for order in (3, 6, 8):
        assert all_pass(verify_inverse(order))


def test_inverse_passing_lines_are_unchanged():
    assert [r.line() for r in verify_inverse(4)] == [
        "PASS  getzler-inverse    order=4 direction=f(g(x)) lhs=x^1 rhs=x^1",
        "PASS  getzler-inverse    order=4 direction=g(f(x)) lhs=x^1 rhs=x^1",
    ]


def test_inverse_failure_names_the_first_differing_coefficient(monkeypatch, capsys):
    # f with 1 added to its x^3 coefficient, i.e. 3! to its exponential
    # one: both compositions first differ from x at x^3, by exactly that 1,
    # since g = x + O(x^2)
    right = series_f

    def wrong_f(order):
        f = right(order)
        coeffs = list(f.coeffs)
        coeffs[3] = poly_add(coeffs[3], (6,))
        return BiSeries(f.order, coeffs)

    monkeypatch.setattr(getzler, "series_f", wrong_f)
    reports = verify_inverse(4)
    assert not all_pass(reports)
    assert [r.line() for r in reports] == [
        "FAIL  getzler-inverse    order=4 direction=f(g(x)) "
        "lhs=x^1 + x^3 + x^4 [x^3: 1] rhs=x^1 [x^3: 0]",
        "FAIL  getzler-inverse    order=4 direction=g(f(x)) "
        "lhs=x^1 + x^3 + x^4 [x^3: 1] rhs=x^1 [x^3: 0]",
    ]
    # the CLI prints the same lines
    assert main(["verify", "getzler", "--order", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [r.line() for r in reports]
    # f = 2x + s x^3, stored as n! [x^n]: both sides have an x^1 term, so
    # only the coefficient shows where they part
    monkeypatch.setattr(getzler, "series_f",
                        lambda order: BiSeries(order + 1, [(), (2,), (), (0, 6), ()]))
    assert [r.lhs + " | " + r.rhs for r in verify_inverse(4)] == [
        "x^1 + x^2 + x^3 + x^4 [x^1: 2] | x^1 [x^1: 1]",
    ] * 2


def test_homology_dims_small():
    assert open_homology_dims(2).dims == (1,)
    assert open_homology_dims(3).dims == (1, 2)
    assert open_homology_dims(4).dims == (1, 5, 6)
    assert open_homology_dims(5).dims == (1, 9, 26, 24)


def test_homology_dims_start_with_one():
    for n in range(2, 8):
        assert open_homology_dims(n).dims[0] == 1


def test_homology_dims_match_open_stratum_counts():
    # sum_i (-1)^i dims[i] q^(n-2-i) must be the open-stratum count of
    # n+1 points, i.e. prod_{j=2}^{n-1} (q - j)
    for n in range(2, 8):
        dims = open_homology_dims(n).dims
        signed = [0] * (n - 1)
        for i, d in enumerate(dims):
            signed[n - 2 - i] = d if i % 2 == 0 else -d
        assert intpoly(*signed) == open_stratum_poly(n + 1)


def test_open_poly_memo_keeps_dims():
    # dims of M_{0,6}: (1 + 2t)(1 + 3t)(1 + 4t), read twice through the memo
    assert open_homology_dims(5).dims == open_homology_dims(5).dims == (1, 9, 26, 24)


def test_open_poly_times_s_s_minus_1_is_the_falling_factorial():
    # n! [x^n] of (1+x)^s is s(s-1)...(s-n+1); g's open polynomial is that
    # product divided by s(s-1), checked here by multiplying back against a
    # falling factorial built coefficient by coefficient
    falling = [0, 1]                                # s, for n = 1
    for n in range(2, SERIES_ORDER_GUARD + 1):
        # times (s - (n-1)): the coefficient of s^i gains that of s^(i-1)
        falling = [a - (n - 1) * b for a, b in zip([0] + falling, falling + [0])]
        assert poly_mul(getzler._open_poly(n), (0, -1, 1)) == tuple(falling), n


def test_series_arithmetic_builds_no_fraction(monkeypatch):
    # the series, their compositions and the open polynomials are integer
    # polynomials end to end; only a printed coefficient becomes a Fraction
    from m0nbar import algebra

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("Fraction%r built" % (args,))

    monkeypatch.setattr(algebra, "Fraction", NoFraction)
    monkeypatch.setattr(getzler, "Fraction", NoFraction)
    getzler._open_poly.cache_clear()
    assert all_pass(verify_inverse(10))
    assert open_homology_dims(8).dims == (1, 27, 295, 1665, 5104, 8028, 5040)
