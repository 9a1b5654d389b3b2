from fractions import Fraction

import pytest

from m0nbar import zeta
from m0nbar.keel import point_count
from m0nbar.report import all_pass
from m0nbar.zeta import (
    ZETA_ORDER_GUARD,
    FactoredZeta,
    log_derivative_series,
    verify_zeta_counts,
    zeta_moduli,
    zeta_projective,
    zeta_record,
    zeta_str,
)


def test_projective_factors():
    assert zeta_projective(0, 5).factors == ((0, 1),)
    assert zeta_projective(2, 2).factors == ((0, 1), (1, 1), (2, 1))
    with pytest.raises(ValueError):
        zeta_projective(2, 4)
    with pytest.raises(ValueError):
        zeta_projective(-1, 2)


def test_moduli_factors():
    assert zeta_moduli(3, 7).factors == ((0, 1),)
    assert zeta_moduli(4, 2).factors == ((0, 1), (1, 1))
    assert zeta_moduli(5, 2).factors == ((0, 1), (1, 5), (2, 1))
    with pytest.raises(ValueError):
        zeta_moduli(2, 3)


def test_moduli_four_points_is_projective_line():
    for p in (2, 3, 5, 7, 11):
        assert zeta_moduli(4, p) == zeta_projective(1, p)


def test_rendering():
    assert zeta_str(zeta_projective(2, 2)) == "1/((1-T)(1-2T)(1-4T))"
    assert zeta_str(zeta_projective(1, 3)) == "1/((1-T)(1-3T))"
    assert zeta_str(zeta_moduli(5, 2)) == "1/((1-T)(1-2T)^5(1-4T))"
    assert zeta_str(zeta_moduli(3, 5)) == "1/((1-T))"
    assert zeta_record(zeta_moduli(5, 2)) == {
        "p": 2,
        "factors": [{"j": 0, "exp": 1}, {"j": 1, "exp": 5}, {"j": 2, "exp": 1}],
    }


def test_log_derivative_projective_line():
    series = log_derivative_series(zeta_projective(1, 2), 3)
    assert series == (0, 3, 5, 9)


def test_log_derivative_point():
    series = log_derivative_series(zeta_moduli(3, 5), 4)
    assert series[1:] == (1,) * 4


def test_log_derivative_moduli_five():
    series = log_derivative_series(zeta_moduli(5, 2), 3)
    assert series[1] == 15   # P_5(2)
    assert series[2] == 37   # P_5(4)
    assert series[3] == 105  # P_5(8)


def test_log_derivative_validation():
    with pytest.raises(ValueError):
        log_derivative_series(zeta_moduli(4, 2), 0)


def test_zeta_order_guard_refuses_before_any_work(monkeypatch):
    z = zeta_moduli(6, 1009)
    assert len(log_derivative_series(z, ZETA_ORDER_GUARD)) == ZETA_ORDER_GUARD + 1

    def refuse(*args):
        raise AssertionError("a Keel row or count was read past the guard")

    monkeypatch.setattr(zeta, "betti", refuse)
    monkeypatch.setattr(zeta, "point_count", refuse)
    message = "^order must be between 1 and %d$" % ZETA_ORDER_GUARD
    for order in (ZETA_ORDER_GUARD + 1, 10**6):
        with pytest.raises(ValueError, match=message):
            log_derivative_series(z, order)
        with pytest.raises(ValueError, match=message):
            verify_zeta_counts(6, 1009, order)


def test_factored_zeta_validation():
    with pytest.raises(ValueError):
        FactoredZeta(2, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        FactoredZeta(2, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        FactoredZeta(2, ((0, 0),))


def test_factored_zeta_refuses_non_int_factors():
    assert FactoredZeta(2, [[0, 1], [1, 2]]).factors == ((0, 1), (1, 2))
    for factors, name in ((((0, 1.5), (1, "2")), "e"), (((0, 1), (1, "2")), "e"),
                          (((0.0, 1),), "j"), (((Fraction(1), 1),), "j")):
        with pytest.raises(ValueError, match="%s = .* is not an int" % name):
            FactoredZeta(2, factors)


def test_counts_identity():
    for n in (3, 4, 5, 6):
        for p in (2, 3):
            reports = verify_zeta_counts(n, p, 6)
            assert len(reports) == 6
            assert all_pass(reports)


def test_counts_identity_matches_point_count_directly():
    series = log_derivative_series(zeta_moduli(6, 3), 4)
    for r in range(1, 5):
        assert series[r] == point_count(6, 3 ** r)


def test_log_derivative_is_a_tuple_of_exact_ints():
    for order in (1, 2, 7):
        series = log_derivative_series(zeta_moduli(6, 3), order)
        assert type(series) is tuple and len(series) == order + 1
        assert series[0] == 0
        assert all(type(c) is int for c in series)


def test_log_derivative_matches_the_power_of_each_term():
    # every p^{jr} raised from scratch, as the series was first written
    for n in range(3, 13):
        for p in (2, 3, 5):
            z = zeta_moduli(n, p)
            for order in range(1, 9):
                direct = (0, *(sum(e * p ** (j * r) for j, e in z.factors)
                               for r in range(1, order + 1)))
                assert log_derivative_series(z, order) == direct, (n, p, order)
