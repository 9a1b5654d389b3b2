import hashlib
import random
import time
from math import comb, prod

import pytest

from m0nbar import keel
from m0nbar.algebra import InexactDivisionError, poly_add, poly_eval, poly_mul, poly_scale
from m0nbar.keel import (
    KEEL_MAX_N,
    betti,
    glued_pair_count,
    point_count,
    poincare_poly,
    verify_count_recurrence,
)
from m0nbar.report import all_pass

# Hand-unrolled recurrence values, the oracle for everything downstream.
# P_{n+1} = (1+s) P_n + (s/2) sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1}:
#   P_4 = (1+s) * 1                                  (empty sum)
#   P_5 = (1+s)(1+s) + (s/2) * C(4,2) * 1 * 1        = 1 + 5s + s^2
#   P_6 = (1+s)P_5  + (s/2) * (C(5,2) + C(5,3)) P_4  = 1 + 16s + 16s^2 + s^3
HAND_ROWS = {
    3: (1,),
    4: (1, 1),
    5: (1, 5, 1),
    6: (1, 16, 16, 1),
}


def test_base_case():
    assert poincare_poly(3) == (1,)
    assert betti(3, 0) == 1
    assert betti(3, 1) == 0
    assert betti(3, -1) == 0


def test_hand_unrolled_rows():
    for n, row in HAND_ROWS.items():
        assert poincare_poly(n) == row
    assert betti(6, 1) == 16


def test_row_shape_invariants():
    for n in range(3, 13):
        row = poincare_poly(n)
        assert len(row) == n - 2          # degree exactly n-3
        assert row[0] == 1 and row[-1] == 1
        assert all(c > 0 for c in row)


def test_palindromicity():
    for n in range(3, 13):
        row = poincare_poly(n)
        assert row == row[::-1]
    # poincare_poly writes each row as s^h R(u) or (1 + s) s^h R(u) with
    # u = s + 1/s, so its rows are palindromic by construction; the
    # unpaired reference assumes no symmetry
    for n, row in _unpaired_rows(40).items():
        assert len(row) == n - 2, n
        assert row == row[::-1], n


def test_invalid_n():
    with pytest.raises(ValueError):
        poincare_poly(2)
    with pytest.raises(ValueError):
        betti(1, 0)
    with pytest.raises(ValueError):
        point_count(2, 5)
    # a bool is no size, though True == 1 and betti(5, 1) == 5
    with pytest.raises(ValueError, match="^k = True is not an int$"):
        betti(5, True)
    with pytest.raises(ValueError, match="^n = True is not an int$"):
        betti(True, 0)


def test_point_count_examples():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 101):
        assert point_count(3, q) == 1
    assert point_count(4, 2) == 3
    assert point_count(5, 2) == 15
    assert point_count(5, 4) == 37
    assert point_count(6, 2) == 105


def test_point_count_rejects_non_prime_powers():
    with pytest.raises(ValueError, match="prime power"):
        point_count(4, 6)
    with pytest.raises(ValueError):
        point_count(4, 1)
    with pytest.raises(ValueError):
        point_count(4, 0)


def test_point_count_positive():
    for n in range(3, 10):
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            assert point_count(n, q) >= 1


def test_count_recurrence():
    reports = verify_count_recurrence(4, 4)
    assert len(reports) == 1
    assert reports[0].passed and reports[0].lhs == "5"
    assert all_pass(verify_count_recurrence(5, 2))
    assert all_pass(verify_count_recurrence(8, 3))
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        assert all_pass(verify_count_recurrence(10, q))
    with pytest.raises(ValueError):
        verify_count_recurrence(3, 2)
    with pytest.raises(ValueError):
        verify_count_recurrence(5, 10)


def test_row_seven_and_betti_outside_the_row():
    assert poincare_poly(7) == (1, 42, 127, 42, 1)
    assert betti(7, 4) == 1
    assert betti(7, 5) == 0
    assert betti(7, 9) == 0
    with pytest.raises(ValueError):
        poincare_poly(2)


def _table_state():
    return [len(v) for v in keel._VALUES], keel._row.cache_info().currsize


def test_rows_beyond_the_bound_are_refused_before_any_is_built():
    # the rows the pinned digests cover stay inside the bound
    assert KEEL_MAX_N >= 175
    state = _table_state()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"Keel row bound \(%d\)" % KEEL_MAX_N):
        poincare_poly(KEEL_MAX_N + 1)
    assert time.perf_counter() - start < 0.01
    assert _table_state() == state
    assert poincare_poly(4) == (1, 1)


# sha256 of the rows P_3 .. P_150, one comma-separated line per row, pinned
# from the unpaired kernel that summed every j of the double sum
ROWS_3_TO_150_SHA256 = "303e9911b2f2b9dc15dd8a1f5f656552ed5fd3727e72316fe9cc8e12139baeee"
# the same for P_151 .. P_175, pinned from the rows built bottom-up into a
# dict beside the values, before rows were interpolated on demand
ROWS_151_TO_175_SHA256 = "9c1144ffe4fbc74076cc4b0a222e93a4908f81d82867e9aa3b862d58c88af9ae"


def _rows_digest(first=3, last=150):
    text = "\n".join(",".join(map(str, poincare_poly(k))) for k in range(first, last + 1))
    return hashlib.sha256(text.encode()).hexdigest()


def test_rows_digest_pinned():
    assert _rows_digest() == ROWS_3_TO_150_SHA256


def test_rows_151_to_175_digest_pinned():
    assert _rows_digest(151, 175) == ROWS_151_TO_175_SHA256


@pytest.fixture
def empty_tables(monkeypatch):
    # the row cache is cleared with every swap of the values, so no row
    # read from one table is served beside another
    monkeypatch.setattr(keel, "_VALUES", [[0, 0, 0, 1]])
    keel._row.cache_clear()
    yield
    keel._row.cache_clear()


@pytest.mark.parametrize("calls", [(150,), tuple(range(3, 151)), (60, 150), (175, 60, 3)],
                         ids=["cold", "rising", "points-added-to-a-deep-table", "descending"])
def test_every_build_order_gives_the_pinned_rows(empty_tables, calls):
    for n in calls:
        poincare_poly(n)
    top = max(calls)
    assert len(keel._VALUES) == (top - 1) // 2
    assert all(len(v) == top + 1 for v in keel._VALUES)
    assert _rows_digest() == ROWS_3_TO_150_SHA256
    if top == 175:
        assert _rows_digest(151, 175) == ROWS_151_TO_175_SHA256


def test_a_cold_row_interpolates_only_itself(empty_tables, monkeypatch):
    interpolate, calls = keel._interpolate, []

    def count(values):
        calls.append(len(values))
        return interpolate(values)

    monkeypatch.setattr(keel, "_interpolate", count)
    poincare_poly(150)
    assert calls == [74]
    poincare_poly(60)
    assert calls == [74, 29]
    # a row asked for again is read from the cache
    poincare_poly(150)
    assert len(calls) == 2


@pytest.fixture(scope="module")
def clean_values_to_80():
    values = keel._VALUES
    keel._VALUES = [[0, 0, 0, 1]]
    keel._row.cache_clear()
    try:
        poincare_poly(80)
        return keel._VALUES
    finally:
        keel._VALUES = values
        keel._row.cache_clear()


# poincare_poly(80) after poincare_poly(40) runs 19 points from row 41 up
# and 20 new points from row 4 up: 19 * 40 + 20 * 77 = 2300 values
@pytest.mark.parametrize("cut_at", [1, 500, 2300])
def test_a_build_cut_short_leaves_prefixes(empty_tables, monkeypatch, clean_values_to_80,
                                           cut_at):
    poincare_poly(40)
    next_value, calls = keel._next_value, []

    def cut(v, m, x):
        calls.append(m)
        if len(calls) == cut_at:
            raise KeyboardInterrupt
        return next_value(v, m, x)

    monkeypatch.setattr(keel, "_next_value", cut)
    with pytest.raises(KeyboardInterrupt):
        poincare_poly(80)
    assert len(calls) == cut_at
    assert sum(map(len, clean_values_to_80)) == 19 * 41 + 20 * 4 + 2300
    # every point holds a prefix of its clean values, the cut one included
    assert len(keel._VALUES) == len(clean_values_to_80)
    for v, clean in zip(keel._VALUES, clean_values_to_80):
        assert 4 <= len(v) <= len(clean) and v == clean[:len(v)]
    assert sum(map(len, keel._VALUES)) == 19 * 41 + 20 * 4 + cut_at - 1
    monkeypatch.setattr(keel, "_next_value", next_value)
    assert _rows_digest() == ROWS_3_TO_150_SHA256
    assert _rows_digest(151, 175) == ROWS_151_TO_175_SHA256


def test_a_failed_interpolation_memoizes_nothing(empty_tables, monkeypatch):
    poincare_poly(40)
    cached = keel._row.cache_info().currsize

    def fail(values):
        raise InexactDivisionError("cut short")

    interpolate = keel._interpolate
    monkeypatch.setattr(keel, "_interpolate", fail)
    for _ in range(2):
        with pytest.raises(InexactDivisionError):
            poincare_poly(80)
    assert keel._row.cache_info().currsize == cached
    monkeypatch.setattr(keel, "_interpolate", interpolate)
    assert _rows_digest() == ROWS_3_TO_150_SHA256


def test_rows_at_minus_one_match_the_real_points():
    # P_n(-1) is the Euler characteristic of the real points of Mbar_{0,n}
    # (Etingof, Henriques, Kamnitzer and Rains), prod_i (1 - (n-3-2i)^2)
    # over 0 <= i < (n-2)//2; it is 0 for every even n
    for n in range(3, KEEL_MAX_N + 1):
        row = poincare_poly(n)
        euler = prod(1 - (n - 3 - 2 * i) ** 2 for i in range((n - 2) // 2))
        assert sum(row[0::2]) - sum(row[1::2]) == euler, n
    assert [prod(1 - (n - 3 - 2 * i) ** 2 for i in range((n - 2) // 2))
            for n in range(3, 12)] == [1, 0, -3, 0, 45, 0, -1575, 0, 99225]


def test_interpolation_is_exact():
    rng = random.Random(19)
    for degree in range(40):
        coeffs = [rng.randint(-2**200, 2**200) for _ in range(degree + 1)]
        values = [poly_eval(coeffs, x) for x in range(degree + 1)]
        assert keel._interpolate(values) == coeffs, degree
        # more points than coefficients give zeros above the degree
        more = values + [poly_eval(coeffs, degree + 1 + x) for x in range(3)]
        assert keel._interpolate(more) == coeffs + [0, 0, 0], degree
    # 0, 1, 3 at u = 0, 1, 2 is u (u + 1) / 2, which has no integer coefficients
    with pytest.raises(InexactDivisionError):
        keel._interpolate((0, 1, 3))


def _unpaired_rows(n_max):
    # the recurrence as written: every j from 2 to n-2, then the halving
    rows = {3: (1,)}
    for n in range(3, n_max):
        total = ()
        for j in range(2, n - 1):
            total = poly_add(
                total, poly_scale(poly_mul(rows[j + 1], rows[n - j + 1]), comb(n, j))
            )
        assert all(c % 2 == 0 for c in total)
        half = tuple(c // 2 for c in total)
        rows[n + 1] = poly_add(poly_mul((1, 1), rows[n]), poly_mul((0, 1), half))
    return rows


def test_paired_kernel_matches_unpaired_sum():
    for n, row in _unpaired_rows(40).items():
        assert poincare_poly(n) == row, n
        assert [betti(n, k) for k in range(n - 2)] == list(row), n


def _half_row_rows(n_max):
    # the kernel that summed only the lower half of each row in powers of
    # s and mirrored it, kept as an oracle for the kernel in u = s + 1/s
    rows = {3: (1,)}
    for m in range(3, n_max):
        top = (m - 2) // 2
        prev = rows[m]
        acc = [prev[0]] + [prev[k] + prev[k - 1] for k in range(1, top + 1)]
        for j in range(2, m // 2 + 1):
            weight = comb(m - 1, j - 1) if 2 * j == m else comb(m, j)
            longer = rows[m - j + 1]
            for i, c in enumerate(rows[j + 1], 1):
                c *= weight
                for k, d in enumerate(longer[:top - i + 1], i):
                    acc[k] += c * d
        rows[m + 1] = tuple(acc + acc[m - 3 - top::-1])
    return rows


def test_kernel_in_u_matches_the_half_row_kernel():
    for n, row in _half_row_rows(100).items():
        assert poincare_poly(n) == row, n


def test_rows_in_u_are_positive_and_expand_to_the_rows():
    poincare_poly(60)
    for n in range(3, 61):
        h = (n - 3) // 2
        values = [v[n] for v in keel._VALUES]
        r = keel._interpolate(values[:h + 1])
        assert len(r) == h + 1, n
        assert all(c > 0 for c in r), n
        # the recurrence holds at every point, so the values at the points
        # beyond x = h lie on the same polynomial
        assert keel._interpolate(values) == r + [0] * (len(values) - h - 1), n
        # s^h R(u) = sum_k r_k (1 + s^2)^k s^(h-k), expanded with poly_mul
        row = ()
        for k, c in enumerate(r):
            term = (0,) * (h - k) + (c,)
            for _ in range(k):
                term = poly_mul(term, (1, 0, 1))
            row = poly_add(row, term)
        if (n - 3) % 2:
            row = poly_mul((1, 1), row)
        assert row == poincare_poly(n), n


def test_glued_pair_count_is_half_the_unpaired_sum():
    for n in range(3, 16):
        for q in (2, 3, 4, 7, 9):
            double = sum(comb(n, j) * point_count(j + 1, q) * point_count(n - j + 1, q)
                         for j in range(2, n - 1))
            assert 2 * glued_pair_count(n, q) == double, (n, q)
