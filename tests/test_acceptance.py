"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding to its stated runtime budget (run with -s or -v to see them).

All comparisons are exact; there are no tolerances anywhere.
"""

import ast
import time
from pathlib import Path

from m0nbar import getzler, keel, strata
from m0nbar.algebra import poly_eval
from m0nbar.forget import fiber_size, verify_fiber_sum, verify_lemma3, verify_lemma4
from m0nbar.getzler import series_f, series_g
from m0nbar.keel import betti, point_count, poincare_poly
from m0nbar.strata import (
    open_stratum_poly,
    orbit_count_direct,
    strata_table,
    stratified_count,
)
from m0nbar.zeta import log_derivative_series, zeta_moduli
from m0nbar.algebra import series_compose

QS = (2, 3, 4, 5, 7, 8, 9, 11)
# what the census and Keel's rows may both import from algebra: types and
# input validators, never arithmetic
SHARED_HELPERS = {"IntPoly", "InexactDivisionError", "require_int", "require_size",
                  "require_prime_power", "is_prime", "is_prime_power"}


def _finish(name, started, budget_s):
    elapsed = time.perf_counter() - started
    line = "ACCEPT %-28s elapsed %.3fs (budget %gs)" % (name, elapsed, budget_s)
    print(line)
    assert elapsed < budget_s, line


def test_base_cases():
    t0 = time.perf_counter()
    assert poincare_poly(3) == (1,)
    for q in QS:
        assert point_count(3, q) == 1
    _finish("base-cases", t0, 0.001)


def test_hand_derived_recurrence_values():
    # Oracle: hand-unrolled P_{n+1} = (1+s)P_n + (s/2) sum C(n,j) P_{j+1} P_{n-j+1},
    # worked out by hand before any code existed:
    #   P_4 = (1+s)                       (the j-sum is empty)
    #   P_5 = (1+s)^2 + 3s                = 1 + 5s + s^2
    #   P_6 = (1+s)P_5 + 10s(1+s)         = 1 + 16s + 16s^2 + s^3
    t0 = time.perf_counter()
    assert poincare_poly(4) == (1, 1)
    assert poincare_poly(5) == (1, 5, 1)
    assert poincare_poly(6) == (1, 16, 16, 1)
    _finish("hand-derived-P4-P6", t0, 0.001)


def test_cross_oracle_point_counts():
    # 48 exact equalities between the recurrence evaluation and the
    # stratum-by-stratum census
    t0 = time.perf_counter()
    checked = 0
    for n in range(3, 9):
        for q in QS:
            assert point_count(n, q) == stratified_count(n, q), (n, q)
            checked += 1
    assert checked == 48
    _finish("cross-oracle-counts", t0, 60.0)


def _imports(module, source: str) -> set:
    """The names a package module imports from .source, read from its source."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names}


def test_census_and_keel_share_no_arithmetic():
    # cross-oracle and lemma4 compare the census with Keel's rows; an
    # arithmetic helper used by both would be checked against itself
    t0 = time.perf_counter()
    shared = _imports(strata, "algebra") & _imports(keel, "algebra")
    assert shared <= SHARED_HELPERS, sorted(shared - SHARED_HELPERS)
    _finish("route-independence", t0, 1.0)


def test_getzler_and_keel_share_no_arithmetic():
    # getzler-inverse composes f, Keel's rows by definition, with g, which
    # must be built without Keel: getzler reads the rows and nothing else
    t0 = time.perf_counter()
    shared = _imports(getzler, "algebra") & _imports(keel, "algebra")
    assert shared <= SHARED_HELPERS, sorted(shared - SHARED_HELPERS)
    assert _imports(getzler, "keel") == {"poincare_poly"}
    _finish("getzler-route-independence", t0, 1.0)


def test_orbit_oracle():
    t0 = time.perf_counter()
    for q in (2, 3, 5, 7):
        for n in range(3, q + 2):
            expected = 1
            for j in range(2, n - 1):
                expected *= q - j
            assert orbit_count_direct(n, q) == expected, (n, q)
            assert poly_eval(open_stratum_poly(n), q) == expected, (n, q)
    _finish("orbit-oracle", t0, 10.0)


def test_forgetting_map_identities():
    t0 = time.perf_counter()
    for n in range(4, 8):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert verify_lemma3(n, q).passed, (n, q)
            assert verify_lemma4(n, q).passed, (n, q)
    _finish("forgetting-map-lemmas", t0, 30.0)


def test_fiber_sum_reconstruction():
    t0 = time.perf_counter()
    for n in range(3, 8):
        for q in (2, 3, 5):
            assert verify_fiber_sum(n, q).passed, (n, q)
            # the same sum, spelled out
            total = sum(
                poly_eval(row.count_poly, q) * fiber_size(row.edge_count, q)
                for row in strata_table(n)
            )
            assert total == stratified_count(n + 1, q), (n, q)
    _finish("fiber-sum-reconstruction", t0, 30.0)


def test_getzler_inverse_identity():
    t0 = time.perf_counter()
    f, g = series_f(8), series_g(8)
    for composed in (series_compose(f, g), series_compose(g, f)):
        assert composed.coeffs[1] == (1,)
        for m in range(2, 9):
            assert composed.coeffs[m] == (), m  # the zero polynomial in s
    _finish("getzler-inverse", t0, 5.0)


def test_zeta_log_derivative_identity():
    t0 = time.perf_counter()
    for n in (3, 4, 5, 6):
        for p in (2, 3):
            series = log_derivative_series(zeta_moduli(n, p), 6)
            for r in range(1, 7):
                assert series[r] == point_count(n, p ** r), (n, p, r)
    _finish("zeta-log-derivative", t0, 1.0)


def test_property_suite():
    t0 = time.perf_counter()
    for n in range(3, 13):
        row = poincare_poly(n)
        assert len(row) - 1 == n - 3
        assert row[0] == 1 and row[-1] == 1
        assert all(c > 0 for c in row)
        for k in range(n - 2):
            assert betti(n, k) == betti(n, n - 3 - k)
    _finish("poincare-properties", t0, 1.0)
