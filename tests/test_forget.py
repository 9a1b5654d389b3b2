import random
import re
from fractions import Fraction

import pytest

from m0nbar import forget, getzler, keel, strata, zeta
from m0nbar.algebra import is_prime_power, poly_eval, require_prime, require_prime_power
from m0nbar.forget import (
    FiberBreakdown,
    fiber_size,
    fiber_size_breakdown,
    verify_fiber_sum,
    verify_lemma3,
    verify_lemma4,
)
from m0nbar.getzler import SERIES_ORDER_GUARD, open_homology_dims, series_f, series_g
from m0nbar.keel import (
    KEEL_MAX_N,
    betti,
    glued_pair_count,
    poincare_poly,
    point_count,
    verify_count_recurrence,
)
from m0nbar.report import all_pass
from m0nbar.strata import (
    CENSUS_MAX_N,
    boundary_edge_sum,
    enumerate_stable_trees,
    make_tree,
    open_stratum_poly,
    orbit_count_direct,
    strata_table,
    stratified_count,
    stratum_census,
)
from m0nbar.zeta import log_derivative_series, verify_zeta_counts, zeta_moduli, zeta_projective


def test_fiber_size():
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        assert fiber_size(0, q) == q + 1
    assert fiber_size(1, 2) == 5
    assert fiber_size(3, 3) == 13
    with pytest.raises(ValueError):
        fiber_size(-1, 3)
    with pytest.raises(ValueError):
        fiber_size(0, 6)


def test_fiber_size_refuses_non_int_k_rho():
    for bad in (1.5, 1.0, "1", Fraction(1)):
        with pytest.raises(ValueError, match="k_rho = .* is not an int"):
            fiber_size(bad, 2)


def test_fiber_size_strictly_increasing():
    for k in range(0, 6):
        for q in (2, 3, 4, 5, 7, 8):
            assert fiber_size(k + 1, q) > fiber_size(k, q)
    for k in range(0, 6):
        assert fiber_size(k, 3) > fiber_size(k, 2)
        assert fiber_size(k, 5) > fiber_size(k, 4)


def test_breakdown_single_vertex():
    tree = make_tree(1, [], {1: 0, 2: 0, 3: 0})
    b = fiber_size_breakdown(tree, 2)
    assert (b.same_component, b.leg_sprouts, b.node_sprouts) == (0, 3, 0)
    assert b.total == fiber_size(0, 2) == 3


def test_breakdown_two_vertices():
    tree = make_tree(2, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
    b = fiber_size_breakdown(tree, 3)
    assert (b.same_component, b.leg_sprouts, b.node_sprouts) == (2, 4, 1)
    assert b.total == fiber_size(1, 3) == 7


def test_breakdown_empty_stratum_marker():
    # a 4-valent vertex cannot hold its special points over F_2
    tree = make_tree(1, [], {1: 0, 2: 0, 3: 0, 4: 0})
    assert fiber_size_breakdown(tree, 2) is None
    assert fiber_size_breakdown(tree, 3) is not None


def test_breakdown_identity_random_trees():
    rng = random.Random(31415)
    pool = [t for n in range(3, 9) for t in enumerate_stable_trees(n)]
    for tree in rng.sample(pool, 200):
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            b = fiber_size_breakdown(tree, q)
            if b is None:
                assert max(tree.valences()) > q + 1
                continue
            assert b.total == fiber_size(tree.edge_count, q)
            assert b.same_component >= 0


def test_breakdown_every_small_tree():
    fields = ("k_rho", "q", "same_component", "leg_sprouts", "node_sprouts", "total")
    assert FiberBreakdown._fields == fields
    for n in range(3, 8):
        for tree in enumerate_stable_trees(n):
            k = tree.edge_count
            for q in (2, 3, 4, 5, 7, 8, 9, 11):
                b = fiber_size_breakdown(tree, q)
                if max(tree.valences()) > q + 1:
                    assert b is None
                    continue
                want = (k, q, (k + 1) * (q + 1) - n - 2 * k, n, k, fiber_size(k, q))
                assert isinstance(b, FiberBreakdown)
                assert tuple(b) == want
                assert tuple(getattr(b, name) for name in fields) == want
    with pytest.raises(AttributeError):
        b.total = 0


def test_per_q_entry_points_reject_bad_q_every_call():
    tree = make_tree(1, [], {1: 0, 2: 0, 3: 0})
    entry_points = (
        lambda q: fiber_size_breakdown(tree, q),
        lambda q: fiber_size(1, q),
        lambda q: verify_fiber_sum(5, q),
        lambda q: stratified_count(5, q),
        lambda q: boundary_edge_sum(5, q),
        lambda q: point_count(5, q),
        lambda q: verify_count_recurrence(5, q),
        lambda q: verify_lemma3(5, q),
        lambda q: verify_lemma4(5, q),
        lambda q: glued_pair_count(3, q),   # no terms, so only its own check sees q
    )
    # refusals repeat before and after the valid calls that fill the memos
    for call in entry_points:
        for _ in range(3):
            for bad in (6, 1, 0, -4):
                with pytest.raises(ValueError, match="not a prime power"):
                    call(bad)
            with pytest.raises(ValueError, match="cannot certify"):
                call(2**89 - 1)   # a prime past the reach of certification
            call(5)
            call(9973)


def test_glued_pair_count_refuses_small_n():
    assert glued_pair_count(3, 2) == 0   # the recurrence at m = 4 reads it
    for bad in (2, -5):
        with pytest.raises(ValueError, match="^n must be >= 3$"):
            glued_pair_count(bad, 2)


def test_checking_memos_refuse_after_a_valid_call():
    # the memo keys are checked on a miss only: a raise is never cached, and
    # typed keys keep 9.0, Fraction(9) and True from the entries of 9 and 1
    tree = make_tree(1, [], {1: 0, 2: 0, 3: 0})
    memos = (forget._breakdown, strata._census_sums)
    entry_points = (
        lambda q: fiber_size_breakdown(tree, q),
        lambda q: stratified_count(5, q),
        lambda q: boundary_edge_sum(5, q),
    )
    for call in entry_points:
        call(9)
        sizes = [memo.cache_info().currsize for memo in memos]
        for _ in range(2):
            for bad in (9.0, Fraction(9), "9", None, True):
                with pytest.raises(ValueError, match="^" + re.escape("q = %r is not an int"
                                                                   % (bad,)) + "$"):
                    call(bad)
            with pytest.raises(TypeError):
                call([9])   # unhashable, so no memo key
        assert [memo.cache_info().currsize for memo in memos] == sizes


def test_entry_points_reject_non_int_n_every_call():
    # 5.0 and Fraction(5) hash like 5, so a memo keyed on n would answer
    # them once 5 is in it, and True would pass an isinstance check as 1;
    # each is refused before and after the valid calls
    entry_points = (
        (poincare_poly, "n"),
        (strata_table, "n"),
        (strata.table_columns, "n"),
        (stratum_census, "n"),
        (open_stratum_poly, "m"),
        (lambda n: stratified_count(n, 2), "n"),
        (lambda n: boundary_edge_sum(n, 2), "n"),
        (series_f, "order"),
        (series_g, "order"),
        (open_homology_dims, "n"),
        (lambda n: zeta_moduli(n, 2), "n"),
        (lambda n: zeta_projective(n, 2), "n_dim"),
        (lambda k: betti(5, k), "k"),
        (lambda n: verify_count_recurrence(n, 2), "n_max"),
        (lambda n: glued_pair_count(n, 2), "n"),
        (lambda order: log_derivative_series(zeta_moduli(5, 2), order), "order"),
        (lambda order: verify_zeta_counts(5, 2, order), "order"),
        (lambda n: orbit_count_direct(n, 5), "n"),
        # verify_lemma3 reads the census at n + 1, so it must name n, not n + 1
        (lambda n: verify_lemma3(n, 2), "n"),
        (lambda n: verify_lemma4(n, 2), "n"),
    )
    for call, name in entry_points:
        for _ in range(2):
            for bad in (5.0, Fraction(5), "5", None, True):
                # the exact value, so that a check on n + 1 does not pass for n
                with pytest.raises(ValueError, match="^" + re.escape("%s = %r is not an int"
                                                                   % (name, bad))):
                    call(bad)
            call(5)


def test_size_guards_refuse_before_any_work(monkeypatch):
    # each guard value is answered; one past it is refused by name before a
    # single factor is built, however large the size
    assert len(open_stratum_poly(CENSUS_MAX_N)) == CENSUS_MAX_N - 2
    assert len(open_homology_dims(SERIES_ORDER_GUARD).dims) == SERIES_ORDER_GUARD - 1
    assert len(zeta_projective(KEEL_MAX_N - 3, 2).factors) == KEEL_MAX_N - 2
    # n = 176 reads Keel rows up to 175 only
    assert glued_pair_count(KEEL_MAX_N + 1, 2) > 0
    assert all_pass(verify_count_recurrence(KEEL_MAX_N, 2))

    def refuse(*args):
        raise AssertionError("work was done past the guard")

    monkeypatch.setattr(strata, "poly_mul", refuse)
    monkeypatch.setattr(getzler, "_open_poly", refuse)
    monkeypatch.setattr(zeta, "FactoredZeta", refuse)
    monkeypatch.setattr(keel, "poincare_poly", refuse)
    guarded = (
        (open_stratum_poly, "m", CENSUS_MAX_N, "the stratum census guard"),
        (open_homology_dims, "n", SERIES_ORDER_GUARD, "the series order guard"),
        (lambda n: zeta_projective(n, 2), "n_dim", KEEL_MAX_N - 3,
         "the dimension at the Keel row bound"),
        (lambda n: glued_pair_count(n, 2), "n", KEEL_MAX_N + 1, "the Keel row bound plus one"),
        (lambda n: verify_count_recurrence(n, 2), "n_max", KEEL_MAX_N, "the Keel row bound"),
    )
    for call, name, guard, bound in guarded:
        with pytest.raises(ValueError, match="^" + re.escape(
                "%s = %d exceeds %s (%d)" % (name, guard + 1, bound, guard)) + "$"):
            call(guard + 1)


def test_breakdown_checks_each_key_once(monkeypatch):
    checked = []

    def counting(q):
        checked.append(q)
        require_prime_power(q)

    trees = [row.tree for row in strata_table(6)]
    assert len(trees) == 236
    want = [fiber_size(tree.edge_count, 9973) for tree in trees]
    monkeypatch.setattr(forget, "require_prime_power", counting)
    forget._breakdown.cache_clear()
    for _ in range(2):
        assert [fiber_size_breakdown(tree, 9973).total for tree in trees] == want
    assert checked == [9973] * 4   # one per k = 0..3


def test_lemma3_hand_values():
    r = verify_lemma3(3, 2)
    assert r.passed and (r.lhs, r.rhs) == ("3", "3")
    r = verify_lemma3(4, 2)
    assert r.passed and (r.lhs, r.rhs) == ("15", "15")


def test_lemma3_all_qs():
    for n in range(3, 8):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert verify_lemma3(n, q).passed


def test_lemma4_hand_values():
    for q in (2, 3, 5, 7):
        r = verify_lemma4(4, q)
        assert r.passed and r.lhs == "3"
    r = verify_lemma4(5, 2)
    assert r.passed and (r.lhs, r.rhs) == ("30", "30")


def test_lemma4_all_qs():
    for n in range(4, 8):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert verify_lemma4(n, q).passed
    with pytest.raises(ValueError):
        verify_lemma4(3, 2)


def test_fiber_sum_reconstruction():
    for n in range(3, 8):
        for q in (2, 3, 4, 5, 7):
            assert verify_fiber_sum(n, q).passed


def test_valences_never_exceed_n():
    # each edge at a vertex leads to at least two legs, which is why
    # fiber_size_breakdown reads no valence once q + 1 >= n;
    # test_breakdown_every_small_tree compares it with the valence scan
    for n in range(3, 9):
        assert max(max(tree.valences()) for tree in enumerate_stable_trees(n)) == n


def _sampled_prime_powers(seed: int, k: int) -> list:
    """k prime powers up to 10^4 drawn with this seed, after 2, 3, 4 and 9973."""
    pool = [m for m in range(5, 9973) if is_prime_power(m)]
    return [2, 3, 4, 9973] + random.Random(seed).sample(pool, k)


def test_census_memo_matches_reference_sums():
    # the memo is read twice per (n, q): the first read may fill it
    for q in _sampled_prime_powers(16, 8):
        for n in range(3, CENSUS_MAX_N + 1):
            census = stratum_census(n)
            count = sum(mult * poly_eval(poly, q) for (poly, _), mult in census)
            edges = sum(mult * k * poly_eval(poly, q) for (poly, k), mult in census)
            assert count == point_count(n, q)
            for _ in range(2):
                assert stratified_count(n, q) == count
                assert boundary_edge_sum(n, q) == edges
                assert type(stratified_count(n, q)) is int


def test_breakdown_memo_on_every_tree_of_n6():
    trees = enumerate_stable_trees(6)
    assert len(trees) == 236
    for q in _sampled_prime_powers(17, 8):
        shared = {}
        for tree in trees:
            k = tree.edge_count
            for _ in range(2):
                b = fiber_size_breakdown(tree, q)
                if max(tree.valences()) > q + 1:
                    assert b is None
                    continue
                assert tuple(b) == (k, q, (k + 1) * (q + 1) - 6 - 2 * k, 6, k, (q + 1) + q * k)
                # one breakdown per (n, k(rho), q), shared by every such tree
                assert shared.setdefault(k, b) is b
        assert (q + 1 >= 6) == (len(shared) == 4)


def test_memos_are_bounded():
    for memo in (strata._census_sums, forget._breakdown, getzler._open_poly):
        assert memo.cache_info().maxsize is not None


def test_non_int_q_and_p_are_refused():
    for q in (3.5, 2.0, 4.0):
        with pytest.raises(ValueError, match="is not an int"):
            require_prime_power(q)
    for p in (2.0, 3.5):
        with pytest.raises(ValueError, match="is not an int"):
            require_prime(p)
    for call in (lambda: point_count(5, 4.0), lambda: zeta_moduli(5, 2.0),
                 lambda: fiber_size_breakdown(make_tree(1, [], {1: 0, 2: 0, 3: 0}), 2.0)):
        with pytest.raises(ValueError, match="is not an int"):
            call()
    # 2.0 == 2 hashes alike: a float refused first must leave no float in the memo
    strata._census_sums.cache_clear()
    with pytest.raises(ValueError, match="is not an int"):
        stratified_count(5, 2.0)
    assert type(stratified_count(5, 2)) is int and stratified_count(5, 2) == 15

