import hashlib
import itertools
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cache
from math import comb, prod

import pytest

from m0nbar import algebra, strata
from m0nbar.algebra import normalize, poly_add, poly_eval, poly_mul, poly_scale
from m0nbar.cli import _verify_reports
from m0nbar.keel import poincare_poly
from m0nbar.strata import (
    CENSUS_MAX_N,
    DualTree,
    StratumInfo,
    boundary_edge_sum,
    enumerate_stable_trees,
    make_tree,
    open_stratum_poly,
    orbit_count_direct,
    strata_table,
    stratified_count,
    stratum_census,
    tree_serial,
)

QS = (2, 3, 4, 5, 7, 8, 9, 11)

GOLDEN_N3 = ["(1,2,3;)"]

GOLDEN_N4 = [
    "(1,2,3,4;)",
    "(1,2;(3,4;))",
    "(1,3;(2,4;))",
    "(1,4;(2,3;))",
]

# 1 one-vertex tree, 10 two-vertex trees (one per 2|3 split of the legs),
# 15 three-vertex chains (middle leg times pairing of the remaining four).
GOLDEN_N5 = [
    "(1,2,3,4,5;)",
    "(1,2,3;(4,5;))",
    "(1,2,4;(3,5;))",
    "(1,2,5;(3,4;))",
    "(1,2;(3,4,5;))",
    "(1,3,4;(2,5;))",
    "(1,3,5;(2,4;))",
    "(1,3;(2,4,5;))",
    "(1,4,5;(2,3;))",
    "(1,4;(2,3,5;))",
    "(1,5;(2,3,4;))",
    "(1;(2,3;)(4,5;))",
    "(1;(2,4;)(3,5;))",
    "(1;(2,5;)(3,4;))",
    "(2;(1,3;)(4,5;))",
    "(2;(1,4;)(3,5;))",
    "(2;(1,5;)(3,4;))",
    "(3;(1,2;)(4,5;))",
    "(3;(1,4;)(2,5;))",
    "(3;(1,5;)(2,4;))",
    "(4;(1,2;)(3,5;))",
    "(4;(1,3;)(2,5;))",
    "(4;(1,5;)(2,3;))",
    "(5;(1,2;)(3,4;))",
    "(5;(1,3;)(2,4;))",
    "(5;(1,4;)(2,3;))",
]


def test_golden_serializations():
    for n, golden in ((3, GOLDEN_N3), (4, GOLDEN_N4), (5, GOLDEN_N5)):
        assert [tree_serial(t) for t in enumerate_stable_trees(n)] == golden


# sha256 of the newline-joined serials in enumeration order, pinned from the
# Pruefer-shape enumerator this package used before the total-partition
# generator replaced it
SERIALS_SHA256 = {
    6: "01abd05d1f88b3a9790cd06ecc80c7fff01fa97553eacec3aefaa10bb83f8bee",
    7: "e4c4548c308692f577720550e614658d24c788a4a7555af7ab7a0aba74a46cf2",
    8: "74e78b0bd55401dfd9cb9a46fa234f2dd9aec798a8f667666be183c920269cf3",
}

# sha256 of the newline-joined "vertex_count edges legs" lines, pinned from
# the same enumerator
STRUCTURE_SHA256 = {
    6: "4a77d732898837c72b8bb90a39f38d736549f760670767050d1e1b0977807f1b",
    7: "14b92b3c4bf8aad56e454aae6255290c1751ffd77b5fef3b319d10e0ab0a5211",
    8: "9a10ef4663cb22044906cdbc4dd25202e1679ffe5f09a0af380c4bc191230efd",
}

# stable trees with n legs: OEIS A000311 at n - 1
SCHROEDER = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208, 9: 660032}


def _sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_serial_digests_pinned():
    # serials are recomputed from each tree's edges and legs, so the two
    # digests also pin the link between a tree's structure and its serial
    for n in SERIALS_SHA256:
        trees = enumerate_stable_trees(n)
        assert _sha256_lines(
            make_tree(t.vertex_count, t.edges, dict(enumerate(t.legs, start=1))).serial
            for t in trees
        ) == SERIALS_SHA256[n], n
        assert _sha256_lines(
            "%d %s %s" % (t.vertex_count, t.edges, t.legs) for t in trees
        ) == STRUCTURE_SHA256[n], n


# sha256 of the newline-joined "serial count_poly edge_count" lines of a
# cold table, count_poly as comma-separated coefficients, pinned from the
# generator that rebuilt each block's kid options for every height
TABLE_SHA256 = {
    3: "bf2dcb09c6cec195844bea030622d8bd94645ebd4cd93978d23c71856e704106",
    4: "a9a98c5c3cdf580759e1ddf396070c321133b1f79501cbe81d0ddbe1d07aa977",
    5: "13eb221916b5fe899f0e6ffac04b23d2c3085ccd6e3019bac45b5ef52e2018d5",
    6: "ccbe0b38824f279ba95ca7f73d9f3357f211c26b1fbce44f53078e4a2cb140f4",
    7: "0d76a99c036bda9b7190fd6fb5899dcd72c146d3bebbc7a2c464b7d677ece79d",
    8: "59b6b8cdbdcb3eb14849fba5689040ab8d4e0352e364737f64dc626f3c3ba738",
}


@pytest.fixture
def cold_table(monkeypatch):
    """strata_table from a fresh run of the generator on every call:
    __wrapped__ skips the table's lru_cache, and table_columns is swapped
    for its own __wrapped__, so the columns' cache is skipped too and the
    trees are generated afresh, with a memo of their own."""
    runs = []
    centres = strata._centres
    monkeypatch.setattr(strata, "_centres", lambda n: runs.append(n) or centres(n))
    monkeypatch.setattr(strata, "table_columns", strata.table_columns.__wrapped__)

    def table(n):
        before = len(runs)
        rows = strata_table.__wrapped__(n)
        assert runs[before:] == [n]  # the generator ran once, for this table
        return rows
    return table


def test_cold_table_digests_pinned(cold_table):
    # each cold_table call generates its trees afresh; a second cold call
    # gives equal rows, so nothing the first leaves behind changes the next
    for n, digest in TABLE_SHA256.items():
        rows = cold_table(n)
        assert _sha256_lines(
            "%s %s %d" % (row.tree.serial, ",".join(map(str, row.count_poly)), row.edge_count)
            for row in rows
        ) == digest, n
        again = cold_table(n)
        assert again == rows and [r.tree.serial for r in again] == [r.tree.serial for r in rows]


def test_table_rows_equal_constructed_rows():
    # table rows fill their slots without running __init__; they equal, field
    # by field, the rows the constructors make from the same serials
    for n in (4, 6):
        for row in strata_table.__wrapped__(n):
            tree = DualTree(row.tree.vertex_count, None, None, row.tree.serial)
            made = StratumInfo(tree, row.count_poly, row.edge_count)
            assert repr(row) == repr(made) and row == made and hash(row) == hash(made)


def test_table_rows_follow_the_columns():
    # a row is its serial and count polynomial from table_columns, in order;
    # its vertex count is n - 1 - len(count_poly), here against the tree
    # that an independent parser numbers from the serial
    for n in range(3, 8):
        serials, polys = strata.table_columns(n)
        rows = strata_table(n)
        assert [row.tree.serial for row in rows] == list(serials)
        assert [row.count_poly for row in rows] == list(polys)
        for row in rows:
            vertices = _parse_serial(row.tree.serial).vertex_count
            assert row.tree.vertex_count == vertices == n - 1 - len(row.count_poly)
            assert row.edge_count == vertices - 1


def test_each_block_is_walked_once(monkeypatch):
    # the generator walks the splits of the block (1, ..., k) once per size
    # k, for every height at once, and relabels its nodes for every other
    # block of k legs; a block of cap min(k, n - k) - 2 <= 0 is one vertex,
    # unwalked
    walked = Counter()
    splits = strata._splits

    def counted(labels):
        walked[labels] += 1
        return splits(labels)

    monkeypatch.setattr(strata, "_splits", counted)
    serials, _ = strata.table_columns.__wrapped__(7)
    assert len(serials) == SCHROEDER[7]
    assert walked == {tuple(range(1, 8)): 1, (1, 2, 3): 1, (1, 2, 3, 4): 1}
    walked.clear()
    strata.table_columns.__wrapped__(8)
    assert len(walked) == 4 and max(walked.values()) == 1
    assert all(min(len(b), 8 - len(b)) > 2 for b in walked if len(b) < 8)


def _walked_nodes(block, n, memo) -> list:
    """The nodes on the legs block from a walk of that block's own splits,
    and of each of its sub-blocks' own splits: no node is relabelled."""
    if block not in memo:
        cap = min(len(block), n - len(block)) - 2
        if cap <= 0:
            memo[block] = [strata._node(block, ())]
        else:
            nodes = [strata._node(legs, kids) for legs, blocks in strata._splits(block)
                     for kids in itertools.product(
                         *[[k for k in _walked_nodes(b, n, memo) if k[3] < cap] for b in blocks])]
            memo[block] = sorted(nodes, key=lambda k: k[3])
    return memo[block]


def test_relabelled_blocks_equal_walked_blocks():
    # every block of cap > 0 gets, field by field and in order, the nodes
    # that a walk of its own splits builds, though only (1, ..., k) is walked
    for n in (7, 8):
        memo, walked = {}, {}
        blocks = [b for k in range(3, n) if min(k, n - k) > 2
                  for b in itertools.combinations(range(1, n + 1), k)]
        for block in blocks:
            assert strata._subtrees(block, n, memo) == _walked_nodes(block, n, walked), block


def test_relabelling_needs_one_digit_labels(monkeypatch):
    # _subtrees relabels a block label by label, one character each, so no
    # label may reach 10; n = 10 is refused before any split is walked
    assert strata.ENUMERATION_MAX_N <= 9

    def refuse(labels):
        raise AssertionError("splits were walked beyond the enumeration bound")
    monkeypatch.setattr(strata, "_splits", refuse)
    with pytest.raises(ValueError, match=r"n = 10 exceeds the stratum enumeration bound \(9\)"):
        strata.table_columns(10)


# sha256 of table_columns(9) in the format of TABLE_SHA256, edge count
# n - 2 - len(count_poly), pinned from the generator that walked every
# block's own splits, before any block was relabelled: it covers the 6-leg
# blocks that only n = 9 relabels
COLUMNS_9_SHA256 = "44f29f8baa61acac27de1768965243856909564ab520f5f4f62b7a8e3e401665"


def test_n9_columns_digest_pinned():
    serials, polys = strata.table_columns.__wrapped__(9)  # cold, and not kept
    assert len(serials) == SCHROEDER[9]
    assert _sha256_lines(
        "%s %s %d" % (serial, ",".join(map(str, poly)), 9 - 2 - len(poly))
        for serial, poly in zip(serials, polys)
    ) == COLUMNS_9_SHA256


def test_census_matches_table():
    for n in range(3, 9):
        rows = Counter((row.count_poly, row.edge_count) for row in strata_table(n))
        assert dict(stratum_census(n)) == rows


@cache
def _product_of_open_polys(valences):
    poly = (1,)
    for v in valences:
        poly = poly_mul(poly, open_stratum_poly(v))
    return poly


def test_table_polys_match_tree_valences():
    # the table takes each count polynomial from the valences the generator
    # carries; here it is rebuilt from the numbered tree's own valences
    for n in range(3, 9):
        for row in strata_table(n):
            assert row.count_poly == _product_of_open_polys(tuple(sorted(row.tree.valences())))
            assert row.edge_count == len(row.tree.edges)


def test_census_sizes_are_schroeder():
    # A000311 by T(m) = sum_{s<m} C(m-1, s-1) T(s) F(m-s), where F(0) = F(1) = 1
    # and F(m) = 2 T(m) for m >= 2; there are T(n-1) strata with n legs
    schroeder = [0, 1]
    for m in range(2, CENSUS_MAX_N):
        f = [1, 1] + [2 * t for t in schroeder[2:]]
        schroeder.append(sum(comb(m - 1, s - 1) * schroeder[s] * f[m - s] for s in range(1, m)))
    assert {n: schroeder[n - 1] for n in SCHROEDER} == SCHROEDER
    tables_before = strata_table.cache_info()
    for n in range(3, CENSUS_MAX_N + 1):
        assert sum(mult for _, mult in stratum_census(n)) == schroeder[n - 1], n
    # the census builds no tree, so n = 10 to 20 are answered without them
    assert strata_table.cache_info() == tables_before
    with pytest.raises(ValueError):
        stratum_census(2)
    with pytest.raises(ValueError, match=r"census guard \(%d\)" % CENSUS_MAX_N):
        stratum_census(CENSUS_MAX_N + 1)


def _set_partitions(labels):
    if not labels:
        yield []
        return
    for rest in _set_partitions(labels[1:]):
        yield [labels[:1]] + rest
        for i in range(len(rest)):
            yield rest[:i] + [labels[:1] + rest[i]] + rest[i + 1:]


@cache
def _valences_by_set_partitions(k):
    # the sorted valence tuples of the subtrees on k legs, walking every set
    # partition of the legs; the census sums over integer partitions instead
    types = Counter()
    for blocks in _set_partitions(list(range(k))):
        if len(blocks) < 2:
            continue
        subtrees = [_valences_by_set_partitions(len(b)) for b in blocks if len(b) > 1]
        for combo in itertools.product(*[t.items() for t in subtrees]):
            valences = [len(blocks) + 1] + [v for vs, _ in combo for v in vs]
            types[tuple(sorted(valences))] += prod(m for _, m in combo)
    return types


def test_census_matches_set_partition_walk():
    # the walk costs Bell(n - 1) set partitions, so it stops at n = 10
    for n in range(3, 11):
        census = Counter()
        for valences, mult in _valences_by_set_partitions(n - 1).items():
            poly = (1,)
            for v in valences:
                poly = poly_mul(poly, open_stratum_poly(v))
            census[poly, len(valences) - 1] += mult
        assert dict(stratum_census(n)) == census, n


def test_make_tree_ignores_numbering():
    # every enumerated tree, renumbered at random, canonicalizes back to itself
    rng = random.Random(2718)
    for n in (5, 6, 7):
        for tree in rng.sample(enumerate_stable_trees(n), 20):
            perm = list(range(tree.vertex_count))
            rng.shuffle(perm)
            edges = [(perm[a], perm[b]) for a, b in tree.edges]
            legs = [perm[v] for v in tree.legs]
            again = make_tree(tree.vertex_count, edges, dict(enumerate(legs, start=1)))
            assert again == tree and again.serial == tree_serial(tree)
            bare = DualTree(tree.vertex_count, tuple(edges), tuple(legs))
            assert tree_serial(bare) == tree_serial(tree)


def test_dual_tree_serial_is_not_compared():
    bare = DualTree(1, (), (0, 0, 0))
    made = make_tree(1, [], {1: 0, 2: 0, 3: 0})
    assert made.serial == "(1,2,3;)" and bare.serial == ""
    assert bare == made and hash(bare) == hash(made)
    assert tree_serial(bare) == "(1,2,3;)"
    assert not hasattr(bare, "__dict__")


def test_rows_and_trees_refuse_every_assignment():
    # FrozenInstanceError is an AttributeError; a name that is not a field
    # must raise it too, not TypeError
    made = make_tree(1, [], {1: 0, 2: 0, 3: 0})
    info = strata_table(4)[0]
    for obj, fields in ((made, ("vertex_count", "edges", "legs", "serial")),
                        (info, ("tree", "count_poly", "edge_count"))):
        for name in fields + ("other",):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        assert not hasattr(obj, "other") and not hasattr(obj, "__dict__")
    assert made == DualTree(1, (), (0, 0, 0)) and made.serial == "(1,2,3;)"
    assert repr(info) == "StratumInfo(tree=%r, count_poly=%r, edge_count=%r)" % (
        info.tree, info.count_poly, info.edge_count)
    assert info == strata_table(4)[0] and hash(info) == hash(strata_table(4)[0])
    # a tree numbered on first read still numbers itself after a refusal
    lazy = [row.tree for row in strata_table.__wrapped__(5)][-1]
    with pytest.raises(AttributeError):
        lazy.other = 1
    assert lazy == enumerate_stable_trees(5)[-1] and lazy.edges


def test_dual_tree_contract_survives_lazy_numbering(cold_table):
    # a cold_table call, a fresh run of the generator past both caches,
    # gives trees whose structure was never read; each check runs first on
    # some of them, then again after edges has been read
    def check(name, tree, known):
        made = make_tree(known.vertex_count, known.edges, dict(enumerate(known.legs, start=1)))
        bare = DualTree(known.vertex_count, known.edges, known.legs)
        if name == "hash":
            assert hash(tree) == hash(made) == hash(bare)
        elif name == "eq":
            assert tree == made == bare and made == tree and bare == tree
            assert made.serial == tree.serial == known.serial and bare.serial == ""
            assert pickle.loads(pickle.dumps(tree)) == known
        else:
            assert repr(tree) == "DualTree(vertex_count=%r, edges=%r, legs=%r, serial=%r)" % (
                known.vertex_count, known.edges, known.legs, known.serial)

    names = ("hash", "eq", "repr")
    for n in (5, 6, 7):
        for first in names:
            fresh = [row.tree for row in cold_table(n)]
            for tree, known in zip(fresh, enumerate_stable_trees(n), strict=True):
                if first == "hash":
                    for field in ("vertex_count", "edges", "legs", "serial"):
                        with pytest.raises(AttributeError):
                            setattr(tree, field, None)
                    with pytest.raises(AttributeError):
                        tree.other = None
                    assert not hasattr(tree, "__dict__")
                for name in (first,) + names:
                    check(name, tree, known)
                edges, legs = tree.edges, tree.legs
                for name in names:
                    check(name, tree, known)
                assert tree.edges is edges and tree.legs is legs  # numbered once, then kept


def test_enumeration_counts_small():
    assert len(enumerate_stable_trees(3)) == 1
    assert len(enumerate_stable_trees(4)) == 4
    assert len(enumerate_stable_trees(5)) == 26


def test_enumeration_counts_against_forgetting_sites():
    # Independent oracle: forgetting the last leg of a stable (n+1)-tree
    # lands on a stable n-tree, and the preimages of a fixed tree are in
    # bijection with its modification sites (attach to a vertex, sprout at
    # a leg, subdivide an edge), so
    #     T(n+1) = sum over trees (vertex_count + n + edge_count).
    for n in range(3, 8):
        sites = sum(
            t.vertex_count + n + t.edge_count for t in enumerate_stable_trees(n)
        )
        assert len(enumerate_stable_trees(n + 1)) == sites


def test_enumeration_is_duplicate_free_and_stable():
    for n in range(3, 8):
        trees = enumerate_stable_trees(n)
        serials = [tree_serial(t) for t in trees]
        assert len(set(serials)) == len(trees)
        assert sum(1 for t in trees if t.vertex_count == 1) == 1
        for t in trees:
            assert len(t.edges) == t.vertex_count - 1
            assert all(m >= 3 for m in t.valences())
        assert serials == sorted(serials, key=lambda s: (s.count("("), s))


def test_enumeration_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_stable_trees(2)


def test_enumeration_returns_the_table_trees():
    # strata_table is the one cache of trees; the enumeration reads its rows
    for n in range(3, 8):
        trees, rows = enumerate_stable_trees(n), strata_table(n)
        assert len(trees) == len(rows)
        assert all(tree is row.tree for tree, row in zip(trees, rows))
    assert not hasattr(enumerate_stable_trees, "cache_info")


def test_enumeration_bound_is_in_the_library(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree was generated beyond the enumeration bound")
    monkeypatch.setattr("m0nbar.strata._centres", refuse)
    with pytest.raises(ValueError, match=r"n = 10 exceeds the stratum enumeration bound \(9\)"):
        enumerate_stable_trees(10)


def _parse_serial(serial: str) -> DualTree:
    """Rebuild the canonically numbered DualTree from its serialization: a
    parser that shares no code with the library, kept as a test oracle."""
    edges = []
    legs = {}
    pos = 0
    counter = 0

    def node(parent):
        nonlocal pos, counter
        if serial[pos] != "(":
            raise ValueError("bad tree serialization %r" % serial)
        pos += 1
        v = counter
        counter += 1
        if parent >= 0:
            edges.append((parent, v))
        end = serial.index(";", pos)
        if end > pos:
            for tok in serial[pos:end].split(","):
                legs[int(tok)] = v
        pos = end + 1
        while serial[pos] == "(":
            node(v)
        pos += 1  # the closing parenthesis

    node(-1)
    if pos != len(serial):
        raise ValueError("trailing junk in tree serialization %r" % serial)
    n = len(legs)
    if sorted(legs) != list(range(1, n + 1)):
        raise ValueError("leg labels must be exactly 1..n")
    return DualTree(counter, tuple(sorted(tuple(sorted(e)) for e in edges)),
                    tuple(legs[i] for i in range(1, n + 1)))


def test_serialization_round_trip():
    for n in range(3, 6):
        for t in enumerate_stable_trees(n):
            s = tree_serial(t)
            assert _parse_serial(s) == t
            assert tree_serial(_parse_serial(s)) == s
    # well-formed but not canonical: children unsorted, or rooted off center
    for s in ("(5;(3,4;)(1,2;))", "(3,4;(5;(1,2;)))"):
        assert tree_serial(_parse_serial(s)) == "(5;(1,2;)(3,4;))"


def test_make_tree_canonicalizes():
    # same chain described with two different vertex numberings
    a = make_tree(3, [(0, 1), (1, 2)], {1: 0, 2: 0, 5: 1, 3: 2, 4: 2})
    b = make_tree(3, [(2, 1), (0, 1)], {1: 2, 2: 2, 5: 1, 3: 0, 4: 0})
    assert a == b
    assert tree_serial(a) == "(5;(1,2;)(3,4;))"


def test_make_tree_validation():
    with pytest.raises(ValueError, match="valence"):
        make_tree(2, [(0, 1)], {1: 0, 2: 0, 3: 0, 4: 1})  # vertex 1 has valence 2
    with pytest.raises(ValueError, match="tree"):
        make_tree(3, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 2, 5: 2, 6: 2})
    with pytest.raises(ValueError, match="labels"):
        make_tree(1, [], {1: 0, 3: 0, 4: 0})
    with pytest.raises(ValueError, match="duplicate edges"):
        make_tree(3, [(0, 1), (1, 0)], {1: 0, 2: 0, 3: 1, 4: 2, 5: 2})
    with pytest.raises(ValueError, match="bad edge"):
        make_tree(2, [(0, 2)], {1: 0, 2: 0, 3: 1, 4: 1})
    with pytest.raises(ValueError, match="bad edge"):
        make_tree(2, [(1, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
    for edge, text in (((0, 1, 1), r"bad edge \(0, 1, 1\): not a pair"),
                       ((0,), r"bad edge \(0,\): not a pair"), (5, "bad edge 5: not a pair")):
        with pytest.raises(ValueError, match=text):
            make_tree(2, [edge], {1: 0, 2: 0, 3: 1, 4: 1})
    with pytest.raises(ValueError, match="do not connect"):  # a triangle and a lone vertex
        make_tree(4, [(0, 1), (1, 2), (0, 2)], {k: k % 4 for k in range(1, 9)})
    with pytest.raises(ValueError, match="leg 3 sits on unknown vertex 5"):
        make_tree(1, [], {1: 0, 2: 0, 3: 5})
    # every size and vertex that is not an int is refused by name, first
    for count, text in ((1.0, "vertex_count = 1.0 is not an int"),
                        ("1", "vertex_count = '1' is not an int"),
                        (True, "vertex_count = True is not an int"),
                        (-1, "vertex_count must be >= 1"), (0, "vertex_count must be >= 1")):
        with pytest.raises(ValueError, match=text):
            make_tree(count, [], {1: 0, 2: 0, 3: 0})
    with pytest.raises(ValueError, match="vertex = 0.0 is not an int"):
        make_tree(2, [(0.0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
    with pytest.raises(ValueError, match="vertex = 0.0 is not an int"):
        make_tree(1, [], {1: 0, 2: 0, 3: 0.0})
    with pytest.raises(ValueError, match="vertex = False is not an int"):
        make_tree(1, [], {1: 0, 2: 0, 3: False})
    with pytest.raises(ValueError, match="vertex = '1' is not an int"):  # before any edge check
        make_tree(2, [(0, 0), (0, "1")], {1: 0, 2: 0, 3: 1, 4: 1})
    for label, text in ((1.0, "leg label = 1.0 is not an int"),
                        (Fraction(1), r"leg label = Fraction\(1, 1\) is not an int"),
                        (True, "leg label = True is not an int")):
        with pytest.raises(ValueError, match=text):
            make_tree(1, [], {label: 0, 2: 0, 3: 0})


def test_make_tree_takes_any_depth():
    # a caterpillar: a path of 2000 vertices, two legs at each end and one
    # at every other vertex, numbered and labelled at random; its centre is
    # the middle edge, and hanging it recursively would pass the
    # interpreter's recursion limit
    rng = random.Random(1869)
    count = 2000
    perm, labels = list(range(count)), list(range(1, count + 3))
    rng.shuffle(perm)
    rng.shuffle(labels)
    edges = [(perm[v], perm[v + 1]) for v in range(count - 1)]
    places = [perm[0]] + perm + [perm[-1]]
    legs = dict(zip(labels, places))
    made = make_tree(count, edges, legs)
    bare = DualTree(count, tuple(edges), tuple(legs[label] for label in range(1, count + 3)))
    assert made.serial == tree_serial(bare) and made.vertex_count == count
    again = make_tree(count, made.edges, dict(enumerate(made.legs, start=1)))
    assert again.serial == made.serial and again == made
    assert made.serial.count("(") == count and len(made.edges) == count - 1


def test_open_stratum_poly():
    assert open_stratum_poly(3) == (1,)
    assert open_stratum_poly(4) == (-2, 1)
    assert poly_eval(open_stratum_poly(6), 5) == 6
    with pytest.raises(ValueError):
        open_stratum_poly(2)


def test_open_stratum_pigeonhole_vanishing():
    # no n distinct points fit on a line with q+1 < n points
    for q in (2, 3, 4, 5, 7):
        for n in range(q + 2, q + 6):
            assert poly_eval(open_stratum_poly(n), q) == 0


def test_stratified_count_examples():
    for q in QS:
        assert stratified_count(3, q) == 1
    assert stratified_count(4, 2) == 3
    assert stratified_count(5, 2) == 15


def test_stratified_count_rejects_bad_q():
    with pytest.raises(ValueError, match="prime power"):
        stratified_count(4, 6)


def test_boundary_edge_sum_examples():
    for q in QS:
        assert boundary_edge_sum(3, q) == 0
        assert boundary_edge_sum(4, q) == 3
    assert boundary_edge_sum(5, 2) == 30
    assert boundary_edge_sum(5, 3) == 40


def _crossing_lines() -> list:
    """(identity, n, q, passed) of every cross-oracle and lemma4 line for
    n <= 8 at q = 2, 3, 4, as verify strata and verify forget make them."""
    reports = _verify_reports("strata", 8, (2, 3, 4), None)
    reports += _verify_reports("forget", 8, (2, 3, 4), None)
    return sorted((r.identity, r.parameters["n"], r.parameters["q"], r.passed) for r in reports
                  if r.identity in ("cross-oracle", "lemma4"))


def test_census_side_evaluates_apart_from_keel(monkeypatch):
    # poly_eval evaluating at q + 1 shifts Keel's side only: every
    # cross-oracle and lemma4 line whose value depends on q must fail
    def shifted(p, x):
        acc = 0
        for c in reversed(p):
            acc = acc * (x + 1) + c
        return acc

    lines = [(name, n, q) for q in (2, 3, 4)
             for name, least in (("cross-oracle", 3), ("lemma4", 4)) for n in range(least, 9)]
    assert _crossing_lines() == sorted(line + (True,) for line in lines)
    monkeypatch.setattr(algebra.poly_eval, "__code__", shifted.__code__)
    strata._census_sums.cache_clear()
    try:
        crossing = _crossing_lines()
    finally:
        strata._census_sums.cache_clear()
    # only cross-oracle at n = 3 and lemma4 at n = 4 do not depend on q
    steady = {("cross-oracle", 3), ("lemma4", 4)}
    assert crossing == sorted(line + (line[:2] in steady,) for line in lines)


def test_total_count_polynomial_is_poincare():
    # summing the stratum polynomials gives P_n with s -> q, exactly
    for n in range(3, 8):
        total = ()
        for row in strata_table(n):
            total = poly_add(total, row.count_poly)
        assert total == poincare_poly(n)


def ratpoly(*coeffs):
    return normalize(Fraction(c) for c in coeffs)


def test_interpolated_counts_match_poincare():
    # rebuild the counting polynomial from point values alone
    for n in range(3, 8):
        points = [(q, stratified_count(n, q)) for q in QS[: n - 1]]
        rebuilt = ()
        for i, (xi, yi) in enumerate(points):
            basis = ratpoly(1)
            denom = Fraction(1)
            for j, (xj, _) in enumerate(points):
                if j != i:
                    basis = poly_mul(basis, ratpoly(-xj, 1))
                    denom *= xi - xj
            rebuilt = poly_add(rebuilt, poly_scale(basis, Fraction(yi) / denom))
        assert rebuilt == ratpoly(*poincare_poly(n))


def test_orbit_count_direct_examples():
    assert orbit_count_direct(3, 2) == 1
    assert orbit_count_direct(4, 5) == 3
    assert orbit_count_direct(5, 5) == 6
    assert orbit_count_direct(8, 7) == 120
    assert orbit_count_direct(9, 7) == 0  # pigeonhole


def test_orbit_count_matches_formula():
    for q in (2, 3, 5, 7):
        for n in range(3, q + 2):
            assert orbit_count_direct(n, q) == poly_eval(open_stratum_poly(n), q)


def test_orbit_walk_covers_gl2():
    # every invertible matrix is walked once, and only the q - 1 scalars
    # fix every point of P^1(F_q)
    for q in (2, 3, 5, 7):
        counts = strata._fixed_point_counts(q)
        assert sum(counts) == (q * q - 1) * (q * q - q), q
        assert counts[q + 1] == q - 1, q


def test_orbit_oracle_sees_a_wrong_walk(monkeypatch):
    # a walk that keeps only the scalars still gives every count at n >= 3
    # right, since only scalars fix three points; the k = 1, 2 sums refuse it
    monkeypatch.setattr(strata, "_fixed_point_counts", lambda p: (0,) * (p + 1) + (p - 1,))
    for q in (2, 3, 5, 7):
        for n in range(3, q + 3):
            with pytest.raises(ArithmeticError, match="GL2"):
                orbit_count_direct(n, q)


def test_orbit_oracle_reads_nothing_of_the_census(monkeypatch):
    def refuse(*args):
        raise AssertionError("the orbit oracle read the census")

    monkeypatch.setattr(strata, "open_stratum_poly", refuse)
    monkeypatch.setattr(strata, "poly_mul", refuse)
    strata._fixed_point_counts.cache_clear()
    for q in (2, 3, 5, 7):
        for n in range(3, q + 3):
            assert orbit_count_direct(n, q) == prod(q - j for j in range(2, n - 1)), (n, q)


def test_orbit_count_guards():
    with pytest.raises(ValueError, match="prime"):
        orbit_count_direct(4, 4)
    with pytest.raises(ValueError, match="guard"):
        orbit_count_direct(4, 11)
    with pytest.raises(ValueError):
        orbit_count_direct(2, 5)


def test_stratified_count_via_orbit_oracle():
    # full triangulation at tiny q: every stratum factor recomputed by the
    # explicit orbit enumeration instead of the product formula
    for n in (4, 5):
        for q in (2, 3, 5):
            total = 0
            for tree in enumerate_stable_trees(n):
                factor = 1
                for m in tree.valences():
                    factor *= orbit_count_direct(m, q)
                total += factor
            assert total == stratified_count(n, q)
