"""Independent census of the strata of Mbar_{0,n}: stable dual trees with n
labeled legs, per-stratum point-count polynomials in q, and a brute-force
count of orbits on P^1(F_q) for tiny primes q, by Burnside over GL2(F_q).

A dual tree records one vertex per component of a stable curve, one edge per
node where two components meet, and one labeled leg per marked point.
Stability is the valence bound

    (incident edges) + (assigned legs) >= 3   at every vertex.

Enumeration builds each tree rooted at its graph-theoretic center, so every
tree comes out once and none is re-rooted or deduplicated.  One loop walks
the set partitions of the legs, each block a leg or a subtree.  A partition
into at least three blocks is a center vertex, with no subtrees or two
tallest subtrees of equal height.  A leg-free partition into two blocks is
the center edge between two subtrees of equal height.  Every vertex of a
subtree splits the legs below it into at least two blocks (Schroeder's total
partitions, OEIS A000311).  Subtrees are memoized by leg set, sorted by
height, so those up to any height are a prefix.  The splits of the block
(1, ..., k) are walked once per size k, building its subtrees at every
height a center can hang there, and every other block of k legs relabels
those nodes by the order-preserving map i -> block[i - 1].  Labels are
single digits while n <= 9, so the relabelling keeps every sort that makes
a serial canonical, and the count polynomials of a center's split depend on
its shape alone: they are multiplied out once per shape.  The generator
makes a serial and a count polynomial per tree and nothing else; table_columns
sorts them, and a row or a DualTree is built only when strata_table is
read.  A vertex with b blocks has valence b + 1, so the block sizes of the
splits give the census of stratum types without building a tree: one
integer partition of the legs stands for every set partition with its block
sizes.

Canonical form: a tree is serialized rooted at each graph-theoretic center
as "(sorted,legs;child1child2...)" with children sorted by their own
serialization, and the lexicographically smaller string wins.  Sibling
subtrees carry disjoint, nonempty leg sets, so siblings never tie and the
string is a complete invariant.  A DualTree is numbered in the order of its
string, so == on DualTree is leg-labeled isomorphism.  Nodes carry no
numbering: a tree made from its serial numbers itself from the string the
first time its edges or legs are read, and keeps the result.  Each node
carries the valences of its vertices instead, so a stratum table takes
every count polynomial from the generator and numbers no tree.  make_tree
finds the center of arbitrary input by peeling its leaves layer by layer,
builds the same nodes, and returns the same serial-made tree.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache, reduce
from math import factorial, perm, prod
from operator import itemgetter

from .algebra import (IntPoly, is_prime, poly_mul, require_int, require_prime_power,
                      require_size)

ORBIT_GUARD_MAX_Q = 7   # the walk tests q points per matrix: 7^5 = 16807 tests, 3 ms at q = 7
CENSUS_MAX_N = 20       # cold, the census takes 0.4 s and 17 MB at n = 20, 1.1-1.4 s at n = 22
ENUMERATION_MAX_N = 9   # relabelling blocks needs one-digit labels 1..9; cold strata_table:
                        # 660032 trees in 2.7-2.9 s and 175 MB (its columns alone 1.0-1.4 s
                        # and 125 MB); n = 10 has 12818912


def _frozen(cls):
    """Refuse every assignment and deletion on a slotted frozen dataclass.

    On CPython 3.11, dataclass(frozen=True, slots=True) builds a new class
    but its __setattr__ and __delattr__ still name the old one, so a name
    that is not a field would raise TypeError from super().  Here every
    name raises FrozenInstanceError, which is an AttributeError.
    """
    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class DualTree:
    """Combinatorial type of a stable genus-zero curve, in canonical numbering.

    edges is a sorted tuple of sorted vertex pairs; legs[i] is the vertex
    carrying leg label i+1.  serial, when set, is the canonical
    serialization; it takes no part in ==.  A tree made with edges and legs
    None numbers itself from its serial the first time either is read, and
    keeps the result.
    """
    vertex_count: int
    edges: tuple
    legs: tuple
    serial: str = field(default="", compare=False)

    def __init__(self, vertex_count: int, edges, legs, serial: str = ""):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "serial", serial)
        if edges is not None:
            object.__setattr__(self, "edges", edges)
            object.__setattr__(self, "legs", legs)

    def __getattr__(self, name):
        # reached only when a slot is empty: edges and legs not yet numbered
        if name not in ("edges", "legs"):
            raise AttributeError("'DualTree' object has no attribute %r" % name)
        edges, legs = _numbering(self.serial)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)
        return edges if name == "edges" else legs

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valences(self) -> tuple:
        val = [0] * self.vertex_count
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        for v in self.legs:
            val[v] += 1
        return tuple(val)


@_frozen
@dataclass(frozen=True, slots=True)
class StratumInfo:
    """One stratum row: its tree, point-count polynomial in q, and k(rho)."""
    tree: DualTree
    count_poly: IntPoly
    edge_count: int


# ---------------------------------------------------------------------------
# canonical form

def _node(legs, kids) -> tuple:
    """(serial, head, kid serials, height, valences): the part of a tree
    below one vertex and away from one neighbour, serialized from that
    vertex, with the head "(legs;" of that serial, its kids' serials in
    sorted order, its height in edges, and the valence of every vertex in it
    in serial order, each counting the edge towards that neighbour."""
    kids = sorted(kids)
    valences, height = (len(legs) + len(kids) + 1,), 0
    for kid in kids:
        valences += kid[4]
        if kid[3] >= height:
            height = kid[3] + 1
    head, kid_serials = "(%s;" % ",".join(map(str, legs)), [k[0] for k in kids]
    return head + "".join(kid_serials) + ")", head, kid_serials, height, valences


def _rooted_at(top, below) -> str:
    """The serial of a tree with a centre edge between the nodes top and
    below, rooted at top's vertex: below is one more kid there."""
    return top[1] + "".join(sorted(top[2] + [below[0]])) + ")"


_LEG_CHARS = str.maketrans("", "", "0123456789,")


@lru_cache(maxsize=1024)  # the trees of n = 9 have 32 shapes
def _shape_edges(shape: str) -> tuple:
    """The sorted edges of a serialization with its legs taken out, so
    that trees of one shape share one tuple."""
    edges, path = [], []
    # each vertex's piece is ";" and then one ")" per vertex it closes
    for v, piece in enumerate(shape.split("(")[1:]):
        if path:
            edges.append((path[-1], v))
        path.append(v)
        del path[len(path) + 1 - len(piece):]
    edges.sort()
    return tuple(edges)


def _numbering(serial: str) -> tuple:
    """(edges, legs) of the tree with this serialization, its vertices
    numbered in the order their "(" come in the string."""
    places = {}
    for v, piece in enumerate(serial.split("(")[1:]):
        labels = piece[:piece.index(";")]
        if labels:
            for label in labels.split(","):
                places[int(label)] = v
    legs = tuple([places[label] for label in range(1, len(places) + 1)])
    return _shape_edges(serial.translate(_LEG_CHARS)), legs


def tree_serial(tree: DualTree) -> str:
    """Canonical serialization of a dual tree (a complete invariant)."""
    if tree.serial:
        return tree.serial
    return make_tree(tree.vertex_count, tree.edges, dict(enumerate(tree.legs, start=1))).serial


def make_tree(vertex_count: int, edges, legs) -> DualTree:
    """Validate and canonicalize an arbitrary vertex/edge/leg description.

    legs maps label -> vertex (labels must be exactly 1..n).  Raises
    ValueError, in this order, for a vertex_count that is not an int >= 1,
    an edge that is not a pair, a vertex that is not an int, a leg label
    that is not an int, duplicate edges, a bad edge, the wrong number of
    edges, edges that do not connect the vertices, leg labels other than
    1..n, a leg on an unknown vertex, or a vertex of valence below 3.  A
    tree of any depth is accepted: nothing here recurses.
    """
    require_size("vertex_count", vertex_count, 1)
    pairs, legs = [], dict(legs)
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            raise ValueError("bad edge %r: not a pair of vertices" % (e,)) from None
        pairs.append((a, b))
    for v in itertools.chain(*pairs, legs.values()):
        require_int("vertex", v)
    for label in legs:
        require_int("leg label", label)
    edges = [tuple(sorted(e)) for e in pairs]
    if len(edges) != len(set(edges)):
        raise ValueError("duplicate edges")
    for a, b in edges:
        if a == b or not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise ValueError("bad edge (%r, %r)" % (a, b))
    if len(edges) != vertex_count - 1:
        raise ValueError("a tree on %d vertices needs %d edges" % (vertex_count, vertex_count - 1))
    adj = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # peel the leaves layer by layer: a vertex joins the next layer when
    # its remaining degree drops to 1, and the last layer is the centre
    remaining = [len(a) for a in adj]
    layers = [[v for v in range(vertex_count) if remaining[v] <= 1]]
    peeled = len(layers[0])
    while peeled < vertex_count:
        layer = []
        for v in layers[-1]:
            for u in adj[v]:
                remaining[u] -= 1
                if remaining[u] == 1:
                    layer.append(u)
        if not layer:  # with vertex_count - 1 edges, only a graph that is no tree stalls
            raise ValueError("edges do not connect the vertices")
        layers.append(layer)
        peeled += len(layer)
    n = len(legs)
    if sorted(legs) != list(range(1, n + 1)):
        raise ValueError("leg labels must be exactly 1..n")
    legs_at = [[] for _ in range(vertex_count)]
    for label in range(1, n + 1):
        v = legs[label]
        if not 0 <= v < vertex_count:
            raise ValueError("leg %d sits on unknown vertex %r" % (label, v))
        legs_at[v].append(label)
    for v in range(vertex_count):
        if len(adj[v]) + len(legs_at[v]) < 3:
            raise ValueError("vertex %d has valence < 3 (not stable)" % v)
    node = {}
    for layer in layers:  # from the earlier layers only, so a centre edge's ends stay apart
        built = [_node(legs_at[v], [node[u] for u in adj[v] if u in node]) for v in layer]
        node.update(zip(layer, built))
    if len(built) == 2:  # a centre edge: the smaller serialization wins, as in _centres
        x, y = built
        return DualTree(len(x[4]) + len(y[4]), None, None, min(_rooted_at(x, y), _rooted_at(y, x)))
    return DualTree(len(built[0][4]), None, None, built[0][0])


# ---------------------------------------------------------------------------
# enumeration

def _partitions(labels):
    """Every set partition of the tuple labels, as a list of sorted blocks."""
    if not labels:
        yield []
        return
    last = labels[-1:]
    for blocks in _partitions(labels[:-1]):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + last] + blocks[i + 1:]
        yield blocks + [last]


def _splits(labels):
    """Each way a vertex splits the legs below it: (its legs, larger blocks)."""
    for blocks in _partitions(labels):
        if len(blocks) > 1:
            yield tuple(b[0] for b in blocks if len(b) == 1), [b for b in blocks if len(b) > 1]


_height = itemgetter(3)
_DIGITS = "123456789"


def _subtrees(block, n, memo) -> list:
    """Every node on the legs block up to the tallest that a centred tree
    hangs there, min(|block|, n - |block|) - 2 edges, sorted by height, so
    those up to any height are a prefix.  A block of cap 0 is one vertex,
    its splits never walked.  Otherwise the splits of the block (1, ..., k)
    of its size k are walked once, for every height, and any other block
    of k legs relabels those nodes: labels are single digits while
    n <= ENUMERATION_MAX_N, so the map i -> block[i - 1] keeps every sort
    that orders a serial, and heights and valences are unchanged."""
    if block not in memo:
        k = len(block)
        cap = min(k, n - k) - 2
        if cap <= 0:
            memo[block] = [_node(block, ())]
        elif block[-1] == k:
            nodes = [_node(legs, kids) for legs, blocks in _splits(block)
                     for kids in itertools.product(*[_upto(b, cap - 1, n, memo) for b in blocks])]
            nodes.sort(key=_height)
            memo[block] = nodes
        else:
            table = str.maketrans(_DIGITS[:k], "".join(map(str, block)))
            nodes = _subtrees(tuple(range(1, k + 1)), n, memo)
            # a kid serial recurs across the block's nodes: relabel it once
            kid = {serial: serial.translate(table) for node in nodes for serial in node[2]}
            memo[block] = [(serial.translate(table), head.translate(table),
                            list(map(kid.__getitem__, kids)), height, valences)
                           for serial, head, kids, height, valences in nodes]
    return memo[block]


def _upto(block, top, n, memo) -> list:
    """The nodes on the legs block of height at most top."""
    nodes = _subtrees(block, n, memo)
    return nodes[:bisect_right(nodes, top, key=_height)]


def _column(block, top, n, memo) -> list:
    """The serials of the nodes on the legs block of height at most top,
    listed once per call of _centres.  Its memo key pairs a block with a
    height, so it never meets a block's key."""
    key = block, top
    if key not in memo:
        memo[key] = [k[0] for k in _upto(block, top, n, memo)]
    return memo[key]


def _centres(n: int) -> tuple:
    """(serials, count polynomials) of every stable tree with legs 1..n,
    once each, serialized from its centre, in the order they are made.

    The centre is a vertex with legs or at least three blocks and either no
    kids or two tallest kids of equal height, or, for a leg-free split into
    two blocks, the edge between two kids of equal height.  The ends of that
    edge carry disjoint legs and ";" is in no leg, so the heads "(legs;" of
    the two serials decide which end roots the tree, unless both ends are
    leg-free.  Blocks of one size carry the same heights and valences in the
    same order, so the count polynomials of a split, and which kid choices
    it keeps, depend on its shape alone: they are worked out once per shape,
    and every split of that shape reads them.
    """
    memo, shapes, serials, polys = {}, {}, [], []
    for legs, blocks in _splits(tuple(range(1, n + 1))):
        if not blocks:
            serials.append(_node(legs, ())[0])
            polys.append(_count_poly((n,)))
        elif len(blocks) == 2 and not legs:
            # kids of equal height on both blocks; both blocks have every
            # height up to their common cap
            pairs = [(x, y) for (_, xs), (_, ys) in
                     zip(*[itertools.groupby(_subtrees(b, n, memo), _height) for b in blocks])
                     for x, y in itertools.product(xs, ys)]
            for x, y in pairs:
                if x[1] == y[1]:  # both heads are "(;"
                    serials.append(min(_rooted_at(x, y), _rooted_at(y, x)))
                else:
                    serials.append(_rooted_at(x, y) if x[0] < y[0] else _rooted_at(y, x))
            shape = tuple(map(len, blocks))
            if shape not in shapes:
                shapes[shape] = [_count_poly(x[4] + y[4]) for x, y in pairs]
            polys += shapes[shape]
        elif len(blocks) >= 2:
            pattern = "(%s;%%s)" % ",".join(map(str, legs))
            # the second tallest block bounds the centre's height; a kid
            # choice is kept when at least two kids reach it
            for height in range(sorted(map(len, blocks))[-2] - 1):
                shape = len(legs), tuple(map(len, blocks)), height
                if shape not in shapes:
                    options = [_upto(b, height, n, memo) for b in blocks]
                    keep = [sum(k[3] == height for k in kids) >= 2
                            for kids in itertools.product(*options)]
                    own = (len(legs) + len(blocks),)  # no edge above the centre
                    kids = itertools.compress(itertools.product(*options), keep)
                    shapes[shape] = keep, [_count_poly(sum((k[4] for k in kid), own))
                                           for kid in kids]
                keep, shape_polys = shapes[shape]
                kids = itertools.product(*[_column(b, height, n, memo) for b in blocks])
                kids = itertools.compress(kids, keep)
                serials += map(pattern.__mod__, map("".join, map(sorted, kids)))
                polys += shape_polys
    return serials, polys


def enumerate_stable_trees(n: int) -> tuple:
    """Every isomorphism class of stable dual tree with legs 1..n, once each.

    Deterministic order: by vertex count, then by canonical serialization.
    The trees are those of strata_table(n), whose cache keeps them.
    """
    return tuple(row.tree for row in strata_table(n))


def _integer_partitions(k: int, largest: int):
    """Every integer partition of k into parts of at most largest, as a
    non-increasing list."""
    if k == 0:
        yield []
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _integer_partitions(k - part, part):
            yield [part] + rest


@lru_cache(maxsize=None)
def _valence_types(k: int) -> Counter:
    """Sorted valence tuples of the subtrees on k given legs, with their
    multiplicities.  Relabelling the legs keeps the valences, so only k
    matters; callers read the shared Counter and never change it.

    The top vertex splits the k legs into at least two blocks, and only the
    block sizes decide the valences, so each integer partition of k stands
    for its k! / (prod size! prod (blocks of one size)!) set partitions."""
    types = Counter()
    for sizes in _integer_partitions(k, k - 1):
        ways = factorial(k) // prod(map(factorial, sizes + list(Counter(sizes).values())))
        own = (len(sizes) + 1,)  # blocks, plus the edge above
        options = [_valence_types(size).items() for size in sizes if size > 1]
        for combo in itertools.product(*options):
            valences = tuple(sorted(sum((v for v, _ in combo), own)))
            types[valences] += ways * prod(m for _, m in combo)
    return types


# ---------------------------------------------------------------------------
# stratum counting

@lru_cache(maxsize=None, typed=True)
def open_stratum_poly(m: int) -> IntPoly:
    """Number of PGL2(F_q)-orbits of m distinct labeled points on P^1(F_q).

    The group is simply transitive on ordered triples of distinct points,
    which pins the first three points at (0, 1, oo) and leaves the product
    prod_{j=2}^{m-2} (q - j) of remaining choices; the empty product (m = 3)
    is 1.  The memo is typed, as strata_table's is, and m is capped at
    CENSUS_MAX_N, the largest valence any census or table reads.
    """
    require_size("m", m, 3, CENSUS_MAX_N, "the stratum census guard")
    poly = (1,)
    for j in range(2, m - 1):
        poly = poly_mul(poly, (-j, 1))
    return poly


@lru_cache(maxsize=None)
def _count_poly(valences: tuple) -> IntPoly:
    """Point count of a stratum whose vertices have these valences, in any
    order.  Trees share few valence tuples in the orders _centres joins
    them (32 among the 39208 trees at n = 8, 64 among the 660032 at n = 9),
    so each is multiplied out once, as each type of the census is.
    _centres looks them up once per split shape, not per tree: 754 lookups
    at n = 8 and 6568 at n = 9."""
    return reduce(poly_mul, map(open_stratum_poly, valences), (1,))


def _instances(cls, count: int, **columns) -> tuple:
    """count instances of the slotted class cls, the i-th with each slot
    named in columns set to the i-th value of its column, made without
    running __init__ and with no Python call per instance: a class with a
    Python __init__ is called through a generic slot, about 1 us per row at
    n = 8."""
    objects = tuple(map(object.__new__, itertools.repeat(cls, count)))
    for name, values in columns.items():
        deque(map(getattr(cls, name).__set__, objects, values), maxlen=0)
    return objects


@lru_cache(maxsize=None, typed=True)
def table_columns(n: int) -> tuple:
    """(serials, count polynomials) of every stable tree with n legs, in
    enumeration order: by vertex count, then by serial.

    A stratum with V vertices has a count polynomial of degree n - 2 - V,
    so V is n - 1 - len(count_poly), and neither a tree nor a row is built.
    The memo is typed, so 5.0 never reads the entry of 5 and is refused here.
    """
    require_size("n", n, 3, ENUMERATION_MAX_N, "the stratum enumeration bound")
    serials, polys = _centres(n)
    # stable sorts of indices on one key each, serials and then fewer
    # vertices first, beat one sort on pairs
    order = sorted(range(len(serials)), key=serials.__getitem__)
    order.sort(key=list(map(len, polys)).__getitem__, reverse=True)
    return tuple(map(serials.__getitem__, order)), tuple(map(polys.__getitem__, order))


@lru_cache(maxsize=None, typed=True)
def strata_table(n: int) -> tuple:
    """StratumInfo for every stable tree with n legs, in enumeration order,
    one row per entry of table_columns(n).

    No tree is numbered: each row's tree is made from its serial.  The memo
    is typed, as table_columns' is."""
    serials, polys = table_columns(n)
    # each tree numbers itself from its serial when its edges or legs are
    # first read; a tree with V vertices has V - 1 edges
    trees = _instances(DualTree, len(serials), serial=serials,
                       vertex_count=map((n - 1).__sub__, map(len, polys)))
    return _instances(StratumInfo, len(serials), tree=trees, count_poly=polys,
                      edge_count=map((n - 2).__sub__, map(len, polys)))


@lru_cache(maxsize=None, typed=True)
def stratum_census(n: int) -> tuple:
    """((count_poly, edge_count), number of strata) for each stratum type.

    Built from the nested splits alone: no tree is numbered or serialized.
    The memo is typed, as strata_table's is."""
    require_size("n", n, 3, CENSUS_MAX_N, "the stratum census guard")
    census = Counter()
    for valences, mult in _valence_types(n - 1).items():
        census[_count_poly(valences), len(valences) - 1] += mult
    return tuple(sorted(census.items()))


def stratified_count(n: int, q: int) -> int:
    """|Mbar_{0,n}(F_q)| summed stratum by stratum over all dual trees.

    n and q are checked by _census_sums, which this and boundary_edge_sum
    read, on every call that misses it; a refused n or q is never kept."""
    return _census_sums(n, q)[0]


def boundary_edge_sum(n: int, q: int) -> int:
    """Sum of k(rho) over the F_q-points rho of the boundary strata."""
    return _census_sums(n, q)[1]


@lru_cache(maxsize=4096, typed=True)
def _census_sums(n: int, q: int) -> tuple:
    """(sum of |rho(F_q)|, sum of k(rho) |rho(F_q)|) over the strata rho of
    Mbar_{0,n}, from one walk of stratum_census(n).

    n and q are checked here, on a miss; a raise is never cached, so a
    refused n or q, or a census guard, is refused on every call.  The memo
    is typed, so 9.0, Fraction(9) and True are checked as themselves,
    never answered from an int's entry.  The last 4096 pairs are kept,
    which covers every n <= 7 at 800 values of q."""
    require_int("n", n)
    require_prime_power(q)
    count = edge_sum = 0
    for (poly, edges), mult in stratum_census(n):
        value = 0
        for c in reversed(poly):  # Horner's rule of its own: Keel's side uses poly_eval
            value = value * q + c
        value *= mult
        count += value
        edge_sum += edges * value
    return count, edge_sum


# ---------------------------------------------------------------------------
# explicit orbit counting over tiny prime fields

@lru_cache(maxsize=None)
def _fixed_point_counts(p: int) -> tuple:
    """Entry F counts the invertible 2x2 matrices over F_p that fix exactly F
    points of P^1(F_p).  z -> (az + b)/(cz + d) fixes oo iff c = 0, and a
    finite z iff c z^2 + (d - a) z - b = 0 mod p, a root that an invertible
    matrix never sends to oo."""
    counts = [0] * (p + 2)
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            counts[(c == 0) + sum((c * z * z + (d - a) * z - b) % p == 0 for z in range(p))] += 1
    return tuple(counts)


def orbit_count_direct(n: int, q: int) -> int:
    """Count n-tuples of distinct points on P^1(F_q) up to PGL2(F_q).

    Brute force by Burnside's lemma over GL2(F_q), of order
    (q^2 - 1)(q^2 - q), whose scalars act trivially: a matrix that fixes F
    points fixes F(F-1)...(F-k+1) ordered k-tuples of distinct points.  At
    k >= 3 only the q - 1 scalars fix one, so the walk is tested by k = 1
    and k = 2, which must each give one orbit; ArithmeticError is raised if
    they do not, or if k = n leaves a remainder.  Prime q only, q <= 7.
    """
    # both types before n's range, so a call with two bad arguments names n
    require_int("n", n)
    require_int("q", q)
    require_size("n", n, 3)
    if not is_prime(q):
        raise ValueError(
            "explicit orbit enumeration supports prime fields only, not q = %d" % q
        )
    if q > ORBIT_GUARD_MAX_Q:
        raise ValueError(
            "resource guard: explicit orbit enumeration is capped at q <= %d"
            % ORBIT_GUARD_MAX_Q
        )
    counts, group = _fixed_point_counts(q), (q * q - 1) * (q * q - q)
    one, two, orbits = (divmod(sum(m * perm(f, k) for f, m in enumerate(counts)), group)
                        for k in (1, 2, n))
    if one != (1, 0) or two != (1, 0) or orbits[1]:
        raise ArithmeticError("GL2(F_%d) orbits, remainder at k = 1, 2, %d: %r"
                              % (q, n, (one, two, orbits)))
    return orbits[0]
