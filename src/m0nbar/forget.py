"""Fiber counts of the point-forgetting map and the counting identities they
drive.

Forgetting the last of n+1 marked points (and contracting any component made
unstable) maps Mbar_{0,n+1}(F_q) onto Mbar_{0,n}(F_q).  Over a curve with
k(rho) nodes the fiber has exactly (q+1) + q*k(rho) points, which aggregates
over strata into the two lemmas verified here:

    lemma3:  |Mbar_{0,n+1}| = (q+1) |Mbar_{0,n}| + q * sum_rho k(rho)
    lemma4:  sum_rho k(rho) = (1/2) sum_{j=2}^{n-2} C(n,j)
                              |Mbar_{0,j+1}| |Mbar_{0,n-j+1}|

Everything is checked as counting identities aggregated over strata; there
is no curve-by-curve construction of the map itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .algebra import poly_eval, require_int, require_prime_power, require_size
from .keel import glued_pair_count
from .report import VerificationReport, make_report
from .strata import DualTree, boundary_edge_sum, stratified_count, stratum_census


def fiber_size(k_rho: int, q: int) -> int:
    """Number of preimages of a curve with k_rho nodes: (q+1) + q*k_rho.

    k_rho = 0 is the one-component (interior) case, where the forgotten
    point sits at one of the q+1-n free points of the line or sprouts a new
    component at one of the n marked points.
    """
    require_size("k_rho", k_rho, 0)
    require_prime_power(q)
    return (q + 1) + q * k_rho


class FiberBreakdown(NamedTuple):
    """The three addends of the fiber count over one stratum's curves."""
    k_rho: int
    q: int
    same_component: int   # unmarked smooth points available on the curve
    leg_sprouts: int      # new component at one of the n marked points
    node_sprouts: int     # new component at one of the k_rho nodes
    total: int


def fiber_size_breakdown(tree: DualTree, q: int):
    """Split fiber_size(k, q) the way the fiber itself splits, or None.

    Returns None (the empty-stratum marker) when some vertex valence
    exceeds q+1: such a component cannot hold its special points over F_q,
    the stratum has no F_q-points, and no breakdown is meaningful.  Each
    edge at a vertex leads to at least two legs, so no valence exceeds n,
    and for q + 1 >= n the valences are not read.  The breakdown depends
    on (n, k(rho), q) alone, so _breakdown builds each one once, checking
    q as it does, and every tree of that kind shares it.  It is read
    before q + 1 is taken, so q + 1 never runs on an unchecked q.
    """
    n, k = len(tree.legs), len(tree.edges)
    found = _breakdown(n, k, q)
    if q + 1 < n and max(tree.valences()) > q + 1:
        return None
    return found


@lru_cache(maxsize=4096, typed=True)
def _breakdown(n: int, k: int, q: int) -> FiberBreakdown:
    """The FiberBreakdown of a stratum with n legs and k nodes; the last
    4096 are kept, and a NamedTuple is immutable, so callers share it.

    q is checked here, on a miss; a raise is never cached, so a refused q
    is refused on every call, and the memo is typed, so 9.0, Fraction(9)
    and True are checked as themselves, never answered from an int's entry."""
    require_prime_power(q)
    same = (k + 1) * (q + 1) - n - 2 * k
    return FiberBreakdown(k, q, same, n, k, same + n + k)


def verify_lemma3(n: int, q: int) -> VerificationReport:
    """Check |Mbar_{0,n+1}| = (q+1)|Mbar_{0,n}| + q * sum k(rho), over strata."""
    require_int("n", n)
    lhs = stratified_count(n + 1, q)
    rhs = stratified_count(n, q) * (q + 1) + q * boundary_edge_sum(n, q)
    return make_report("lemma3", {"n": n, "q": q}, lhs, rhs)


def verify_lemma4(n: int, q: int) -> VerificationReport:
    """Check sum k(rho), over the strata, against keel.glued_pair_count(n, q).

    Cutting a curve at one of its k(rho) nodes leaves an unordered pair of
    pointed curves with j+1 and n-j+1 special points, so both sides count
    the pairs (curve, node) over F_q.
    """
    require_size("n", n, 4)
    return make_report("lemma4", {"n": n, "q": q}, boundary_edge_sum(n, q), glued_pair_count(n, q))


def verify_fiber_sum(n: int, q: int) -> VerificationReport:
    """Check sum over strata of (stratum size) * (fiber size) = |Mbar_{0,n+1}|.

    The strata are summed by type: each census entry stands for mult strata
    with the same count polynomial and the same k(rho).
    """
    require_prime_power(q)
    lhs = sum(
        mult * poly_eval(poly, q) * fiber_size(edges, q)
        for (poly, edges), mult in stratum_census(n)
    )
    rhs = stratified_count(n + 1, q)
    return make_report("fiber-sum", {"n": n, "q": q}, lhs, rhs)
