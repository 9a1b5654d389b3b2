"""Correctness checks that do not trust the code they time.

Reference values come from closed forms, from OEIS, and from the benchmark's
own evaluation of Keel's recurrence on point counts (integers at one q, not
polynomials), which shares no code with m0nbar.  Every check counts towards
the run's `attempted`; every one that fails counts towards `failed`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

# Stable trees with n legs (OEIS A000311, shifted by one).
A000311 = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}


@lru_cache(maxsize=None)
def keel_counts(n_max: int, q: int) -> tuple:
    """P_n(q) = |Mbar_{0,n}(F_q)| for n = 0..n_max (zero below n = 3).

    P_{m+1} = (1+q) P_m + (q/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1};
    the sum is even because the pairing j <-> m-j counts each gluing twice.
    """
    counts = [0] * (n_max + 1)
    counts[3] = 1
    for m in range(3, n_max):
        double = sum(comb(m, j) * counts[j + 1] * counts[m - j + 1] for j in range(2, m - 1))
        if double % 2:
            raise ArithmeticError("odd glued-pair count at m=%d q=%d" % (m, q))
        counts[m + 1] = (1 + q) * counts[m] + q * (double // 2)
    return tuple(counts)


def boundary_sum(n: int, q: int) -> int:
    """sum_rho k(rho) over Mbar_{0,n}(F_q), from P_{n+1} = (q+1) P_n + q sum k."""
    counts = keel_counts(n + 1, q)
    rest = counts[n + 1] - (q + 1) * counts[n]
    if rest % q:
        raise ArithmeticError("boundary sum is not an integer at n=%d q=%d" % (n, q))
    return rest // q


class Tally:
    """Checks attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)


def _check_reports(tally, reports, expected):
    """Each report must pass, and its checked side must equal our own value."""
    for identity, params, lhs, rhs, passed in reports:
        where = "%s %s" % (identity, params)
        tally.check(passed and lhs == rhs, "report failed: %s" % where)
        want = expected(identity, params)
        if want is not None:
            tally.check(want in (lhs, rhs), "%s: expected %s, got %s / %s" % (where, want, lhs, rhs))


def check_verify_all(tally, res, inputs):
    tally.check(res["code"] == 0, "verify all exited %r" % res["code"])
    tally.add(res["pass"] + res["fail"], res["fail"], "verify all printed FAIL lines")
    tally.check(res["last"] == "PASS: all %d identities hold" % res["pass"],
                "verify all summary: %r" % res["last"])


def check_strata(tally, res, inputs):
    n, q = inputs["n"], inputs["q"]
    tally.check(res["code"] == 0, "strata exited %r" % res["code"])
    tally.check(res["header"] == ["tree", "vertices", "edges", "count_poly", "count(q=%d)" % q],
                "strata header %r" % res["header"])
    tally.check(res["rows"] == A000311[n], "strata rows %d != %d" % (res["rows"], A000311[n]))
    want = keel_counts(n, q)[n]
    tally.check(res["total"] == want, "strata TOTAL %r != P_%d(%d) = %d" % (res["total"], n, q, want))


def check_keel_deep(tally, res, inputs):
    n, primes = inputs["n"], inputs["primes"]
    rows = res["rows"]
    tally.check(len(rows) == n - 2, "expected %d Keel rows, got %d" % (n - 2, len(rows)))
    for k, row in enumerate(rows, start=3):
        tally.check(len(row) == k - 2 and row[0] == 1, "row %d has bad shape" % k)
        tally.check(row == row[::-1], "row %d is not palindromic" % k)
        if k >= 4:
            tally.check(row[1] == 2 ** (k - 1) - comb(k, 2) - 1, "row %d: b_2 = %d" % (k, row[1]))
    for p, count in zip(primes, res["counts"]):
        want = keel_counts(n, p)[n]
        horner = 0
        for c in reversed(rows[-1]):
            horner = horner * p + c
        tally.check(count == want, "point_count(%d, %d) is wrong" % (n, p))
        tally.check(horner == want, "row %d evaluated at %d is wrong" % (n, p))
    tally.check(len(res["reports"]) == len(primes), "expected one zeta report per prime")
    _check_reports(tally, res["reports"],
                   lambda identity, params: str(keel_counts(n, params["p"] ** params["r"])[n]))


def check_queries(tally, res, inputs):
    n, qs, orders = inputs["n"], inputs["qs"], inputs["orders"]
    for m in range(3, n + 1):
        size = res["table_sizes"].get(str(m))
        tally.check(size == A000311[m], "strata_table(%d) has %r rows" % (m, size))
    tally.check(len(res["evals"]) == len(qs) * (n - 2), "missing count reads")
    for m, q, stratified, edges, count in res["evals"]:
        want = keel_counts(n, q)[m]
        tally.check(stratified == want, "stratified_count(%d, %d) is wrong" % (m, q))
        tally.check(count == want, "point_count(%d, %d) is wrong" % (m, q))
        tally.check(edges == boundary_sum(m, q), "boundary_edge_sum(%d, %d) is wrong" % (m, q))

    def expected(identity, params):
        if identity in ("lemma3", "fiber-sum"):
            return str(keel_counts(n, params["q"])[params["n"] + 1])
        if identity == "lemma4":
            return str(boundary_sum(params["n"], params["q"]))
        return None

    tally.check(len(res["reports"]) == len(qs) * (3 * (n - 3) - 1) + 2 * len(orders),
                "wrong number of identity reports")
    _check_reports(tally, res["reports"], expected)
    for q, kinds in res["breakdowns"]:
        tally.check(sum(kind[3] for kind in kinds) == A000311[n - 1], "breakdowns missing at q=%d" % q)
        for k, top, parts, trees in kinds:
            if top > q + 1:
                ok = parts is None
            else:
                ok = (parts is not None and parts[0] == k and parts[5] == (q + 1) + q * k
                      and parts[2] + parts[3] + parts[4] == parts[5])
            tally.add(trees, 0 if ok else trees, "fiber_size_breakdown(k=%d, q=%d) = %r" % (k, q, parts))
    for order, fg, gf, dims in res["series"]:
        x = [[] for _ in range(order + 1)]
        x[1] = ["1"]
        tally.check(fg == x and gf == x, "f and g are not inverse at order %d" % order)
        tally.check(len(dims) == order - 1 and min(dims) >= 0 and sum(dims) == factorial(order) // 2,
                    "open_homology_dims(%d) = %r" % (order, dims))


def check_probe(tally, res, inputs):
    for m, size in res["trees_by_n"].items():
        tally.check(size == A000311[int(m)], "enumerate_stable_trees(%s) gave %d trees" % (m, size))
    tally.check(res["render_codes"] == [0, 0, 0, 0], "strata rendering exited %r" % res["render_codes"])


CHECKS = {
    "probe": check_probe,
    "verify_all": check_verify_all,
    "strata": check_strata,
    "keel_deep": check_keel_deep,
    "queries": check_queries,
}


def identities(step: str, res) -> tuple:
    """(identity reports seen, reports failed) in one step's results."""
    if step == "verify_all":
        return res["pass"] + res["fail"], res["fail"]
    if step in ("keel_deep", "queries"):
        return len(res["reports"]), sum(1 for r in res["reports"] if not r[4])
    return 0, 0
