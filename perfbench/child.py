"""One benchmark child process: import m0nbar, run one step, print JSON.

Usage: python3 perfbench/child.py '<job>'

where <job> is {"step": name, "args": {...}, "trace": 0 or 1}.  The child
prints one JSON object: the step's wall time from the first call after
`import m0nbar` to the last result, the wall and CPU time of each lap (one
call, or one small group of calls, a user makes), its peak RSS at that
moment, a summary of the results for the parent to check, and the spans it
recorded.

Layers are timed from outside, around calls to m0nbar's public functions;
nothing here reaches into private helpers or cache statistics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from math import factorial

import m0nbar  # noqa: F401  (set-up cost ends here)
from m0nbar import algebra, cli, forget, getzler, keel, strata, zeta

CLI_FORMATS = ("plain", "json", "csv", "latex")


class Tracer:
    """Spans (name, start, end, parent) kept in memory, printed at exit,
    and laps, which are timed whether tracing is on or off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.laps = []
        self._open = []

    @contextlib.contextmanager
    def lap(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.laps.append((time.perf_counter() - wall, time.process_time() - cpu))

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report_record(r):
    return [r.identity, r.parameters, r.lhs, r.rhs, r.passed]


def _series_record(s):
    return [[str(c) for c in poly] for poly in s.coeffs]


# ---------------------------------------------------------------------------
# workload steps: each run_* makes the calls a user makes and returns the raw
# results; its summarise_* turns them into JSON after the clock has stopped.

def run_verify_all(tr):
    with tr.lap(), tr.span("cli.verify_all"):
        return _cli(["verify", "all"])


def summarise_verify_all(raw):
    code, text = raw
    lines = text.splitlines()
    return {
        "code": code,
        "pass": sum(1 for line in lines if line.startswith("PASS  ")),
        "fail": sum(1 for line in lines if line.startswith("FAIL  ")),
        "last": lines[-1] if lines else "",
    }


def run_strata(tr, n, q):
    with tr.lap(), tr.span("cli.strata"):
        return _cli(["strata", "--n", str(n), "--q", str(q)])


def summarise_strata(raw):
    code, text = raw
    lines = text.splitlines()
    last = lines[-1].split() if lines else []
    return {
        "code": code,
        "header": lines[0].split() if lines else [],
        "rows": len(lines) - 2,
        "total": int(last[-1]) if last and last[0] == "TOTAL" else None,
    }


def run_keel_deep(tr, n, primes):
    # rows in rising order, so that each call builds one more row
    rows, counts, reports = [], [], []
    with tr.span("keel.rows"):
        for k in range(3, n + 1):
            with tr.lap():
                rows.append(keel.poincare_poly(k))
    with tr.span("keel.point_count"):
        for p in primes:
            with tr.lap():
                counts.append(keel.point_count(n, p))
    with tr.span("zeta.verify"):
        for p in primes:
            with tr.lap():
                reports.extend(zeta.verify_zeta_counts(n, p, 1))
    return rows, counts, reports


def summarise_keel_deep(raw):
    rows, counts, reports = raw
    return {
        "rows": [list(r) for r in rows],
        "counts": counts,
        "reports": [_report_record(r) for r in reports],
    }


def run_queries(tr, n, qs, orders):
    with tr.lap(), tr.span("strata.table"):
        tables = {m: strata.strata_table(m) for m in range(3, n + 1)}
    evals, lemmas, breakdowns = [], [], []
    sizes = range(3, n + 1)
    for q in qs:
        with tr.lap(), tr.span("strata.count_eval"):
            stratified = [(strata.stratified_count(m, q), strata.boundary_edge_sum(m, q))
                          for m in sizes]
        with tr.lap(), tr.span("keel.point_count"):
            counts = [keel.point_count(m, q) for m in sizes]
        evals.extend((m, q, s, b, c) for m, (s, b), c in zip(sizes, stratified, counts))
        with tr.lap(), tr.span("forget.lemmas"):
            for m in range(3, n):
                lemmas.append(forget.verify_lemma3(m, q))
                if m >= 4:
                    lemmas.append(forget.verify_lemma4(m, q))
                lemmas.append(forget.verify_fiber_sum(m, q))
            breakdowns.append(
                (q, [forget.fiber_size_breakdown(row.tree, q) for row in tables[n - 1]])
            )
    series = []
    for order in orders:
        with tr.lap(), tr.span("getzler.series"):
            f, g = getzler.series_f(order), getzler.series_g(order)
            dims = getzler.open_homology_dims(order)
        with tr.lap(), tr.span("algebra.compose"):
            fg, gf = algebra.series_compose(f, g), algebra.series_compose(g, f)
        with tr.lap(), tr.span("getzler.verify"):
            lemmas.extend(getzler.verify_inverse(order))
        series.append((order, fg, gf, dims))
    return tables, evals, lemmas, breakdowns, series


def summarise_queries(raw):
    tables, evals, lemmas, breakdowns, series = raw
    return {
        "table_sizes": {str(m): len(t) for m, t in tables.items()},
        "evals": [list(e) for e in evals],
        "reports": [_report_record(r) for r in lemmas],
        # per q: [k(rho), largest valence, breakdown or None, how many trees]
        "breakdowns": [
            [q, [list(key) + [count] for key, count in Counter(
                (row.edge_count, max(row.tree.valences()), None if b is None else
                 (b.k_rho, b.q, b.same_component, b.leg_sprouts, b.node_sprouts, b.total))
                for row, b in zip(tables[max(tables) - 1], found)).items()]]
            for q, found in breakdowns
        ],
        "series": [[order, _series_record(fg), _series_record(gf), list(d.dims)]
                   for order, fg, gf, d in series],
    }


# ---------------------------------------------------------------------------
# the layer probe: in a traced unit, one cold process calls each layer in
# turn with the workload's sizes, so every layer gets its own span and its
# counters.  Strata come first so that the RSS reading covers enumeration
# alone, and Keel rows before anything that would build them as a side
# effect.

def run_probe(tr, keel_n, strata_n, render_q, orbit, recurrence, reads_q,
              orders, point_count, zeta_cases, prime_check):
    out = {}
    with tr.span("strata.enumerate"):
        trees = {m: strata.enumerate_stable_trees(m) for m in range(3, strata_n + 1)}
    out["strata.enumerate_rss_mb"] = _peak_rss_mb()
    with tr.span("keel.rows"):
        rows = [keel.poincare_poly(m) for m in range(keel_n, 2, -1)]
    with tr.span("strata.table"):
        tables = [strata.strata_table(m) for m in range(3, strata_n + 1)]
    with tr.span("strata.serial"):
        for row in tables[-1]:
            strata.tree_serial(row.tree)
    with tr.span("cli.strata_render"):
        codes = [_cli(["strata", "--n", str(strata_n), "--q", str(render_q),
                       "--format", fmt])[0] for fmt in CLI_FORMATS]
    with tr.span("strata.orbit"):
        for m, q in orbit:
            strata.orbit_count_direct(m, q)
    with tr.span("keel.recurrence_check"):
        for m, q in recurrence:
            keel.verify_count_recurrence(m, q)
    with tr.span("strata.count_eval"):
        for q in reads_q:
            for m in range(3, strata_n + 1):
                strata.stratified_count(m, q)
                strata.boundary_edge_sum(m, q)
    with tr.span("forget.lemmas"):
        for q in reads_q:
            for m in range(3, strata_n):
                forget.verify_lemma3(m, q)
                if m >= 4:
                    forget.verify_lemma4(m, q)
                forget.verify_fiber_sum(m, q)
    for order in orders:
        with tr.span("getzler.series"):
            f, g = getzler.series_f(order), getzler.series_g(order)
            getzler.open_homology_dims(order)
        with tr.span("algebra.compose"):
            algebra.series_compose(f, g)
            algebra.series_compose(g, f)
    with tr.span("keel.point_count"):
        for m, q in point_count:
            keel.point_count(m, q)
    with tr.span("zeta.verify"):
        for m, p, order in zeta_cases:
            zeta.verify_zeta_counts(m, p, order)
    with tr.span("algebra.prime_check"):
        for q in prime_check:
            algebra.require_prime_power(q)
    out.update({
        "trees_by_n": {str(m): len(t) for m, t in trees.items()},
        "strata.trees_kept": sum(len(t) for t in trees.values()),
        "strata.distinct_count_polys": len({row.count_poly for t in tables for row in t}),
        "strata.orbit_configs": sum(
            factorial(q + 1) // factorial(q + 1 - m) for m, q in orbit if m <= q + 1
        ),
        "keel.rows_built": len(rows),
        "keel.max_coeff_bits": max(c.bit_length() for row in rows for c in row),
        "render_codes": codes,
    })
    return out


STEPS = {
    "verify_all": (run_verify_all, summarise_verify_all),
    "strata": (run_strata, summarise_strata),
    "keel_deep": (run_keel_deep, summarise_keel_deep),
    "queries": (run_queries, summarise_queries),
    "probe": (run_probe, lambda raw: raw),
}


def main():
    job = json.loads(sys.argv[1])
    run, summarise = STEPS[job["step"]]
    tracer = Tracer(bool(job["trace"]))
    start = time.perf_counter()
    with tracer.span("step." + job["step"]):
        raw = run(tracer, **job["args"])
    wall = time.perf_counter() - start
    peak = _peak_rss_mb()
    json.dump({"wall_s": wall, "laps": tracer.laps, "peak_rss_mb": peak,
               "result": summarise(raw), "spans": tracer.spans}, sys.stdout)


if __name__ == "__main__":
    main()
