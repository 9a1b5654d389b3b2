"""Command-line interface: compute, tabulate, and verify.

Exit codes: 0 success (all verifications pass), 1 verification failure,
2 usage error.  Output is deterministic: identical invocations produce
byte-identical output.  JSON renders counts and coefficients as decimal
strings so downstream consumers never overflow 64-bit integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter

from . import getzler, keel, strata, zeta
from .algebra import (
    is_prime,
    poly_add,
    poly_eval,
    poly_scale,
    poly_str,
    require_prime,
    require_prime_power,
)
from .forget import verify_fiber_sum, verify_lemma3, verify_lemma4
from .report import all_pass, make_report

FORMATS = ("plain", "json", "csv", "latex")
VERIFY_TARGETS = ("recurrence", "strata", "forget", "getzler", "zeta", "all")
DEFAULT_Q = (2, 3, 4, 5, 7, 8, 9, 11)
SERIES_ORDER_GUARD = 10


def _strata_guard() -> int:
    raised = os.environ.get("M0NBAR_STRATA_MAX_N")
    return int(raised) if raised else 8


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _reject_format(fmt: str, command: str, allowed) -> None:
    if fmt not in allowed:
        raise ValueError("format '%s' is not supported by '%s'" % (fmt, command))


def _require_n(n: int, minimum: int = 3) -> None:
    if n < minimum:
        raise ValueError("n must be >= %d" % minimum)


# ---------------------------------------------------------------------------
# subcommands; each returns (exit_code, output_text)

def cmd_poincare(args):
    _require_n(args.n)
    p = keel.poincare_poly(args.n)
    _reject_format(args.format, "poincare", ("plain", "json", "latex"))
    if args.format == "json":
        return 0, _json_text({"n": args.n, "coeffs": [str(c) for c in p]})
    latex = args.format == "latex"
    return 0, poly_str(p, "t", power_scale=2, latex=latex) + "\n"


def cmd_betti(args):
    _require_n(args.n)
    row = keel.poincare_poly(args.n)
    if args.k is not None:
        _reject_format(args.format, "betti", ("plain", "json"))
        value = keel.betti(args.n, args.k)
        if args.format == "json":
            return 0, _json_text({"n": args.n, "k": args.k, "value": str(value)})
        return 0, "%d\n" % value
    _reject_format(args.format, "betti", ("plain", "json", "csv"))
    if args.format == "json":
        return 0, _json_text({"n": args.n, "coeffs": [str(c) for c in row]})
    if args.format == "csv":
        return 0, _csv_text(["k", "betti"], [[k, str(c)] for k, c in enumerate(row)])
    return 0, "".join("a_%d(%d) = %d\n" % (k, args.n, c) for k, c in enumerate(row))


def cmd_count(args):
    _require_n(args.n)
    value = keel.point_count(args.n, args.q)
    _reject_format(args.format, "count", ("plain", "json"))
    if args.format == "json":
        return 0, _json_text({"n": args.n, "q": args.q, "count": str(value)})
    return 0, "%d\n" % value


def cmd_strata(args):
    _require_n(args.n)
    if args.n > _strata_guard():
        raise ValueError(
            "n = %d exceeds the stratum enumeration guard (%d); "
            "set M0NBAR_STRATA_MAX_N to raise it" % (args.n, _strata_guard())
        )
    if args.q is not None:
        require_prime_power(args.q)
    table = strata.strata_table(args.n)
    kinds = Counter(row.count_poly for row in table)
    total_poly = ()
    for poly, mult in kinds.items():
        total_poly = poly_add(total_poly, poly_scale(poly, mult))
    # each distinct count polynomial is evaluated, and rendered, once per call
    counts = {p: str(poly_eval(p, args.q)) for p in kinds} if args.q is not None else None
    rows = [(strata.tree_serial(row.tree), row.tree.vertex_count, row.edge_count, row.count_poly)
            for row in table]
    total = strata.stratified_count(args.n, args.q) if args.q is not None else None

    if args.format == "json":
        coeffs = {p: [str(c) for c in p] for p in kinds}
        payload = {
            "n": args.n,
            "q": args.q,
            "strata": [
                {
                    "tree": tree,
                    "vertices": vertices,
                    "edges": edges,
                    "count_poly": coeffs[poly],
                    "count": None if counts is None else counts[poly],
                }
                for tree, vertices, edges, poly in rows
            ],
            "total_poly": [str(c) for c in total_poly],
            "total": None if total is None else str(total),
        }
        return 0, _json_text(payload)

    latex = args.format == "latex"
    texts = {p: poly_str(p, "q", descending=True, latex=latex) for p in [*kinds, total_poly]}

    if args.format == "csv":
        header = ["tree", "vertices", "edges", "count_poly"]
        if args.q is not None:
            header.append("count")
        out = []
        for tree, vertices, edges, poly in rows:
            line = [tree, vertices, edges, texts[poly]]
            if args.q is not None:
                line.append(counts[poly])
            out.append(line)
        totals = ["TOTAL", "", "", texts[total_poly]]
        if args.q is not None:
            totals.append(str(total))
        out.append(totals)
        return 0, _csv_text(header, out)

    lines = []
    if latex:
        cols = "lrrl" + ("r" if args.q is not None else "")
        lines.append(r"\begin{tabular}{%s}" % cols)
        head = ["tree", "vertices", r"$k(\rho)$", "count polynomial"]
        if args.q is not None:
            head.append("count at $q=%d$" % args.q)
        lines.append(" & ".join(head) + r" \\")
        for tree, vertices, edges, poly in rows:
            cells = [r"\verb|%s|" % tree, str(vertices), str(edges), "$%s$" % texts[poly]]
            if args.q is not None:
                cells.append(counts[poly])
            lines.append(" & ".join(cells) + r" \\")
        totals = ["total", "", "", "$%s$" % texts[total_poly]]
        if args.q is not None:
            totals.append(str(total))
        lines.append(" & ".join(totals) + r" \\")
        lines.append(r"\end{tabular}")
        return 0, "\n".join(lines) + "\n"

    width = max(len("TOTAL"), max(len(r[0]) for r in rows))
    pwidth = max(len("count_poly"), max(len(t) for t in texts.values()))
    head = "%-*s  %8s  %5s  %-*s" % (width, "tree", "vertices", "edges", pwidth, "count_poly")
    if args.q is not None:
        head += "  count(q=%d)" % args.q
    lines.append(head.rstrip())
    for tree, vertices, edges, poly in rows:
        line = "%-*s  %8d  %5d  %-*s" % (width, tree, vertices, edges, pwidth, texts[poly])
        if args.q is not None:
            line += "  " + counts[poly]
        lines.append(line.rstrip())
    total_line = "%-*s  %8s  %5s  %-*s" % (width, "TOTAL", "", "", pwidth, texts[total_poly])
    if args.q is not None:
        total_line += "  %d" % total
    lines.append(total_line.rstrip())
    return 0, "\n".join(lines) + "\n"


def cmd_zeta(args):
    _require_n(args.n)
    require_prime(args.p)
    z = zeta.zeta_moduli(args.n, args.p)
    series = None
    if args.order is not None:
        if args.order < 1:
            raise ValueError("order must be >= 1")
        series = zeta.log_derivative_series(z, args.order)
    if args.format == "json":
        payload = {"n": args.n, **zeta.zeta_record(z)}
        if series is not None:
            payload["series"] = [str(series.coeffs[r]) for r in range(1, args.order + 1)]
        return 0, _json_text(payload)
    if args.format == "csv":
        if series is not None:
            return 0, _csv_text(
                ["r", "count"],
                [[r, str(series.coeffs[r])] for r in range(1, args.order + 1)],
            )
        return 0, _csv_text(["j", "exponent"], [[j, e] for j, e in z.factors])
    latex = args.format == "latex"
    lines = [zeta.zeta_str(z, latex=latex)]
    if series is not None:
        for r in range(1, args.order + 1):
            lines.append("T^%d %s" % (r, series.coeffs[r]))
    return 0, "\n".join(lines) + "\n"


def cmd_getzler(args):
    order = args.order if args.order is not None else 8
    if not 2 <= order <= SERIES_ORDER_GUARD:
        raise ValueError("order must be between 2 and %d" % SERIES_ORDER_GUARD)
    f = getzler.series_f(order)
    g = getzler.series_g(order)
    if args.format == "json":
        payload = {
            "order": order,
            "f": [[str(c) for c in p] for p in f.coeffs],
            "g": [[str(c) for c in p] for p in g.coeffs],
        }
        return 0, _json_text(payload)
    if args.format == "csv":
        rows = [
            [n, poly_str(f.coeffs[n], "s"), poly_str(g.coeffs[n], "s")]
            for n in range(order + 1)
        ]
        return 0, _csv_text(["n", "f_coeff", "g_coeff"], rows)
    latex = args.format == "latex"
    lines = []
    for name, series in (("f", f), ("g", g)):
        lines.append("%s(x):" % name)
        for n in range(order + 1):
            lines.append("  x^%d: %s" % (n, poly_str(series.coeffs[n], "s", latex=latex)))
    return 0, "\n".join(lines) + "\n"


def _parse_q_list(text) -> tuple:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError("bad q list %r, expected comma-separated integers" % text)
    if not values:
        raise ValueError("empty q list")
    return values


def _verify_reports(target, max_n, qs, order):
    # strata and forget read the stratum census, forget at n+1; refuse a
    # max-n past its guard before any report is computed
    census_tops = {"strata": max_n, "forget": max_n + 1} if max_n is not None else {}
    for name, top in census_tops.items():
        if target in (name, "all") and top > strata.CENSUS_MAX_N:
            raise ValueError(
                "max-n %d needs the stratum census at n = %d, beyond its guard (%d)"
                % (max_n, top, strata.CENSUS_MAX_N)
            )
    reports = []
    if target in ("recurrence", "all"):
        top = max_n if max_n is not None else 8
        for q in qs if qs is not None else DEFAULT_Q:
            reports.extend(keel.verify_count_recurrence(top, q))
    if target in ("strata", "all"):
        top = max_n if max_n is not None else 7
        q_list = qs if qs is not None else DEFAULT_Q
        for q in q_list:
            for n in range(3, top + 1):
                reports.append(_cross_oracle_report(n, q))
        for q in q_list:
            if is_prime(q) and q <= strata.ORBIT_GUARD_MAX_Q:
                for n in range(3, min(top, q + 1) + 1):
                    reports.append(_orbit_report(n, q))
    if target in ("forget", "all"):
        top = max_n if max_n is not None else 7
        q_list = qs if qs is not None else (2, 3, 4, 5, 7, 8, 9)
        for q in q_list:
            for n in range(3, top + 1):
                reports.append(verify_lemma3(n, q))
                if n >= 4:
                    reports.append(verify_lemma4(n, q))
                reports.append(verify_fiber_sum(n, q))
    if target in ("zeta", "all"):
        top = max_n if max_n is not None else 6
        depth = order if order is not None else 6
        if not 1 <= depth <= SERIES_ORDER_GUARD:
            raise ValueError("order must be between 1 and %d" % SERIES_ORDER_GUARD)
        p_list = qs if qs is not None else (2, 3)
        for p in p_list:
            require_prime(p)
            for n in range(3, top + 1):
                reports.extend(zeta.verify_zeta_counts(n, p, depth))
    if target in ("getzler", "all"):
        depth = order if order is not None else 8
        if not 2 <= depth <= SERIES_ORDER_GUARD:
            raise ValueError("order must be between 2 and %d" % SERIES_ORDER_GUARD)
        reports.extend(getzler.verify_inverse(depth))
    return reports


def _cross_oracle_report(n, q):
    return make_report(
        "cross-oracle", {"n": n, "q": q},
        strata.stratified_count(n, q), keel.point_count(n, q),
    )


def _orbit_report(n, q):
    return make_report(
        "orbit-oracle", {"n": n, "q": q},
        strata.orbit_count_direct(n, q),
        poly_eval(strata.open_stratum_poly(n), q),
    )


def cmd_verify(args):
    _reject_format(args.format, "verify", ("plain", "json", "csv"))
    qs = _parse_q_list(args.q) if args.q is not None else None
    if args.max_n is not None and args.max_n < 3:
        raise ValueError("max-n must be >= 3")
    reports = _verify_reports(args.target, args.max_n, qs, args.order)
    ok = all_pass(reports)
    if args.format == "json":
        payload = {"reports": [r.as_record() for r in reports], "pass": ok}
        return (0 if ok else 1), _json_text(payload)
    if args.format == "csv":
        rows = [
            [
                r.identity,
                " ".join("%s=%s" % kv for kv in r.parameters.items()),
                r.lhs,
                r.rhs,
                "pass" if r.passed else "fail",
            ]
            for r in reports
        ]
        return (0 if ok else 1), _csv_text(["identity", "parameters", "lhs", "rhs", "result"], rows)
    lines = [r.line() for r in reports]
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        lines.append("FAIL: %d of %d identities failed" % (failed, len(reports)))
    else:
        lines.append("PASS: all %d identities hold" % len(reports))
    return (0 if ok else 1), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default: plain)")
    common.add_argument("--output", metavar="FILE", default=None,
                        help="write output to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="m0nbar",
        description="Poincare polynomials, finite-field point counts, and "
                    "identity verification for the moduli spaces of stable "
                    "n-pointed genus-zero curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poincare", parents=[common],
                       help="Poincare polynomial of Mbar_{0,n}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("betti", parents=[common],
                       help="even Betti numbers b_{2k}(Mbar_{0,n})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("count", parents=[common],
                       help="number of F_q-points of Mbar_{0,n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("strata", parents=[common],
                       help="stable dual trees and per-stratum counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("zeta", parents=[common],
                       help="factored Hasse-Weil zeta function of Mbar_{0,n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, default=None,
                   help="also print point counts over F_{p^r} for r = 1..order")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("getzler", parents=[common],
                       help="the inverse pair of moduli generating functions")
    p.add_argument("--order", type=int, default=None,
                   help="highest power of x to keep (default 8)")
    p.set_defaults(func=cmd_getzler)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite; exit 0 iff all identities hold")
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--q", default=None, help="comma-separated q values")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, text = args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.output, exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
