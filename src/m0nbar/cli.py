"""Command-line interface: compute, tabulate, and verify.

Exit codes: 0 success (all verifications pass), 1 verification failure,
2 usage error.  Output is deterministic: identical invocations produce
byte-identical output.  JSON renders counts and coefficients as decimal
strings so downstream consumers never overflow 64-bit integers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from collections import Counter
from functools import reduce
from math import comb, log10

from . import getzler, keel, strata, zeta
from .algebra import (
    is_prime,
    poly_add,
    poly_eval,
    poly_scale,
    poly_str,
    require_order,
    require_prime,
    require_prime_power,
    require_size,
)
from .forget import verify_fiber_sum, verify_lemma3, verify_lemma4
from .report import make_report

FORMATS = ("plain", "json", "csv", "latex")
VERIFY_TARGETS = ("recurrence", "strata", "forget", "getzler", "zeta", "all")
DEFAULT_Q = (2, 3, 4, 5, 7, 8, 9, 11)
# most digits verify zeta may print, counting both sides of every report:
# measured, 10^7 digits (about 10 MB) take 2.5-5 s with the Keel rows
ZETA_DIGITS_BUDGET = 10**7


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_fields(fields, depth) -> str:
    """The lines of the dict fields as _json_text writes them inside depth
    levels of nesting, without the braces."""
    lines = json.dumps(fields, indent=2).split("\n")[1:-1]
    return "\n".join(["  " * depth + line for line in lines])


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _reject_format(fmt: str, command: str, allowed) -> None:
    if fmt not in allowed:
        raise ValueError("format '%s' is not supported by '%s'" % (fmt, command))


# ---------------------------------------------------------------------------
# subcommands; each returns (exit_code, output_text)

def cmd_poincare(args):
    _reject_format(args.format, "poincare", ("plain", "json", "latex"))
    p = keel.poincare_poly(args.n)
    if args.format == "json":
        return 0, _json_text({"n": args.n, "coeffs": [str(c) for c in p]})
    return 0, poly_str(p, "t", power_scale=2, latex=args.format == "latex") + "\n"


def cmd_betti(args):
    allowed = ("plain", "json") if args.k is not None else ("plain", "json", "csv")
    _reject_format(args.format, "betti", allowed)
    if args.k is not None:
        value = keel.betti(args.n, args.k)
        if args.format == "json":
            return 0, _json_text({"n": args.n, "k": args.k, "value": str(value)})
        return 0, "%d\n" % value
    row = keel.poincare_poly(args.n)
    if args.format == "json":
        return 0, _json_text({"n": args.n, "coeffs": [str(c) for c in row]})
    if args.format == "csv":
        return 0, _csv_text(["k", "betti"], [[k, str(c)] for k, c in enumerate(row)])
    return 0, "".join("a_%d(%d) = %d\n" % (k, args.n, c) for k, c in enumerate(row))


def cmd_count(args):
    _reject_format(args.format, "count", ("plain", "json"))
    value = keel.point_count(args.n, args.q)
    if args.format == "json":
        return 0, _json_text({"n": args.n, "q": args.q, "count": str(value)})
    return 0, "%d\n" % value


def cmd_strata(args):
    q = args.q
    if q is not None:
        require_prime_power(q)
    # table_columns refuses n beyond the enumeration bound before any split
    serials, count_polys = strata.table_columns(args.n)
    kinds = Counter(count_polys)
    total_poly = reduce(poly_add, (poly_scale(poly, mult) for poly, mult in kinds.items()))
    # each distinct count polynomial, the total's among them, is evaluated
    # and rendered once per call: its cells end every row it counts
    counts = {p: None if q is None else str(poly_eval(p, q)) for p in [*kinds, total_poly]}
    # every format writes a row as pre + serial, padded to wide, and then the
    # tail line % (vertices, edges, cells); a stratum with V vertices has a
    # count polynomial of degree n - 2 - V, so one tail per polynomial serves
    # every row it counts; rows sep apart between a head and a foot
    fmt, sep, pre, wide = args.format, "\n", "", 0
    polys = {p: poly_str(p, "q", descending=True, latex=fmt == "latex") for p in counts}
    if fmt == "json":
        # a serial is made of digits and "(,;)" only, so it needs no escaping
        cells = {p: _json_fields({"count_poly": [str(c) for c in p], "count": count}, 2)
                 for p, count in counts.items()}
        head = '{\n%s,\n  "strata": [\n' % _json_fields({"n": args.n, "q": q}, 0)
        pre = '    {\n      "tree": "'
        line = '",\n      "vertices": %d,\n      "edges": %d,\n%s\n    }'
        sep = ",\n"
        total = {"total_poly": [str(c) for c in total_poly], "total": counts[total_poly]}
        foot = "\n  ],\n%s\n}\n" % _json_fields(total, 0)
    elif fmt == "latex":
        cells = {p: "$%s$" % polys[p] if count is None else "$%s$ & %s" % (polys[p], count)
                 for p, count in counts.items()}
        cols, last = ("lrrl", "") if q is None else ("lrrlr", " & count at $q=%s$" % q)
        head = ("\\begin{tabular}{%s}\ntree & vertices & $k(\\rho)$ & count polynomial%s \\\\\n"
                % (cols, last))
        pre, line = "\\verb|", "| & %d & %d & %s \\\\"
        foot = "\ntotal &  &  & %s \\\\\n\\end{tabular}\n" % cells[total_poly]
    elif fmt == "csv":
        # every serial holds a comma and never a quote, so it is quoted as is
        cells = {p: polys[p] if count is None else "%s,%s" % (polys[p], count)
                 for p, count in counts.items()}
        head = "tree,vertices,edges,count_poly%s\n" % ("" if q is None else ",count")
        pre, line = '"', '",%d,%d,%s'
        foot = "\nTOTAL,,,%s\n" % cells[total_poly]
    else:
        # columns two spaces apart, each as wide as its widest cell; no vertex
        # or edge count has as many digits as its header has letters
        wide = max(len("TOTAL"), max(map(len, serials)))
        cells, last = polys, "count_poly"
        if q is not None:
            poly_wide = max(len(last), *map(len, polys.values()))
            cells = {p: "%-*s  %s" % (poly_wide, polys[p], count) for p, count in counts.items()}
            last = "%-*s  count(q=%s)" % (poly_wide, last, q)
        head = "%-*s  vertices  edges  %s\n" % (wide, "tree", last)
        line = "  %8d  %5d  %s"
        foot = "\n%-*s  %8s  %5s  %s\n" % (wide, "TOTAL", "", "", cells[total_poly])
    tails = {p: line % (args.n - 1 - len(p), args.n - 2 - len(p), cells[p]) for p in kinds}
    rows = [(pre + serial).ljust(wide) + tails[p] for serial, p in zip(serials, count_polys)]
    # the head and foot join the first and last rows, so the text is built
    # by one join: head + sep.join(rows) + foot would copy it twice more
    rows[0] = head + rows[0]
    rows[-1] += foot
    return 0, sep.join(rows)


def cmd_zeta(args):
    require_prime(args.p)
    if args.order is not None:
        require_order(args.order, 1, zeta.ZETA_ORDER_GUARD)
    z = zeta.zeta_moduli(args.n, args.p)
    # the point counts over F_{p^r} for r = 1..order
    counts = [] if args.order is None else zeta.log_derivative_series(z, args.order)[1:]
    if args.format == "json":
        payload = {"n": args.n, **zeta.zeta_record(z)}
        if counts:
            payload["series"] = [str(c) for c in counts]
        return 0, _json_text(payload)
    if args.format == "csv":
        if counts:
            return 0, _csv_text(["r", "count"], [[r, str(c)] for r, c in enumerate(counts, 1)])
        return 0, _csv_text(["j", "exponent"], [[j, e] for j, e in z.factors])
    lines = [zeta.zeta_str(z, latex=args.format == "latex")]
    lines.extend("T^%d %s" % (r, c) for r, c in enumerate(counts, 1))
    return 0, "\n".join(lines) + "\n"


def cmd_getzler(args):
    order = args.order if args.order is not None else 8
    # the ordinary coefficients [x^n], printed as Fractions; series_f
    # refuses a bad order first
    f, g = ([getzler.ordinary_coeff(series, n) for n in range(order + 1)]
            for series in (getzler.series_f(order), getzler.series_g(order)))
    if args.format == "json":
        return 0, _json_text({"order": order, "f": [[str(c) for c in p] for p in f],
                              "g": [[str(c) for c in p] for p in g]})
    if args.format == "csv":
        rows = [[n, poly_str(a, "s"), poly_str(b, "s")] for n, (a, b) in enumerate(zip(f, g))]
        return 0, _csv_text(["n", "f_coeff", "g_coeff"], rows)
    latex = args.format == "latex"
    lines = []
    for name, coeffs in (("f", f), ("g", g)):
        lines.append("%s(x):" % name)
        lines.extend("  x^%d: %s" % (n, poly_str(c, "s", latex=latex))
                     for n, c in enumerate(coeffs))
    return 0, "\n".join(lines) + "\n"


def _parse_q_list(text) -> tuple:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError("bad q list %r, expected comma-separated integers" % text)
    if not values:
        raise ValueError("empty q list")
    return values


def _zeta_digits(ps, order: int, top: int) -> float:
    """An upper bound on the digits verify zeta prints, both sides of every
    report, for the primes ps, r <= order and 3 <= n <= top.

    Every coefficient of P_n is positive, so P_n(p^r) <= P_n(1) p^(r (n-3))
    has at most log10 P_n(1) + r (n-3) log10 p + 1 digits.  The P_n(1) come
    from Keel's recurrence at s = 1 in integers, so no Keel row is built:
    P_{m+1}(1) = 2 P_m(1) + (1/2) sum_{j=2}^{m-2} C(m,j) P_{j+1}(1) P_{m-j+1}(1).
    """
    sums = {3: 1}
    for m in range(3, top):
        pairs = sum(comb(m, j) * sums[j + 1] * sums[m - j + 1] for j in range(2, m - 1))
        sums[m + 1] = 2 * sums[m] + pairs // 2
    leading = sum(map(log10, ps)) * order * (order + 1) / 2 * (top - 3) * (top - 2) / 2
    return 2 * (leading + len(ps) * order * sum(log10(e) + 1 for e in sums.values()))


def _verify_reports(target, max_n, qs, order):
    runs = {name for name in VERIFY_TARGETS if target in (name, "all")}
    # refuse every bad argument before the first report is computed; strata
    # and forget read the stratum census, forget at n+1, and recurrence and
    # zeta read Keel rows up to max-n
    census_tops = {"strata": max_n, "forget": max_n + 1} if max_n is not None else {}
    for name, top in census_tops.items():
        if name in runs and top > strata.CENSUS_MAX_N:
            raise ValueError("max-n %d needs the stratum census at n = %d, beyond its guard (%d)"
                             % (max_n, top, strata.CENSUS_MAX_N))
    if max_n is not None and runs & {"recurrence", "zeta"} and max_n > keel.KEEL_MAX_N:
        raise ValueError("max-n %d exceeds the Keel row bound (%d)" % (max_n, keel.KEEL_MAX_N))
    if qs is not None and runs & {"recurrence", "strata", "forget"}:
        for q in qs:
            require_prime_power(q)
    zeta_depth = order if order is not None else 6
    # under "all" the q list also feeds the checks that take prime powers, so
    # zeta runs on the primes in it, or on its default when it holds none
    zeta_ps = qs if qs is not None else ()
    if target == "all":
        zeta_ps = tuple(filter(is_prime, zeta_ps))
    zeta_ps = zeta_ps or (2, 3)
    getzler_depth = order if order is not None else 8
    zeta_top = max_n if max_n is not None else 6
    if "zeta" in runs:
        require_order(zeta_depth, 1, zeta.ZETA_ORDER_GUARD)
        for p in zeta_ps:
            require_prime(p)
        digits = _zeta_digits(zeta_ps, zeta_depth, zeta_top)
        if digits > ZETA_DIGITS_BUDGET:
            raise ValueError("verify zeta would print about %.3g digits, beyond its budget of %.0e"
                             % (digits, ZETA_DIGITS_BUDGET))
    if "getzler" in runs:
        require_order(getzler_depth, 2, getzler.SERIES_ORDER_GUARD)

    reports = []
    if "recurrence" in runs:
        top = max_n if max_n is not None else 8
        for q in qs if qs is not None else DEFAULT_Q:
            reports.extend(keel.verify_count_recurrence(top, q))
    if "strata" in runs:
        top = max_n if max_n is not None else 7
        q_list = qs if qs is not None else DEFAULT_Q
        for q in q_list:
            for n in range(3, top + 1):
                reports.append(make_report("cross-oracle", {"n": n, "q": q},
                                           strata.stratified_count(n, q), keel.point_count(n, q)))
        for q in q_list:
            if is_prime(q) and q <= strata.ORBIT_GUARD_MAX_Q:
                for n in range(3, min(top, q + 1) + 1):
                    reports.append(make_report("orbit-oracle", {"n": n, "q": q},
                                               strata.orbit_count_direct(n, q),
                                               poly_eval(strata.open_stratum_poly(n), q)))
    if "forget" in runs:
        top = max_n if max_n is not None else 7
        q_list = qs if qs is not None else (2, 3, 4, 5, 7, 8, 9)
        for q in q_list:
            for n in range(3, top + 1):
                reports.append(verify_lemma3(n, q))
                if n >= 4:
                    reports.append(verify_lemma4(n, q))
                reports.append(verify_fiber_sum(n, q))
    if "zeta" in runs:
        for p in zeta_ps:
            for n in range(3, zeta_top + 1):
                reports.extend(zeta.verify_zeta_counts(n, p, zeta_depth))
    if "getzler" in runs:
        reports.extend(getzler.verify_inverse(getzler_depth))
    return reports


def cmd_verify(args):
    _reject_format(args.format, "verify", ("plain", "json", "csv"))
    qs = _parse_q_list(args.q) if args.q is not None else None
    least = 4 if args.target in ("recurrence", "all") else 3  # recurrence starts at n = 4
    if args.max_n is not None:
        require_size("max-n", args.max_n, least)
    reports = _verify_reports(args.target, args.max_n, qs, args.order)
    failed = sum(not r.passed for r in reports)
    code = 1 if failed else 0
    if args.format == "json":
        return code, _json_text({"reports": [r.as_record() for r in reports], "pass": not failed})
    if args.format == "csv":
        rows = [[r.identity, r.params(), r.lhs, r.rhs, "pass" if r.passed else "fail"]
                for r in reports]
        return code, _csv_text(["identity", "parameters", "lhs", "rhs", "result"], rows)
    lines = [r.line() for r in reports]
    if failed:
        lines.append("FAIL: %d of %d identities failed" % (failed, len(reports)))
    else:
        lines.append("PASS: all %d identities hold" % len(reports))
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default: plain)")
    common.add_argument("--output", metavar="FILE", default=None,
                        help="write output to FILE instead of stdout")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--n", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="m0nbar",
        description="Poincare polynomials, finite-field point counts, and "
                    "identity verification for the moduli spaces of stable "
                    "n-pointed genus-zero curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poincare", parents=[common, sized],
                       help="Poincare polynomial of Mbar_{0,n}")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("betti", parents=[common, sized],
                       help="even Betti numbers b_{2k}(Mbar_{0,n})")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("count", parents=[common, sized],
                       help="number of F_q-points of Mbar_{0,n}")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("strata", parents=[common, sized],
                       help="stable dual trees and per-stratum counts")
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("zeta", parents=[common, sized],
                       help="factored Hasse-Weil zeta function of Mbar_{0,n}")
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


@contextlib.contextmanager
def _unlimited_int_printing():
    """Lift the interpreter's limit on printing an int (4300 digits by
    default, where CPython has one) while a command runs, and restore it.

    Counts outgrow it at valid inputs: zeta --n 175 --p 1009 --order 9
    prints a count of 4650 digits.  The arguments are parsed under the
    limit, before it is lifted.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _unlimited_int_printing():
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
