import ast
import csv
import doctest
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from m0nbar import getzler, keel, strata, zeta
from m0nbar.algebra import poly_eval, poly_str
from m0nbar.cli import _zeta_digits, main
from m0nbar.report import make_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poincare_plain(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--n", "6")
    assert code == 0
    assert out == "1 + 16*t^2 + 16*t^4 + t^6\n"
    code, out, _ = run_cli(capsys, "poincare", "--n", "3")
    assert (code, out) == (0, "1\n")


def test_poincare_latex(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--n", "5", "--format", "latex")
    assert code == 0
    assert out == "1 + 5t^{2} + t^{4}\n"


def test_poincare_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "poincare", "--n", "2")
    assert code == 2
    assert "n must be >= 3" in err


def test_poincare_rejects_csv(capsys):
    code, _, err = run_cli(capsys, "poincare", "--n", "4", "--format", "csv")
    assert code == 2
    assert "not supported" in err


def test_count(capsys):
    assert run_cli(capsys, "count", "--n", "5", "--q", "2")[:2] == (0, "15\n")
    assert run_cli(capsys, "count", "--n", "3", "--q", "101")[:2] == (0, "1\n")


def test_count_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--q", "6")
    assert code == 2
    assert "2 * 3" in err


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "poincare", "--n", "7", "--format", "json")
    payload = json.loads(out)
    coeffs = [int(c) for c in payload["coeffs"]]
    value = sum(c * 3 ** k for k, c in enumerate(coeffs))
    _, out, _ = run_cli(capsys, "count", "--n", "7", "--q", "3")
    assert int(out) == value


def test_betti(capsys):
    assert run_cli(capsys, "betti", "--n", "6", "--k", "1")[:2] == (0, "16\n")
    code, out, _ = run_cli(capsys, "betti", "--n", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,betti", "0,1", "1,5", "2,1"]


def test_strata_table(capsys):
    code, out, _ = run_cli(capsys, "strata", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # header, four strata, totals
    assert lines[-1].startswith("TOTAL")
    assert "q + 1" in lines[-1]


def test_strata_json_totals(capsys):
    code, out, _ = run_cli(capsys, "strata", "--n", "5", "--q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "15"
    assert payload["total_poly"] == ["1", "5", "1"]
    assert len(payload["strata"]) == 26
    empty = [s for s in payload["strata"] if s["count"] == "0"]
    assert len(empty) == 11  # open stratum and the ten 2|3 splits vanish over F_2


def test_strata_csv(capsys):
    code, out, _ = run_cli(capsys, "strata", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "tree,vertices,edges,count_poly",
        '"(1,2,3;)",1,0,1',
        "TOTAL,,,1",
    ]


def test_strata_csv_and_json_read_back_by_the_stdlib(capsys):
    # both are written from row templates, not by the csv and json modules,
    # so their parsers must give back every cell; csv quotes each serial,
    # which always holds a comma
    for n in range(3, 8):
        table = strata.strata_table(n)
        total = keel.poincare_poly(n)
        for q in (None, 9):
            def count(poly):
                return None if q is None else str(poly_eval(poly, q))

            at_q = () if q is None else ("--q", str(q))
            code, out, _ = run_cli(capsys, "strata", "--n", str(n), "--format", "json", *at_q)
            payload = json.loads(out)
            assert code == 0 and list(payload) == ["n", "q", "strata", "total_poly", "total"]
            assert (payload["n"], payload["q"]) == (n, q)
            assert [(s["tree"], s["vertices"], s["edges"], tuple(map(int, s["count_poly"])),
                     s["count"]) for s in payload["strata"]] == [
                (row.tree.serial, row.tree.vertex_count, row.edge_count, row.count_poly,
                 count(row.count_poly)) for row in table]
            assert (tuple(map(int, payload["total_poly"])), payload["total"]) == (total, count(total))

            code, out, _ = run_cli(capsys, "strata", "--n", str(n), "--format", "csv", *at_q)
            head, *rows, last = csv.reader(io.StringIO(out))
            assert code == 0 and head == ["tree", "vertices", "edges", "count_poly",
                                          "count"][:4 if q is None else 5]
            tail = [] if q is None else [count(total)]
            assert last == ["TOTAL", "", "", poly_str(total, "q", descending=True), *tail]
            assert rows == [
                [row.tree.serial, str(row.tree.vertex_count), str(row.edge_count),
                 poly_str(row.count_poly, "q", descending=True),
                 *([] if q is None else [count(row.count_poly)])]
                for row in table]


def test_strata_guard(capsys):
    code, _, err = run_cli(capsys, "strata", "--n", "9")
    assert code == 2
    assert "guard" in err


def test_strata_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("M0NBAR_STRATA_MAX_N", "6")
    code, _, err = run_cli(capsys, "strata", "--n", "7")
    assert code == 2
    assert "guard" in err
    monkeypatch.setenv("M0NBAR_STRATA_MAX_N", "7")
    code, out, _ = run_cli(capsys, "strata", "--n", "7")
    assert code == 0
    assert len(out.splitlines()) == 2754  # header + 2752 strata + totals
    monkeypatch.setenv("M0NBAR_STRATA_MAX_N", "abc")
    code, _, err = run_cli(capsys, "strata", "--n", "4")
    assert code == 2
    assert err == "error: M0NBAR_STRATA_MAX_N must be an integer, not 'abc'\n"


def test_strata_guard_env_stops_at_the_library_bound(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree was generated beyond the enumeration bound")
    monkeypatch.setattr(strata, "_centres", refuse)
    monkeypatch.setenv("M0NBAR_STRATA_MAX_N", "10")
    assert run_cli(capsys, "strata", "--n", "10") == (
        2, "", "error: n = 10 exceeds the stratum enumeration bound (9)\n")


# sha256 of `strata --n 7 --q 9` in each format, pinned from the output of
# the Pruefer-shape enumerator this package used before the total-partition
# generator replaced it
STRATA_N7_Q9_SHA256 = {
    "plain": "3e3d99fcad613b7770889176bed1bcff149d7cdc86de2c412f7d8d1cb8635087",
    "json": "c0ed096e4e916dac5210de76fdafc384dfd9a976a84757bcaf98adbdb4dc7b38",
    "csv": "5c8e101b3212be688dc3dccd473cd013853cd4d44376f1b24d88f43031ccaa9c",
    "latex": "b9653413c2fdc681a33d76cf7a7ffee4a8d4360d76a3b77e216066b8a2ed47cd",
}


def test_strata_output_digests(capsys):
    for fmt, digest in STRATA_N7_Q9_SHA256.items():
        code, out, _ = run_cli(capsys, "strata", "--n", "7", "--q", "9", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of `strata --n 6 --q 9` in each format, pinned from the renderer
# that read every row of strata_table
STRATA_N6_Q9_SHA256 = {
    "plain": "d1cced32259b18f9d3fc89c92e701a7a61f89ab8f4896316b265e7cfc2c856a6",
    "json": "3c762757c50290f4538c8c64feb6660bb8f699db090443fa2c9afe4981b1d7bc",
    "csv": "575eec8ca64d9288ea8baa4cfead8991015177430a16387f0c97a541cf6acb8b",
    "latex": "6e9e3ed81ed677652c545d5e228b9479291495886f657351bf3775b0848b210f",
}


def test_strata_renders_from_the_columns(capsys, monkeypatch):
    # strata reads table_columns only: building a row, or reading the
    # table of rows, raises
    def refuse(*args):
        raise AssertionError("a table row was built")
    monkeypatch.setattr(strata, "_instances", refuse)
    monkeypatch.setattr(strata, "strata_table", refuse)
    for fmt, digest in STRATA_N6_Q9_SHA256.items():
        code, out, _ = run_cli(capsys, "strata", "--n", "6", "--q", "9", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of `verify all`, pinned from the generator that numbered every tree
# as it built it
VERIFY_ALL_SHA256 = "25b8d13928649a3ba35d1d23700d105bf877341a12401b2e9a3a84e722d4581c"


def test_table_path_numbers_no_tree(capsys, monkeypatch):
    def refuse(serial):
        raise AssertionError("tree %s was numbered" % serial)
    monkeypatch.setattr(strata, "_numbering", refuse)
    strata.strata_table.cache_clear()  # drop trees numbered by earlier tests
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256
    for fmt, digest in STRATA_N7_Q9_SHA256.items():
        code, out, _ = run_cli(capsys, "strata", "--n", "7", "--q", "9", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of stdout of every other command in each format it accepts, and of
# strata without --q, pinned from the hand-written renderers that the shared
# table renderers replaced
CLI_SHA256 = {
    "poincare --n 7": {
        "plain": "a4a0f9b6baf515a6e34f8a32042568b983c42ffcd68ef0e45ef0d626c279d896",
        "json": "e51d891791be9411e03ded915f65966d4171147035c2ffcfbdaa795451e0e4b4",
        "latex": "f5a44e767d50809dd308678306a1e8c9174187cc554eea4ee62f1f47a4da5b57",
    },
    "betti --n 7": {
        "plain": "5508779089a725f26599359a4c5fa8ad808073d5aa6d7ad56f2cb0094f033f18",
        "json": "e51d891791be9411e03ded915f65966d4171147035c2ffcfbdaa795451e0e4b4",
        "csv": "53ffb463582546f050d5791f51353b06e716cc53ab6355954a9715a64b138f8a",
    },
    "betti --n 7 --k 2": {
        "plain": "743c7850cccfba5e53a9002663ec1ddd1079315a98bdbfdde10e6044f56abefe",
        "json": "3ac9925464e1aa6cdc518394d83bd7b262f1ed85b1017fed42dae789dd7c9e08",
    },
    "count --n 7 --q 9": {
        "plain": "4f9f1545d399f6d50bd349c51e3deb351894c2d8b119de2eb4d8d9504e31c9d7",
        "json": "bb1390420c59955dc2ab7310aba3add564248cbcebf1ebadf55bb4955e0f849a",
    },
    "zeta --n 6 --p 3": {
        "plain": "149dc0a0faefa1ac036fc07f41a1c0405e10bb62030f8e90c7d77096e177f3e3",
        "json": "659349124ec078ef0a9ea25c0a69094f01218c8cf1959e51446c595232fa2e5d",
        "csv": "4dcc0e118ca8306356271ca0dc4a391b7b7696fcd555cd461d4d03a383f4b0ea",
        "latex": "d5cdfbd3bdaa7b1731701ec20427a7dd10034ac8c26bb0bbe31325901bcd9317",
    },
    "zeta --n 6 --p 3 --order 3": {
        "plain": "8d60d7eb56c46f489b92f1cc2172001bcd94368b40f080aa67d1f53bd931466b",
        "json": "5709201f220bb80e3028b2311bd7039ffeb65d3eb461bce13bf068f9c4c297af",
        "csv": "466fe6bc4cd16c39982a2a7df7cbc5bc14705a74662a2e52da8050cc7f48d3d1",
        "latex": "c7f70ec7ef130396a4c62e0c8e199a74ac733c82146438faec151b67929b0a3d",
    },
    "getzler --order 4": {
        "plain": "63770dc531701ba98b1d7326fa298fcabd0d681cbe7f1760cd5cf6bc09ac34e0",
        "json": "66320f69a2daea6445eb0c4a469854df82d4a7642ad4cde9cb4b5585a536d008",
        "csv": "14b87be83e40a1cd4fb2bacd9bd4cda334a9bee2c424a6021476cc09c50fb523",
        "latex": "ff05eb517f6d470e5393b380e634ad5dcff329ce62c993edbc54830c086aab5c",
    },
    "verify recurrence --max-n 6 --q 2,4": {
        "plain": "4577619ed6518b0e5fe1af94c1c999ba2d055ce15fb1a7da7ced927a4714ab55",
        "json": "3c97456ac815b048da7a04d13afa779b011c3ad09ecc753be6ac582e952dd7cb",
        "csv": "df77f0f13029c044c2bcb5ddc99a8e8c5536130d3dcf3fa3f77a7a780bce0717",
    },
    "verify getzler --order 4": {
        "plain": "8eddd2d2917eb8514b185769d4de9c626040346c2973e23ffe06483b331e1b19",
        "json": "700340bd80d36fff0258d36e660dbc3db7eb079449b5f1b443260f09bc31ab89",
        "csv": "bc49b3fe2ff0db8c0c2216babe605a8965afa669cfc09fa435ba3a661cea94b5",
    },
    "strata --n 6": {
        "plain": "0a454674382fcac766a1e669de8309c587a589d65f58beaa3d601d3d2cb51a12",
        "json": "deac3ef2ed52fcd3f8e44caad9dd477f0c91ba650741ddb5545492f4ae533807",
        "csv": "4259970858635de5c1ea4adb1a4dba25ac9e2a713c9573cb98884c21c8878496",
        "latex": "ae301d7f6240043cb55c27c0fe3381fca2a8ccdb232b6ab4fad793f030232ccd",
    },
}


def test_cli_output_digests(capsys):
    for command, digests in CLI_SHA256.items():
        for fmt, digest in digests.items():
            code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)


def test_unsupported_format_is_refused_before_computing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("computed before the format was checked")

    for name in ("poincare_poly", "point_count", "betti"):
        monkeypatch.setattr(keel, name, refuse)
    for argv in (("poincare", "--n", "300", "--format", "csv"),
                 ("count", "--n", "300", "--q", "9", "--format", "latex"),
                 ("betti", "--n", "300", "--format", "latex"),
                 ("betti", "--n", "300", "--k", "2", "--format", "csv")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "not supported" in err


def test_verify_arguments_are_checked_before_the_first_report(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a report was computed before the arguments were checked")

    monkeypatch.setattr(keel, "verify_count_recurrence", refuse)
    monkeypatch.setattr(strata, "stratified_count", refuse)
    monkeypatch.setattr(zeta, "verify_zeta_counts", refuse)
    monkeypatch.setattr(getzler, "verify_inverse", refuse)
    for argv, message in (
        (("zeta", "--q", "4"), "p = 4 = 2^2 is not prime"),
        (("all", "--q", "2,6"), "q = 6 = 2 * 3 is not a prime power"),
        (("all", "--order", "1"), "order must be between 2 and 55"),
        (("all", "--order", "46"), "order must be between 1 and 45"),
        (("getzler", "--order", "56"), "order must be between 2 and 55"),
        (("recurrence", "--max-n", "3"), "max-n must be >= 4"),
        (("recurrence", "--max-n", str(keel.KEEL_MAX_N + 1)),
         "max-n %d exceeds the Keel row bound (%d)" % (keel.KEEL_MAX_N + 1, keel.KEEL_MAX_N)),
        (("zeta", "--max-n", str(keel.KEEL_MAX_N + 1)),
         "max-n %d exceeds the Keel row bound (%d)" % (keel.KEEL_MAX_N + 1, keel.KEEL_MAX_N)),
        (("all", "--max-n", "3"), "max-n must be >= 4"),
    ):
        code, _, err = run_cli(capsys, "verify", *argv)
        assert code == 2, argv
        assert err == "error: %s\n" % message


def test_zeta_plain(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "5", "--p", "2")
    assert (code, out) == (0, "1/((1-T)(1-2T)^5(1-4T))\n")
    code, out, _ = run_cli(capsys, "zeta", "--n", "5", "--p", "2", "--order", "3")
    assert code == 0
    assert out.splitlines() == [
        "1/((1-T)(1-2T)^5(1-4T))",
        "T^1 15",
        "T^2 37",
        "T^3 105",
    ]


def test_zeta_order_is_checked_before_the_series(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the zeta function was computed before --order was checked")

    monkeypatch.setattr(zeta, "zeta_moduli", refuse)
    for order in ("0", "46", "20000"):
        code, out, err = run_cli(capsys, "zeta", "--n", "5", "--p", "2", "--order", order)
        assert (code, out, err) == (2, "", "error: order must be between 1 and 45\n"), order


def test_counts_beyond_the_int_printing_limit(capsys):
    # str() refuses ints of more than sys.get_int_max_str_digits() digits;
    # the T^10 count of n = 30 at p = 2^61 - 1 has 4970, and both commands
    # print it, leaving the limit as it was
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on printing an int")
    p = 2**61 - 1
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "zeta", "--n", "30", "--p", str(p), "--order", "10")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    last = out.splitlines()[-1]
    assert last.startswith("T^10 ") and len(last) - 5 > limit
    sys.set_int_max_str_digits(0)
    try:
        assert int(last[5:]) == keel.point_count(30, p**10)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = run_cli(capsys, "verify", "zeta", "--max-n", "30", "--q", str(p),
                             "--order", "10")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "PASS: all 280 identities hold"
    assert sys.get_int_max_str_digits() == limit


def test_verify_zeta_output_budget_is_checked_before_any_row(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a report was computed before the output size was checked")

    monkeypatch.setattr(zeta, "verify_zeta_counts", refuse)
    state = [len(v) for v in keel._VALUES], keel._row.cache_info().currsize
    p = str(2**61 - 1)
    for max_n, q, order, digits in (("175", p, "25", "1.79e+08"), ("60", p, "20", "1.28e+07"),
                                    ("175", "2", "45", "1.16e+07")):
        code, out, err = run_cli(capsys, "verify", "zeta", "--max-n", max_n, "--q", q,
                                 "--order", order)
        assert (code, out, err) == (2, "", "error: verify zeta would print about %s digits, "
                                           "beyond its budget of 1e+07\n" % digits)
    assert ([len(v) for v in keel._VALUES], keel._row.cache_info().currsize) == state


def test_verify_zeta_digit_estimate_bounds_the_printed_digits(capsys):
    # at small p the Betti numbers add digits that the leading power of p
    # does not count; the estimate holds them with P_n(1)
    for max_n, q, order in (("30", "2", "6"), ("25", "2,3", "4"), ("12", str(2**61 - 1), "3")):
        code, out, _ = run_cli(capsys, "verify", "zeta", "--max-n", max_n, "--q", q,
                               "--order", order, "--format", "json")
        assert code == 0
        printed = sum(len(r["lhs"]) + len(r["rhs"]) for r in json.loads(out)["reports"])
        estimate = _zeta_digits(tuple(map(int, q.split(","))), int(order), int(max_n))
        assert printed <= estimate < 1.3 * printed, (max_n, q, order)


def test_keel_row_bound(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a row was built past the bound")

    # a guard that let n through would fail here at once, not build 100000 rows
    monkeypatch.setattr(keel, "_next_value", refuse)
    message = "error: n = 100000 exceeds the Keel row bound (%d)\n" % keel.KEEL_MAX_N
    for argv in (("poincare", "--n", "100000"), ("betti", "--n", "100000", "--k", "1"),
                 ("count", "--n", "100000", "--q", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message), argv


def test_zeta_rejects_composite_p(capsys):
    code, _, err = run_cli(capsys, "zeta", "--n", "4", "--p", "6")
    assert code == 2
    assert "not prime" in err


def test_zeta_json(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "4", "--p", "3", "--order", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [{"j": 0, "exp": 1}, {"j": 1, "exp": 1}]
    assert payload["series"] == ["4", "10"]


def test_getzler_plain(capsys):
    code, out, _ = run_cli(capsys, "getzler", "--order", "3")
    assert code == 0
    assert "x^2: 1/2" in out
    assert "x^2: -1/2" in out
    assert "x^3: 1/3 - 1/6*s" in out


def test_getzler_json(capsys):
    code, out, _ = run_cli(capsys, "getzler", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == [[], ["1"], ["1/2"]]
    assert payload["g"] == [[], ["1"], ["-1/2"]]


def test_getzler_order_guard(capsys):
    code, _, err = run_cli(capsys, "getzler", "--order", "56")
    assert code == 2
    assert err == "error: order must be between 2 and 55\n"


def test_verify_recurrence(capsys):
    code, out, _ = run_cli(capsys, "verify", "recurrence", "--max-n", "8", "--q", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # n = 4..8 plus the summary
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "PASS: all 5 identities hold"


def test_verify_strata_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "strata", "--max-n", "5", "--q", "2,3")
    assert code == 0
    assert "cross-oracle" in out
    assert "orbit-oracle" in out


def test_verify_census_guard(capsys):
    # strata and forget read the stratum census, not the enumeration, so
    # they run past M0NBAR_STRATA_MAX_N up to the census guard
    code, out, _ = run_cli(capsys, "verify", "strata", "--max-n", "9", "--q", "2,3")
    assert code == 0
    assert out.splitlines()[-1] == "PASS: all 17 identities hold"
    code, out, _ = run_cli(capsys, "verify", "forget", "--max-n", "8", "--q", "2")
    assert code == 0
    # the census answers n = 20 in well under a second, so the guard sits there
    code, out, _ = run_cli(capsys, "verify", "strata", "--max-n", "20", "--q", "2,1009")
    assert code == 0
    assert out.splitlines()[-1] == "PASS: all 37 identities hold"  # 36 cross-oracle, 1 orbit-oracle
    for target, max_n in (("strata", "21"), ("forget", "20"), ("all", "21")):
        code, _, err = run_cli(capsys, "verify", target, "--max-n", max_n)
        assert code == 2
        assert "beyond its guard (20)" in err


def test_verify_getzler(capsys):
    code, out, _ = run_cli(capsys, "verify", "getzler", "--order", "8")
    assert code == 0
    assert "getzler-inverse" in out


def test_verify_zeta(capsys):
    code, out, _ = run_cli(capsys, "verify", "zeta", "--max-n", "4", "--q", "2,3",
                           "--order", "3")
    assert code == 0


def test_verify_all_runs_zeta_on_the_primes_of_the_q_list(capsys):
    # under "all" the q list also feeds recurrence, strata and forget, which
    # take prime powers; zeta takes the primes in it, or 2 and 3 if there are none
    for qs, primes in (("4", {"2", "3"}), ("4,5", {"5"}), ("8,7,9,2", {"7", "2"})):
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "4", "--q", qs,
                               "--format", "csv")
        assert code == 0, qs
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[1].split()[1] for r in rows if r[0].startswith("zeta")} == {
            "p=%s" % p for p in primes}, qs
        assert {r[1].split()[1] for r in rows if r[0] == "count-recurrence"} == {
            "q=%s" % q for q in qs.split(",")}, qs


def test_verify_forget_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "forget", "--max-n", "5", "--q", "2,3")
    assert code == 0
    assert "lemma3" in out and "lemma4" in out and "fiber-sum" in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "recurrence", "--max-n", "4", "--q", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "identity,parameters,lhs,rhs,result",
        "count-recurrence,n=4 q=2,3,3,pass",
    ]


def test_verify_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "verify", "recurrence", "--q", "2,x")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "strata", "--max-n", "21")
    assert code == 2
    assert "guard" in err
    code, _, err = run_cli(capsys, "verify", "getzler", "--order", "56")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "strata", "--q", ",")
    assert (code, err) == (2, "error: empty q list\n")


def test_verify_reports_failures(capsys, monkeypatch):
    def failing(n_max, q):
        return [make_report("count-recurrence", {"n": 4, "q": q}, 3, 4),
                make_report("count-recurrence", {"n": 5, "q": q}, 7, 7)]

    monkeypatch.setattr(keel, "verify_count_recurrence", failing)
    argv = ("verify", "recurrence", "--max-n", "5", "--q", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL  count-recurrence")
    assert out.splitlines()[-1] == "FAIL: 1 of 2 identities failed"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["pass"] is False
    assert [r["pass"] for r in payload["reports"]] == [False, True]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out.splitlines()[1:] == ["count-recurrence,n=4 q=2,3,4,fail",
                                    "count-recurrence,n=5 q=2,7,7,pass"]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "p6.json"
    code, out, _ = run_cli(capsys, "poincare", "--n", "6", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["coeffs"] == ["1", "16", "16", "1"]
    missing = tmp_path / "missing" / "p6.json"
    code, out, err = run_cli(capsys, "poincare", "--n", "6", "--output", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write %s: " % missing)
    assert not missing.parent.exists()


def test_deterministic_output(capsys):
    runs = [
        run_cli(capsys, "strata", "--n", "5", "--q", "3", "--format", "json")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "m0nbar", "count", "--n", "4", "--q", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"  # P_4(5) = 1 + 5


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2


def test_readme_quick_tour_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_package_imports_only_the_standard_library():
    # the README promises pure standard-library Python
    imported = set()
    for path in Path(strata.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("cli.py", "argparse") in imported
    assert [(file, name) for file, name in sorted(imported)
            if name.split(".")[0] not in sys.stdlib_module_names] == []
