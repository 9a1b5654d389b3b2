import hashlib
import json
import subprocess
import sys

from m0nbar.cli import main


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
    code, _, err = run_cli(capsys, "getzler", "--order", "11")
    assert code == 2
    assert "order" in err


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
    for target, max_n in (("strata", "11"), ("forget", "10"), ("all", "11")):
        code, _, err = run_cli(capsys, "verify", target, "--max-n", max_n)
        assert code == 2
        assert "beyond its guard (10)" in err


def test_verify_getzler(capsys):
    code, out, _ = run_cli(capsys, "verify", "getzler", "--order", "8")
    assert code == 0
    assert "getzler-inverse" in out


def test_verify_zeta(capsys):
    code, out, _ = run_cli(capsys, "verify", "zeta", "--max-n", "4", "--q", "2,3",
                           "--order", "3")
    assert code == 0


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
    code, _, err = run_cli(capsys, "verify", "strata", "--max-n", "11")
    assert code == 2
    assert "guard" in err
    code, _, err = run_cli(capsys, "verify", "getzler", "--order", "12")
    assert code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "p6.json"
    code, out, _ = run_cli(capsys, "poincare", "--n", "6", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["coeffs"] == ["1", "16", "16", "1"]


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
