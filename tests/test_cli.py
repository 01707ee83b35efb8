"""Command-line interface: pinned outputs, formats, and exit codes."""

import json
import math

import pytest

from padichg import WrongResidueClassError, family_sweep, make_prime_ctx
from padichg.cli import main

from oracles import sweep_text_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_difference(got: str, want: str):
    """(line number, got line, wanted line) where two texts first differ,
    or None: a short report where a diff of two long texts is slow."""
    g, w = got.split("\n"), want.split("\n")
    for i in range(max(len(g), len(w))):
        a, b = (g[i] if i < len(g) else None), (w[i] if i < len(w) else None)
        if a != b:
            return i, a, b
    return None


class TestEval:
    def test_pinned_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--prime", "7", "--function", "2g2", "--lambda", "3"
        )
        assert code == 0
        assert out == "-4\nnormalized=-1.511857892037\n"

    def test_special_value_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--prime", "7", "--function", "2g2", "--lambda", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "-1"

    def test_tilde_at_minus_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--prime", "5", "--function", "6g6t", "--lambda", "4"
        )
        assert code == 0
        assert out.splitlines()[0] == "-2"

    def test_not_prime(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--prime", "8", "--function", "2g2", "--lambda", "3"
        )
        assert code == 2
        assert "8 is not prime" in err

    def test_wrong_residue_class(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--prime", "11", "--function", "2g2", "--lambda", "3"
        )
        assert code == 2
        assert "p = 1 (mod 6)" in err

    def test_no_integer_lift_class(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--prime", "13", "--function", "6g6", "--lambda", "3"
        )
        assert code == 2
        assert "p = 2 (mod 3)" in err

    @staticmethod
    def assert_precision_rejected(capsys, precision: str):
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--prime", "1009", "--function", "2g2",
                "--lambda", "3", "--precision", precision,
            ])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "invalid choice" in err

    def test_precision_above_three_rejected(self, capsys):
        self.assert_precision_rejected(capsys, "4")

    def test_precision_below_two_rejected(self, capsys):
        self.assert_precision_rejected(capsys, "1")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--prime", "7", "--function", "2g2",
            "--lambda", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "p": 7,
            "function": "2g2",
            "lambda": 3,
            "value": -4,
            "normalized": -1.511857892037,
        }


class TestSweep:
    def test_pinned_p7(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--prime", "7", "--function", "2g2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,value,normalized"
        assert len(lines) == 8
        assert [int(ln.split(",")[1]) for ln in lines[1:]] == [0, -1, 0, -4, 0, 4, 0]

    def test_ap_starts_at_two(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--prime", "7", "--function", "ap")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].startswith("2,")
        assert len(lines) == 1 + 5

    @pytest.mark.parametrize("p", [5, 7, 13, 101, 10007])
    def test_text_matches_row_formatter(self, capsys, p):
        # the per-value cells give the text of one formatted row per lambda
        ctx = make_prime_ctx(p)
        for fam in ("2g2", "2g2t", "6g6", "6g6t", "ap"):
            try:
                values = family_sweep(ctx, fam).tolist()
            except WrongResidueClassError:
                code, out, _ = run_cli(capsys, "sweep", "--prime", str(p), "--function", fam)
                assert (code, out) == (2, ""), fam
                continue
            start = 2 if fam == "ap" else 0
            for fmt in ("csv", "json"):
                code, out, _ = run_cli(
                    capsys, "sweep", "--prime", str(p), "--function", fam, "--format", fmt
                )
                assert code == 0
                want = sweep_text_reference(values, p, start, fmt)
                assert first_difference(out, want) is None, (fam, fmt)
            rows = json.loads(out)
            assert [(r["lambda"], r["value"]) for r in rows] == [
                (lam, values[lam]) for lam in range(start, p)
            ]
            assert all(r["normalized"] == round(r["value"] / math.sqrt(p), 12) for r in rows)

    def test_precision_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--prime", "7", "--function", "2g2", "--precision", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --precision 9" in capsys.readouterr().err


class TestMoments:
    def test_pinned_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--prime", "7", "--function", "2g2", "--m-max", "2"
        )
        assert code == 0
        assert out.splitlines() == [
            "m,sum,normalized,expected",
            "1,-1,-0.053994924716,0.0",
            "2,33,0.673469387755,1.0",
        ]

    def test_json_keys_match_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--prime", "7", "--function", "2g2",
            "--m-max", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["m"] for r in rows] == [1, 2]
        assert rows[1] == {
            "m": 2, "sum": 33, "normalized": 0.673469387755, "expected": 1.0,
        }

    def test_no_moment_order_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--prime", "7", "--function", "2g2", "--m-max", "0"
        )
        assert (code, out) == (2, "")
        assert "--m-max must be >= 1" in err


class TestDistribution:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--prime", "7", "--function", "2g2",
            "--bins", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "bin_left,bin_right,count,empirical_density,semicircle_density"
        )
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# ks=")
        assert [int(ln.split(",")[2]) for ln in lines[1:5]] == [1, 1, 4, 1]

    def test_json_carries_ks(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--prime", "7", "--function", "2g2",
            "--bins", "4", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"p", "function", "ks", "rows"}
        assert len(payload["rows"]) == 4

    def test_bins_past_value_count_rejected(self, tmp_path, capsys):
        # values at p = 101 are the 41 integers in [-20, 20]
        target = tmp_path / "hist.csv"
        for bins, code_want in (("42", 2), ("41", 0)):
            code, out, err = run_cli(
                capsys, "distribution", "--prime", "101", "--function", "ap",
                "--bins", bins, "--output", str(target),
            )
            assert code == code_want
            assert out == ""
            if code_want == 2:
                assert "42 bins" in err
                assert not target.exists()
        assert len(target.read_text().splitlines()) == 1 + 41 + 1


class TestTrace:
    def test_pinned_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--prime", "5", "--weight", "4", "--level", "8"
        )
        assert code == 0
        assert out.splitlines() == ["p,k,level,trace", "5,4,8,-2"]

    def test_prime_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--pmin", "5", "--pmax", "13",
            "--weight", "4", "--level", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "7", "11", "13"]
        assert all(ln.endswith(",0") for ln in lines[1:])

    @pytest.mark.parametrize(
        "bounds", [("--pmin", "5", "--pmax", "30"), ("--pmin", "5"), ("--pmax", "30")]
    )
    def test_prime_with_range_is_refused(self, capsys, bounds):
        code, out, err = run_cli(
            capsys, "trace", "--prime", "13", *bounds, "--weight", "4", "--level", "4"
        )
        assert code == 2
        assert out == ""
        assert "not both" in err

    @pytest.mark.parametrize("bounds", [("300", "200"), ("2", "4")])
    def test_empty_range_fails(self, capsys, bounds):
        pmin, pmax = bounds
        code, out, err = run_cli(
            capsys, "trace", "--pmin", pmin, "--pmax", pmax, "--weight", "4", "--level", "4"
        )
        assert (code, out) == (2, "")
        assert f"no prime >= 5 in [{pmin}, {pmax}]" in err

    def test_needs_prime_or_range(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--weight", "4", "--level", "4")
        assert code == 2
        assert "needs --prime" in err


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--pmin", "5", "--pmax", "60",
            "--suite", "identities",
        )
        assert code == 0
        lines = out.splitlines()
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("(primes 5..60, suite identities)")

    def test_all_suites_pinned(self, capsys):
        # the case counts pin what each check covers, not only that it passed
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--pmin", "5", "--pmax", "200"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "PASS identities/2g2-matches-phi(-2)-ap: 1986 cases across 21 primes",
            "PASS identities/6g6-matches-phi(-1)-ap: 2104 cases across 23 primes",
            "PASS identities/special-values: 21 cases across 21 primes",
            "PASS identities/tilde-at-minus-one: 44 cases across 44 primes",
            "PASS gamma/reflection: 4178 cases across 44 primes",
            "PASS gamma/functional-equation: 10080 cases across 44 primes",
            "PASS gamma/teichmuller-order: 4178 cases across 44 primes",
            "PASS gamma/precision-consistency: 4178 cases across 44 primes",
            "PASS gamma/product-formula: 5275 cases across 23 primes",
            "PASS gamma/gross-koblitz: 60646 cases across 23 primes",
            "PASS gauss/gauss-modulus: 1032 cases across 23 primes",
            "PASS gauss/jacobi-norm: 11 cases across 11 primes",
            "PASS gauss/davenport-hasse: 504 cases across 11 primes",
            "PASS moments/hasse-bound: 12666 cases across 44 primes",
            "PASS moments/decomposition-identity: 66 cases across 11 primes",
            "PASS traces/level4-weight4-zero: 44 cases across 44 primes",
            "PASS traces/level4-weight6-eta: 44 cases across 44 primes",
            "PASS traces/level8-weight4-eta: 44 cases across 44 primes",
            "PASS traces/frobenius-backdoor: 132 cases across 44 primes",
            "PASS traces/deligne-bound: 88 cases across 44 primes",
            "# 20/20 checks passed (primes 5..200, suite all)",
        ]

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--pmin", "5", "--pmax", "30",
            "--suite", "gamma", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)
        assert results and all(r["ok"] for r in results)
        assert set(results[0]) == {"suite", "name", "ok", "detail"}

    @pytest.mark.parametrize("bounds", [("300", "200"), ("2", "4")])
    def test_empty_range_fails(self, capsys, bounds):
        pmin, pmax = bounds
        code, out, _ = run_cli(
            capsys, "verify", "--pmin", pmin, "--pmax", pmax, "--suite", "all"
        )
        assert code == 1
        assert out == f"# 0/0 checks passed (primes {pmin}..{pmax}, suite all)\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "trace", "--prime", "5", "--weight", "4", "--level", "8",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "p,k,level,trace\n5,4,8,-2\n"


def test_repeated_runs_are_identical(capsys):
    first = run_cli(capsys, "sweep", "--prime", "13", "--function", "2g2")
    second = run_cli(capsys, "sweep", "--prime", "13", "--function", "2g2")
    assert first == second
