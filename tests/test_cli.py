import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import holoreduce
from holoreduce import (
    Polynomial,
    ShiftOperator,
    fixtures_dir,
    get_sequence,
    parse_operator,
    parse_polynomial,
)
from holoreduce.cli import main
from holoreduce.verify import precision_bits

from conftest import N

HARMONIC_TEXT = "n*(n+1)^2 - (n+1)*(n+2)*(2*n+3)*S + (n+2)^2*(n+3)*S^2"
CB27_TEXT = "(2*n-1)^4 - 16*(n+1)^4*S"
DERIVED_16N_TEXT = ("2*(-1+n)*n*(1+n)^2 - n*(3+2*n)*(12+15*n+5*n^2)*S"
                    " + 8*(2+n)^4*S^2")
NEG32_TEXT = "(n+1)^3 + (2*n+3)*(5*n^2+15*n+12)*S + 16*(n+2)^3*S^2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fixture_path(name):
    return str(fixtures_dir() / f"{name}.fixture")


class TestClassify:
    def test_harmonic_profile(self, capsys):
        code, out, _ = run(capsys, "classify", "--operator", HARMONIC_TEXT)
        assert code == 0
        assert "degL=1 CL=1 upper=2 lower=2" in out

    def test_central_binomial_profile(self, capsys):
        code, out, _ = run(capsys, "classify", "--operator", CB27_TEXT)
        assert code == 0
        assert "degL=3 CL=0 upper=3" in out
        assert " lower=" not in out.splitlines()[0]

    def test_difference_operator_profile(self, capsys):
        code, out, _ = run(capsys, "classify", "--operator", "S-1")
        assert code == 0
        assert "degL=-1 CL=1" in out

    def test_nesting_limit(self, capsys):
        def nested(depth):
            return "(" * depth + "S" + ")" * depth

        code, out, _ = run(capsys, "classify", "--operator", nested(128))
        assert code == 0 and out.startswith("degL=0")
        for depth in (129, 200):
            code, out, err = run(capsys, "classify", "--operator", nested(depth))
            assert (code, out) == (2, "")
            assert err == "error: nesting too deep at position 128\n"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--operator", "S +* 1")
        assert code == 2
        assert "error" in err

    def test_superscript_digit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "classify", "--operator", "n\u00b2 - S")
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '\u00b2' at position 1\n"


class TestReduce:
    def test_scaled_16n_cubic(self, capsys):
        code, out, _ = run(capsys, "reduce", "--operator", DERIVED_16N_TEXT,
                           "--poly", "n*(n-1)*(3*n+1)")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("remainder"))
        assert parse_polynomial(line.split("=", 1)[1]) == 2 * (N + 1) ** 2

    def test_zero_polynomial(self, capsys):
        code, out, _ = run(capsys, "reduce", "--operator", DERIVED_16N_TEXT,
                           "--poly", "0")
        assert code == 0
        assert "remainder = 0" in out

    def test_neg32_quintic(self, capsys):
        left = ("(n+1)^5 + (3+n)^2*(3+2*n)*(12+15*n+5*n^2)*S"
                " + 16*(2+n)*(3+n)^2*(4+n)^2*S^2")
        code, out, _ = run(capsys, "reduce", "--operator", left,
                           "--poly", "(3*n+1)*(n+1)^2*(n+2)^2")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("remainder"))
        assert parse_polynomial(line.split("=", 1)[1]) == \
            Polynomial([27, 103, 141, 78, 15]) / 9


class TestRationalReduce:
    def test_domb_neg32_upper_sq_pipeline(self, capsys):
        code, out, _ = run(capsys, "rational-reduce", "--operator", NEG32_TEXT,
                           "--poly", "3*n+1", "--factor", "(n+2)^2",
                           "--side", "upper", "--order", "2")
        assert code == 0
        rem = next(l for l in out.splitlines()
                   if l.startswith("remainder_numer"))
        assert parse_polynomial(rem.split("=", 1)[1]) == \
            Polynomial([27, 103, 141, 78, 15]) / 9
        den = next(l for l in out.splitlines() if l.startswith("denominator"))
        assert parse_polynomial(den.split("=", 1)[1]) == \
            (N + 1) ** 2 * (N + 2) ** 2

    def test_trivial_factor(self, capsys):
        code, out, _ = run(capsys, "rational-reduce", "--operator", NEG32_TEXT,
                           "--poly", "3*n+1", "--factor", "1",
                           "--side", "upper", "--order", "2")
        assert code == 0
        assert "denominator = 1" in out

    def test_domb_neg32_upper_sq_order3_pipeline(self, capsys):
        code, out, _ = run(capsys, "rational-reduce", "--operator", NEG32_TEXT,
                           "--poly", "3*n+1", "--factor", "(n+2)^2",
                           "--side", "upper", "--order", "3")
        assert code == 0
        rem = next(l for l in out.splitlines()
                   if l.startswith("remainder_numer"))
        assert parse_polynomial(rem.split("=", 1)[1]) == \
            Polynomial([5729, 8701, 5895, 1879, 228]) / 243

    def test_factor_not_divisor_exits_2(self, capsys):
        code, _, err = run(capsys, "rational-reduce", "--operator", NEG32_TEXT,
                           "--poly", "3*n+1", "--factor", "n+9",
                           "--side", "upper", "--order", "2")
        assert code == 2

    def test_irreducible_exits_1(self, capsys):
        stuck = "(2*n+2) - 2*S - (2*n+4)*S^2"
        code, _, err = run(capsys, "rational-reduce", "--operator", stuck,
                           "--poly", "3*n+1", "--factor", "n+1",
                           "--side", "lower", "--order", "2", "--auto-grow")
        assert code == 1
        assert "I = 10" in err


class TestGuess:
    def test_constant_ones(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("\n".join(["1"] * 30) + "\n")
        code, out, _ = run(capsys, "guess", "--terms", str(path),
                           "--start", "0", "--max-order", "2", "--max-deg", "2")
        assert code == 0
        assert parse_operator(out.strip()) == \
            ShiftOperator([Polynomial([-1]), Polynomial([1])])

    def test_franel_terms(self, capsys, tmp_path):
        from holoreduce import franel_number

        path = tmp_path / "franel.txt"
        path.write_text("\n".join(str(franel_number(k)) for k in range(40)))
        code, out, _ = run(capsys, "guess", "--terms", str(path),
                           "--start", "0", "--max-order", "2", "--max-deg", "3")
        assert code == 0
        assert parse_operator(out.strip()).order == 2

    @pytest.mark.parametrize("bounds", [("--max-order", "0"), ("--max-deg", "-1")],
                             ids=["max-order 0", "max-deg -1"])
    def test_empty_search_exits_2(self, capsys, tmp_path, bounds):
        path = tmp_path / "ones.txt"
        path.write_text("\n".join(["1"] * 30) + "\n")
        code, out, err = run(capsys, "guess", "--terms", str(path), *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error: empty search")

    def test_insufficient_terms_exits_2(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n3\n")
        code, _, err = run(capsys, "guess", "--terms", str(path),
                           "--start", "0", "--max-order", "2", "--max-deg", "3")
        assert code == 2
        assert "terms" in err


class TestVerify:
    def test_numeric_domb_neg32_upper_sq(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", fixture_path("domb_neg32_upper_sq"),
                           "--mode", "numeric", "--N", "2000")
        assert code == 0
        assert "status = PASS" in out
        # value and target are printed to the working precision: read back,
        # each is within abs_error plus one ulp of the fixture's 18/pi
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        with mpmath.workprec(384):
            exact = 18 / mpmath.pi
            value, target, err = (mpmath.mpf(fields[k])
                                  for k in ("value", "target", "abs_error"))
            ulp = exact * mpmath.mpf(2) ** (1 - precision_bits())
            assert abs(target - exact) <= ulp
            assert abs(value - exact) <= err + ulp

    def test_congruence_rational(self, capsys):
        code, out, _ = run(capsys, "verify",
                           "--fixture", fixture_path("domb_16n_rational_cong"),
                           "--mode", "congruence", "--primes", "7,13,19")
        assert code == 0
        assert out.count("ok") == 3

    @pytest.mark.parametrize("primes", [",", "", " , "])
    def test_congruence_without_primes_exits_2(self, capsys, primes):
        code, out, err = run(capsys, "verify",
                             "--fixture", fixture_path("domb_16n_rational_cong"),
                             "--mode", "congruence", "--primes", primes)
        assert (code, out) == (2, "")
        assert err == "error: no primes to check\n"

    @pytest.mark.parametrize("primes, bad", [
        ("7,abc", "abc"),
        ("١٣", "١٣"),  # Arabic-Indic 13: int() reads it
        ("7, 1_3", "1_3"),
    ])
    def test_congruence_bad_prime_exits_2(self, capsys, primes, bad):
        code, out, err = run(capsys, "verify",
                             "--fixture", fixture_path("domb_16n_rational_cong"),
                             "--mode", "congruence", "--primes", primes)
        assert (code, out) == (2, "")
        assert err == f"error: bad prime {bad!r} in --primes\n"

    @pytest.mark.parametrize("primes", [" 7 , 13", "7,,13", "+7,13"])
    def test_congruence_primes_blanks_and_empty_items(self, capsys, primes):
        code, out, _ = run(capsys, "verify",
                           "--fixture", fixture_path("domb_16n_rational_cong"),
                           "--mode", "congruence", "--primes", primes)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == \
            ["p=7", "p=13", "status"]

    def test_exact_lower_sq(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", fixture_path("domb_neg32_lower_sq"),
                           "--mode", "exact", "--window", "60")
        assert code == 0
        assert "status = PASS" in out

    def test_exact_congruence_recipe(self, capsys):
        code, out, _ = run(capsys, "verify",
                           "--fixture", fixture_path("domb_16n_rational_cong"),
                           "--mode", "exact", "--window", "60")
        assert code == 0
        assert "status = PASS" in out

    def test_exact_negative_window_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--fixture", fixture_path("domb_neg32_upper_sq"),
                             "--mode", "exact", "--window", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: window length must be >= 0, got -5\n"

    def test_exact_zero_window(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", fixture_path("domb_neg32_upper_sq"),
                           "--mode", "exact", "--window", "0")
        assert code == 0
        assert "status = PASS" in out

    def test_exact_without_recipe_exits_2(self, capsys):
        code, _, err = run(capsys, "verify",
                           "--fixture", fixture_path("domb_neg32_base"),
                           "--mode", "exact")
        assert code == 2

    def test_corrupted_target_exits_1(self, capsys, tmp_path):
        src = (fixtures_dir() / "domb_16n_rational_cong.fixture").read_text()
        bad = tmp_path / "bad.fixture"
        bad.write_text(src.replace("target = 3/2 mod p^2",
                                   "target = 5/2 mod p^2"))
        code, out, _ = run(capsys, "verify", "--fixture", str(bad),
                           "--mode", "congruence", "--primes", "7,13")
        assert code == 1
        assert "FAIL" in out

    def test_numeric_vanishing_denominator_exits_2(self, capsys, tmp_path):
        path = tmp_path / "zero.fixture"
        path.write_text("sequence = domb_over_neg32n\nnumer = 1\n"
                        "denom = n - 3\ntarget = 1 + 2/pi\n")
        code, out, err = run(capsys, "verify", "--fixture", str(path),
                             "--mode", "numeric", "--N", "200")
        assert (code, out) == (2, "")
        assert err == "error: denominator vanishes at n = 3\n"

    def test_numeric_on_congruence_fixture_exits_2(self, capsys):
        code, _, err = run(capsys, "verify",
                           "--fixture", fixture_path("domb_16n_linear_cong"),
                           "--mode", "numeric")
        assert code == 2

    def test_missing_fixture_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--fixture", "no-such-file",
                         "--mode", "numeric")
        assert code == 2


class TestEvalAndSum:
    def test_eval_domb(self, capsys):
        code, out, _ = run(capsys, "eval", "--sequence", "domb", "--n", "2")
        assert code == 0
        assert out.strip() == "28"

    def test_eval_harmonic_fraction(self, capsys):
        code, out, _ = run(capsys, "eval", "--sequence", "harmonic_m1",
                           "--n", "3")
        assert code == 0
        assert out.strip() == "11/6"

    def test_eval_unknown_sequence_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--sequence", "mystery", "--n", "1")
        assert code == 2

    def test_sum_matches_direct_computation(self, capsys):
        code, out, _ = run(capsys, "sum", "--sequence", "domb_over_neg32n",
                           "--numer", "3*n+1", "--from", "0", "--to", "12")
        assert code == 0
        seq = get_sequence("domb_over_neg32n")
        expected = sum(
            ((3 * m + 1) * seq.eval(m) for m in range(13)), Fraction(0)
        )
        assert Fraction(out.strip()) == expected

    def test_sum_with_denominator(self, capsys):
        code, out, _ = run(capsys, "sum", "--sequence", "domb_over_16n",
                           "--numer", "(n+1)^2", "--denom", "n*(n-1)",
                           "--from", "2", "--to", "6")
        assert code == 0
        seq = get_sequence("domb_over_16n")
        expected = sum(
            (m + 1) ** 2 * seq.eval(m) / (m * (m - 1)) for m in range(2, 7)
        )
        assert Fraction(out.strip()) == expected


class TestStructuredOutputs:
    COMMANDS = [
        ("classify", "--operator", HARMONIC_TEXT),
        ("reduce", "--operator", DERIVED_16N_TEXT, "--poly", "n^2"),
        ("eval", "--sequence", "franel", "--n", "4"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_schema_and_stability(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv, "--format", "structured")
        code2, out2, _ = run(capsys, *argv, "--format", "structured")
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["schema"] == "holoreduce-v1"
        assert data["command"] == argv[0]

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "reduce", "--operator", DERIVED_16N_TEXT,
                           "--poly", "n*(n-1)*(3*n+1)", "--format", "latex")
        assert code == 0
        assert "2 \\left(1 + 2 n + n^2\\right)" in out


class TestExitCodeMatrix:
    CASES = [
        (0, ("classify", "--operator", "S-1")),
        (0, ("reduce", "--operator", "S-1", "--poly", "n")),
        (2, ("classify", "--operator", "(((")),
        (2, ("reduce", "--operator", "S-1", "--poly", "S")),
        (2, ("eval", "--sequence", "domb", "--n", "-1")),
    ]

    @pytest.mark.parametrize("expected,argv", CASES,
                             ids=lambda v: str(v)[:30])
    def test_exit_codes(self, capsys, expected, argv):
        assert main(list(argv)) == expected

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["classify"])  # missing --operator
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, option, value", [
        (("eval", "--sequence", "domb", "--n", "\u0662"), "--n", "\u0662"),
        (("eval", "--sequence", "domb", "--n", "1_0"), "--n", "1_0"),
        (("sum", "--sequence", "domb", "--numer", "1", "--from", "\u0660",
          "--to", "3"), "--from", "\u0660"),
        (("guess", "--terms", "t.txt", "--start", "\uff10"), "--start", "\uff10"),
        (("verify", "--fixture", "f", "--mode", "exact", "--window", "\u0664"),
         "--window", "\u0664"),
    ])
    def test_integer_options_take_ascii_digits_only(self, capsys, argv, option,
                                                    value):
        # int() reads each of these values; the expression grammar does not
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {option}: invalid int value: {value!r}\n")

    def test_integer_options_take_signs_and_blanks(self, capsys):
        assert run(capsys, "eval", "--sequence", "domb", "--n", " +2 ")[:2] == \
            (0, "28\n")

    NUMERIC = ("verify", "--fixture", fixture_path("domb_neg32_upper_sq"),
               "--mode", "numeric", "--N", "200", "--tol")

    @pytest.mark.parametrize("value", [
        "١e-4", "inf", "nan", "-1", "1e999", "1_0", "+1", "0x1", "", "1e"])
    def test_tol_takes_finite_ascii_decimals_only(self, capsys, value):
        # float() reads the first seven: inf made every check PASS, nan and
        # -1 every check FAIL, and the others read as numbers
        with pytest.raises(SystemExit) as err:
            main([*self.NUMERIC, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --tol: invalid float value: {value!r}\n")

    @pytest.mark.parametrize("value, shown, code", [
        ("1e-4", "0.0001", 0), ("0.5", "0.5", 0), (".5E+1", "5.0", 0),
        (" 2 ", "2.0", 0), ("7.", "7.0", 0), ("0", "0.0", 0)])
    def test_tol_takes_decimals(self, capsys, value, shown, code):
        # the exact sum of domb_neg32_upper_sq rounds to its target's value
        got, out, _ = run(capsys, *self.NUMERIC, value)
        assert got == code
        assert f"\ntolerance = {shown}\n" in out

    def test_tol_zero_fails_on_a_nonzero_error(self, capsys):
        got, out, _ = run(capsys, "verify", "--fixture",
                          fixture_path("domb_neg32_lower_cube"), "--mode",
                          "numeric", "--N", "200", "--tol", "0")
        assert got == 1
        assert "\nabs_error = 4.03896783473158e-28\n" in out
        assert out.endswith("\nstatus = FAIL\n")


def test_import_leaves_mpmath_out():
    # mpmath is a third of the start-up of every command; only numeric
    # verification needs it
    src = str(Path(holoreduce.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, holoreduce.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "False\n"
