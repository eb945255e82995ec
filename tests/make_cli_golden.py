"""Write tests/golden/cli.json: stdout, stderr and exit code of in-process
``holoreduce.cli.main`` on a fixed set of command lines.

Run from the repository root to regenerate after an intended output change:

    PYTHONPATH=src python tests/make_cli_golden.py

Arguments starting with ``@fixtures/`` name a shipped fixture file and
``@golden/`` a file next to the golden file; tests/test_cli_golden.py
resolves both the same way and compares every entry byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from fractions import Fraction

from holoreduce import domb_number, fixtures_dir, franel_number
from holoreduce.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"
FORMATS = ("text", "latex", "structured")

HARMONIC = "n*(n+1)^2 - (n+1)*(n+2)*(2*n+3)*S + (n+2)^2*(n+3)*S^2"
CB27 = "(2*n-1)^4 - 16*(n+1)^4*S"
DERIVED_16N = "2*(-1+n)*n*(1+n)^2 - n*(3+2*n)*(12+15*n+5*n^2)*S + 8*(2+n)^4*S^2"
NEG32 = "(n+1)^3 + (2*n+3)*(5*n^2+15*n+12)*S + 16*(n+2)^3*S^2"
DOMB_16N = "2*(n+1)^3 - (2*n+3)*(5*n^2+15*n+12)*S + 8*(n+2)^3*S^2"
STUCK = "(2*n+2) - 2*S - (2*n+4)*S^2"
# R_L = {0}: L*(1) vanishes, so the lower bound holds
RL_VANISHES = "(1-n) + (n+1)*S"
# R_L = {1}: L*(n) does not vanish, so the lower bound is invalid
RL_LEAKS = "(n+1) - (n+3)*S"
# order 3 with L*(1) = 0, so C_L = 1
ORDER3_CL1 = "3 - 2*S - (3*n+1)*S^2 + (3*n+3)*S^3"
# coefficients with denominators
FRACTIONAL = "(n+1)/3 - (2*n+5)/7*S"
# fraction coefficients through powers of quotients and division by a quotient
FRACTION_POWERS = "((n+1)/2)^3 - (2*n+3)/(4/3)*S + (3/5*(n+2))^2*S^2"
# f(s) = s + 5000000: a root bound above 10^7
LARGE_ROOT = "(n+1)*(n+5000000) - (n+2)*(n+1)*S"

IDENTITY_FIXTURES = (
    "domb_neg32_base",
    "domb_neg32_lower_cube",
    "domb_neg32_lower_sq",
    "domb_neg32_upper_cube",
    "domb_neg32_upper_sq",
    "domb_neg32_upper_sq_order3",
)
CONGRUENCE_FIXTURES = ("domb_16n_linear_cong", "domb_16n_rational_cong")

# (operator, poly, factor, side, order) of every fixture recipe
RECIPES = (
    (NEG32, "3*n + 1", "(n+1)^3", "lower", "2"),
    (NEG32, "3*n + 1", "(n+1)^2", "lower", "2"),
    (NEG32, "3*n + 1", "(n+2)^3", "upper", "2"),
    (NEG32, "3*n + 1", "(n+2)^2", "upper", "2"),
    (NEG32, "3*n + 1", "(n+2)^2", "upper", "3"),
    (DOMB_16N, "3*n + 1", "n + 1", "lower", "2"),
)

# every prime p = 1 mod 3 from 7 to 499 (45 of them)
CONGRUENCE_PRIMES = ",".join(
    str(p) for p in range(7, 500, 6) if all(p % d for d in range(2, p)))

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def cases() -> list:
    """Command lines covered by the golden file, in a fixed order."""
    out = []
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            ("classify", "--operator", HARMONIC, *f),
            ("classify", "--operator", CB27, *f),
            ("classify", "--operator", NEG32, *f),
            ("classify", "--operator", "S-1", *f),
            ("reduce", "--operator", DERIVED_16N, "--poly", "n*(n-1)*(3*n+1)", *f),
            ("reduce", "--operator", NEG32, "--poly", "(3*n+1)*(n+2)^3", *f),
            ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
             "--factor", "(n+2)^2", "--side", "upper", "--order", "2", *f),
            ("guess", "--terms", "@golden/franel_terms.txt", "--start", "0",
             "--max-order", "2", "--max-deg", "3", *f),
            ("guess", "--terms", "@golden/primes_terms.txt", "--start", "0",
             "--max-order", "1", "--max-deg", "1", *f),
            ("verify", "--fixture", "@fixtures/domb_neg32_upper_sq.fixture",
             "--mode", "numeric", "--N", "2000", *f),
            ("verify", "--fixture", "@fixtures/domb_neg32_upper_sq.fixture",
             "--mode", "exact", *f),
            ("verify", "--fixture", "@fixtures/domb_16n_rational_cong.fixture",
             "--mode", "congruence", *f),
            ("eval", "--sequence", "domb", "--n", "2", *f),
            ("eval", "--sequence", "harmonic_m1", "--n", "7", *f),
            ("sum", "--sequence", "domb_over_neg32n", "--numer", "3*n+1",
             "--from", "0", "--to", "40", *f),
            ("sum", "--sequence", "domb_over_16n", "--numer", "(n+1)^2",
             "--denom", "n*(n-1)", "--from", "2", "--to", "30", *f),
        ]
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            # profile branches: R_L images vanish or not, order 3 with C_L = 1
            ("classify", "--operator", RL_VANISHES, *f),
            ("classify", "--operator", RL_LEAKS, *f),
            ("classify", "--operator", ORDER3_CL1, *f),
            ("reduce", "--operator", RL_LEAKS, "--poly", "n^5 + n^2 + 1", *f),
            ("reduce", "--operator", ORDER3_CL1, "--poly", "n^4 - 2*n + 5", *f),
        ]
    for name in IDENTITY_FIXTURES:
        path = f"@fixtures/{name}.fixture"
        out.append(("verify", "--fixture", path, "--mode", "numeric", "--N", "2000"))
        out.append(("verify", "--fixture", path, "--mode", "exact", "--window", "40"))
    for name in CONGRUENCE_FIXTURES:
        out.append(("verify", "--fixture", f"@fixtures/{name}.fixture",
                    "--mode", "congruence"))
    out.append(("verify", "--fixture", "@fixtures/domb_16n_rational_cong.fixture",
                "--mode", "exact", "--window", "40"))
    for op, poly, factor, side, order in RECIPES:
        base = ("rational-reduce", "--operator", op, "--poly", poly,
                "--factor", factor, "--side", side, "--order", order)
        out.append(base)
    out += [
        # usage, parse and precondition errors
        ("classify", "--operator", "S +* 1"),
        ("reduce", "--operator", "S-1", "--poly", "S"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "n+9", "--side", "upper", "--order", "2"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "n+9", "--side", "lower", "--order", "2"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "(n+2)^2", "--side", "upper", "--order", "1"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "0", "--side", "upper", "--order", "2"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "0", "--side", "lower", "--order", "2"),
        ("rational-reduce", "--operator", "n*S - S^2", "--poly", "3*n+1",
         "--factor", "n", "--side", "lower", "--order", "2"),
        ("rational-reduce", "--operator", "1", "--poly", "3*n+1",
         "--factor", "1", "--side", "lower", "--order", "2"),
        ("rational-reduce", "--operator", STUCK, "--poly", "3*n+1",
         "--factor", "n+1", "--side", "lower", "--order", "2"),
        # a larger order is asked for with --order; there is no retry option
        ("rational-reduce", "--operator", STUCK, "--poly", "3*n+1",
         "--factor", "n+1", "--side", "lower", "--order", "2", "--auto-grow"),
        ("sum", "--sequence", "domb", "--numer", "1", "--denom", "n-3",
         "--from", "0", "--to", "5"),
        ("eval", "--sequence", "mystery", "--n", "1"),
        ("verify", "--fixture", "@fixtures/domb_neg32_base.fixture", "--mode", "exact"),
        ("verify", "--fixture", "@fixtures/domb_16n_linear_cong.fixture",
         "--mode", "numeric"),
    ]
    for fmt in ("text", "structured"):
        for name in CONGRUENCE_FIXTURES:
            out.append(("verify", "--fixture", f"@fixtures/{name}.fixture",
                        "--mode", "congruence", "--primes", CONGRUENCE_PRIMES,
                        "--format", fmt))
    out += [
        # series sums at the edges of the domain
        ("sum", "--sequence", "domb", "--numer", "1", "--denom", "n+2",
         "--from", "-1", "--to", "3"),
        ("sum", "--sequence", "domb", "--numer", "1", "--denom", "n+1",
         "--from", "-1", "--to", "3"),
        ("sum", "--sequence", "franel_example22", "--numer", "n",
         "--from", "0", "--to", "6"),
        ("sum", "--sequence", "franel_example22", "--numer", "n",
         "--from", "2", "--to", "6"),
        ("sum", "--sequence", "t_poly", "--numer", "n+1", "--denom", "2*n+3",
         "--from", "0", "--to", "12"),
        ("sum", "--sequence", "domb", "--numer", "1", "--from", "5", "--to", "4"),
        ("verify", "--fixture", "@fixtures/domb_16n_linear_cong.fixture",
         "--mode", "congruence", "--primes", "97,103,109"),
        ("verify", "--fixture", "@fixtures/domb_16n_rational_cong.fixture",
         "--mode", "congruence", "--primes", "5"),
        ("verify", "--fixture", "@fixtures/domb_neg32_upper_sq.fixture",
         "--mode", "numeric", "--N", "2000", "--accel", "none"),
    ]
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            ("classify", "--operator", FRACTIONAL, *f),
            ("reduce", "--operator", FRACTIONAL, "--poly", "n^3/4 - 2*n/5 + 1", *f),
        ]
    out += [
        # a polynomial at the degree limit
        ("reduce", "--operator", "S - 1", "--poly", "(n+1)^600"),
        # a non-monic denominator with rational coefficients
        ("sum", "--sequence", "domb_over_16n", "--numer", "n^2 + 1",
         "--denom", "(3*n^2 + 2)/7", "--from", "0", "--to", "25"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "(n+2)^3", "--side", "upper", "--order", "3",
         "--format", "structured"),
        # numbers outside the expression grammar: ASCII digits only
        ("eval", "--sequence", "domb", "--n", "\u0662"),
        ("eval", "--sequence", "domb", "--n", "two"),
        ("sum", "--sequence", "domb", "--numer", "1", "--from", "\u0660",
         "--to", "3"),
        ("rational-reduce", "--operator", NEG32, "--poly", "3*n+1",
         "--factor", "(n+2)^2", "--side", "upper", "--order", "\u0662"),
        ("guess", "--terms", "@golden/franel_terms.txt", "--start", "0",
         "--max-order", "\u0662", "--max-deg", "3"),
        ("verify", "--fixture", "@fixtures/domb_neg32_upper_sq.fixture",
         "--mode", "numeric", "--N", "\u0662\u0660\u0660\u0660"),
        ("verify", "--fixture", "@golden/unicode_cong.fixture",
         "--mode", "congruence"),
        ("verify", "--fixture", "@golden/unicode_recipe.fixture",
         "--mode", "exact", "--window", "40"),
    ]
    for fmt in FORMATS:
        out.append(("classify", "--operator", FRACTION_POWERS, "--format", fmt))
    out += [
        # parse errors: a superscript digit, an unbalanced parenthesis and
        # the shift, degree and nesting limits
        ("classify", "--operator", "n² - S"),
        ("classify", "--operator", "((n+1) - S"),
        ("classify", "--operator", "S^513"),
        ("reduce", "--operator", "S - 1", "--poly", "(n+1)^601"),
        ("classify", "--operator", "(" * 129 + "S" + ")" * 129),
    ]
    for tol in ("1e-4", "0", "0.5", ".5E+1", " 2 ", "١e-4", "inf", "nan",
                "-1", "1e999", "1_0", "0x1"):
        out.append(("verify", "--fixture", "@fixtures/domb_neg32_upper_sq.fixture",
                    "--mode", "numeric", "--N", "200", "--tol", tol))
    for fmt in ("text", "structured"):
        f = ("--format", fmt)
        out += [
            # rational terms: powers of 2 below, then mixed signs over
            # unrelated denominators, found and (order 1, degree 1) not
            ("guess", "--terms", "@golden/domb_16n_terms.txt", "--start", "0",
             "--max-order", "2", "--max-deg", "3", *f),
            ("guess", "--terms", "@golden/mixed_terms.txt", "--start", "0",
             "--max-order", "2", "--max-deg", "3", *f),
            ("guess", "--terms", "@golden/mixed_terms.txt", "--start", "0",
             "--max-order", "1", "--max-deg", "1", *f),
        ]
    for fmt in FORMATS:
        out.append(("classify", "--operator", LARGE_ROOT, "--format", fmt))
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            # exact values far past the initial values, and an oracle only
            ("eval", "--sequence", "harmonic_m3", "--n", "400", *f),
            ("eval", "--sequence", "central_binomial_example27", "--n", "400", *f),
            ("eval", "--sequence", "domb_over_neg32n", "--n", "400", *f),
            ("eval", "--sequence", "t_poly", "--n", "300", *f),
        ]
    for fmt in ("text", "structured"):
        # exact windows of one index, two indices and 501 indices
        for name in (*IDENTITY_FIXTURES[1:], "domb_16n_rational_cong"):
            for window in ("0", "1", "500"):
                out.append(("verify", "--fixture", f"@fixtures/{name}.fixture",
                            "--mode", "exact", "--window", window,
                            "--format", fmt))
    for name in IDENTITY_FIXTURES:
        # the README's numeric verification on every identity fixture, with
        # and without averaging the last two partial sums
        base = ("verify", "--fixture", f"@fixtures/{name}.fixture",
                "--mode", "numeric", "--N", "100000")
        out += [(*base, "--format", "structured"), (*base, "--accel", "none")]
    out.append(("verify", "--fixture", "@fixtures/domb_neg32_lower_cube.fixture",
                "--mode", "numeric", "--N", "200", "--tol", "0"))
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            # the degree limit at a sum over two denominators and at a
            # quotient, and cancelled operands that pass it
            ("reduce", "--operator", "S - 1", "--poly", "1/n^400 + 1/(n+1)^400", *f),
            ("reduce", "--operator", "S - 1", "--poly", "1/(n^300)/(n^301)", *f),
            ("classify", "--operator", "1/((n+1)^600)/((n+1)^600) - S", *f),
            ("reduce", "--operator", "S - 1", "--poly",
             "n^600/n^600 + (n+1)^300/(n+1)^300", *f),
            # and at a sum over one shared denominator that no factor cancels
            ("classify", "--operator",
             "(n^301 + S*(n+1))/n^300*n^300 + (n+2)/n^300", *f),
        ]
    for fmt in FORMATS:
        f = ("--format", fmt)
        out += [
            # integers past Python's 4300-digit conversion limit
            ("reduce", "--operator", "S - 1", "--poly", "(2^4096)^4", *f),
            ("classify", "--operator", "(2^4096)^4*S - 1", *f),
        ]
    for name in BAD_FIXTURES:
        # fixtures that lack a field or have a modulus below 1 in primes
        out.append(("verify", "--fixture", f"@golden/{name}", "--mode", "congruence"))
    return [list(argv) for argv in out]


def resolve(argv) -> list:
    """Replace the ``@fixtures/`` and ``@golden/`` prefixes with paths."""
    roots = {"@fixtures/": Path(str(fixtures_dir())), "@golden/": GOLDEN_DIR}
    out = []
    for arg in argv:
        for prefix, root in roots.items():
            if arg.startswith(prefix):
                arg = str(root / arg[len(prefix):])
        out.append(arg)
    return out


def run(argv) -> dict:
    """Run ``cli.main`` in process and capture what it prints; an argparse
    usage error counts as its exit code, with usage lines 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    # a path to the golden directory is written as in argv, for any checkout
    stderr = err.getvalue().replace(str(GOLDEN_DIR), "@golden")
    return {"exit": code, "stdout": out.getvalue(), "stderr": stderr}


# fixtures written with Arabic-Indic digits where the grammar has none
UNICODE_FIXTURES = {
    "unicode_cong.fixture": (
        "sequence = domb_over_16n\nnumer = (n+1)^2\ndenom = n*(n-1)\n"
        "start = \u0662\nprimes = \u0661 mod \u0663\n"
        "target = \u0663/\u0662 mod p^2\n"),
    "unicode_recipe.fixture": (
        "sequence = domb_over_neg32n\n"
        "numer = 15*n^4 + 78*n^3 + 141*n^2 + 103*n + 27\n"
        "denom = (n+1)^2*(n+2)^2\nstart = 0\n"
        "target = \u0660 + \u0661\u0668/pi\n"
        "source_numer = 3*n + 1\nfactor = (n+2)^2\nside = upper\n"
        "order = \u0662\nscalar = \u0661/\u0669\n"),
}

# fixtures that fail to load: a missing field, in the recipe too, and a
# modulus of primes below 1
BAD_FIXTURES = {
    "missing_numer.fixture": "sequence = domb_over_16n\ntarget = 3/2 mod p^2\n",
    "missing_factor.fixture": (
        "sequence = domb_over_neg32n\nnumer = 3*n + 1\ntarget = 0 + 2/pi\n"
        "source_numer = 3*n + 1\nside = upper\norder = 2\nscalar = 1\n"),
    "missing_target.fixture": "sequence = domb_over_16n\nnumer = (n+1)^2\n",
    "primes_mod_zero.fixture": (
        "sequence = domb_over_16n\nnumer = (n+1)^2\ndenom = n*(n-1)\nstart = 2\n"
        "primes = 1 mod 0\ntarget = 3/2 mod p^2\n"),
    "primes_mod_negative.fixture": (
        "sequence = domb_over_16n\nnumer = (n+1)^2\ndenom = n*(n-1)\nstart = 2\n"
        "primes = 1 mod -3\ntarget = 3/2 mod p^2\n"),
}


def write_input_files() -> None:
    files = {"franel_terms.txt": [franel_number(k) for k in range(30)],
             "primes_terms.txt": PRIMES,
             "domb_16n_terms.txt": [Fraction(domb_number(k), 16**k)
                                    for k in range(30)],
             # (-5/7)^n/(n+3) + (3/11)^n
             "mixed_terms.txt": [Fraction(-5, 7)**k / (k + 3) + Fraction(3, 11)**k
                                 for k in range(30)]}
    for name, terms in files.items():
        (GOLDEN_DIR / name).write_text("".join(f"{t}\n" for t in terms))
    for name, text in {**UNICODE_FIXTURES, **BAD_FIXTURES}.items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")


def main() -> None:
    os.environ.pop("HOLOREDUCE_PRECISION_BITS", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    write_input_files()
    entries = [{"argv": argv, **run(resolve(argv))} for argv in cases()]
    GOLDEN_FILE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
