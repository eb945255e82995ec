import logging
import re
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import factorial, prod
from types import SimpleNamespace

import mpmath
import pytest
from mpmath import libmp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import holoreduce.verify as verify_module
from holoreduce import (
    CongruenceFixture,
    HolonomicSequence,
    IdentityFixture,
    Polynomial,
    ShiftOperator,
    check_telescoping,
    fixtures_dir,
    get_sequence,
    load_fixture,
    numeric_series_check,
    rational_reduce,
    rederive,
    sp_expand,
    verify_congruence,
    verify_identity_exact,
)
from holoreduce.errors import (
    DomainViolation,
    HoloreduceError,
    MismatchedSequence,
    NonInvertibleDenominator,
    ParseError,
    PrecisionLoss,
    PrimeFilterViolation,
    SingularLeadingCoefficient,
)
from holoreduce.polynomials import _horner, integer_roots, integer_rows
from holoreduce.reduction import ReductionResult, ShiftProductSpec
from holoreduce.sequences import DOMB_16N_OPERATOR, DOMB_NEG32N_OPERATOR, catalog, load_terms
from holoreduce.verify import (
    _SIGMA,
    _parse_target,
    _residue,
    _resolve,
    _tail_certificate,
    _to_mpf,
    first_valid_index,
    is_prime,
    precision_bits,
)

from conftest import N

ALL_PRIMES = [7, 13, 19, 31, 37, 43]


def fixture(name):
    return load_fixture(str(fixtures_dir() / f"{name}.fixture"))


def derived_scaled_sequence():
    """Domb(n)/(16^n n(n-1)) from n = 2 with its derived annihilator."""
    base = get_sequence("domb_over_16n")
    op = ShiftOperator([
        2 * (N - 1) * N * (N + 1) ** 2,
        -N * (3 + 2 * N) * (12 + 15 * N + 5 * N**2),
        8 * (2 + N) ** 4,
    ])
    return HolonomicSequence(
        op, 2,
        [base.eval(2) / 2, base.eval(3) / 6],
        name="domb_over_16n_scaled",
        oracle=lambda m: base.eval(m) / (m * (m - 1)),
    ), op


class TestTelescoping:
    def test_scaled_16n_boundary_value(self):
        seq, op = derived_scaled_sequence()
        assert check_telescoping(seq, op, Polynomial([1]), (2, 7))
        # closed boundary value for the window [2, p]: the constant 5 plus
        # two p^2-divisible tail terms (both vanish mod p^2)
        p = 7
        us = op.certificate(Polynomial([1]))

        def boundary(m):
            return sum(u.evaluate(m) * seq.eval(m + i)
                       for i, u in enumerate(us))

        value = boundary(2) - boundary(p)
        gp = seq.eval
        assert value == 5 + 2 * p**2 * (2 - 3 * p + p**2) * gp(p - 1) \
            - 8 * p**4 * gp(p)
        num, den = value.numerator, value.denominator
        assert num * pow(den, -1, p**2) % p**2 == 5

    def test_empty_window(self):
        seq, op = derived_scaled_sequence()
        assert check_telescoping(seq, op, Polynomial([1]), (4, 4))

    def test_franel_window_against_direct_sums(self):
        seq = get_sequence("franel_example22")
        op = seq.operator
        x = Polynomial([1])  # recovers the summable multiple 2 - 3n
        assert op.adjoint_apply(x) == 2 - 3 * N
        assert check_telescoping(seq, op, x, (2, 30))
        # independent oracle: accumulate the summand directly
        us = op.certificate(x)
        image = op.adjoint_apply(x)
        direct = sum(image.evaluate(m) * seq.eval(m) for m in range(2, 30))
        by_parts = sum(u.evaluate(2) * seq.eval(2 + i)
                       for i, u in enumerate(us)) \
            - sum(u.evaluate(30) * seq.eval(30 + i)
                  for i, u in enumerate(us))
        assert direct == by_parts

    def test_domain_violation(self):
        seq = get_sequence("franel_example22")
        with pytest.raises(DomainViolation):
            check_telescoping(seq, seq.operator, Polynomial([1]), (0, 5))

    def test_scale_invariance(self, rng):
        seq = get_sequence("domb_over_neg32n")
        x = Polynomial([2, 1])
        for c in (Fraction(3), Fraction(-5, 7)):
            assert check_telescoping(seq, seq.operator, x, (0, 40)) == \
                check_telescoping(seq, seq.operator, c * x, (0, 40))


class TestIdentityExact:
    def test_domb_neg32_upper_sq_against_source(self):
        fix = fixture("domb_neg32_upper_sq")
        source = fixture("domb_neg32_base")
        rr = rederive(fix, source)
        assert verify_identity_exact(fix, source, rr, window_length=100)

    def test_source_against_itself_trivially(self):
        source = fixture("domb_neg32_base")
        seq = get_sequence(source.sequence_key)
        rr = rational_reduce(source.numer, seq.operator, Polynomial([1]),
                             "upper", 2)
        # degree 1 < deg L: nothing reduces, zero certificate
        assert rr.reduction.multiplier.is_zero()
        fix = IdentityFixture(
            sequence_key=source.sequence_key,
            numer=rr.remainder_numer,
            denom=Polynomial([1]),
            start_index=0,
            target_r0=Fraction(0),
            target_r1=Fraction(2),
        )
        assert verify_identity_exact(fix, source, rr, window_length=60)

    def test_domb_neg32_lower_sq_offset_bookkeeping(self):
        fix = fixture("domb_neg32_lower_sq")
        source = fixture("domb_neg32_base")
        rr = rederive(fix, source)
        assert first_valid_index(fix, rr) == 2
        assert verify_identity_exact(fix, source, rr, window_length=100)

    def test_mismatched_sequence(self):
        fix = fixture("domb_neg32_upper_sq")
        source = IdentityFixture(
            sequence_key="franel", numer=3 * N + 1, denom=Polynomial([1]),
            start_index=0, target_r0=Fraction(0), target_r1=Fraction(0),
        )
        rr = rederive(fix, None)
        with pytest.raises(MismatchedSequence):
            verify_identity_exact(fix, source, rr)

    def test_negative_window_rejected(self):
        fix = fixture("domb_neg32_upper_sq")
        source = fixture("domb_neg32_base")
        rr = rederive(fix, source)
        with pytest.raises(ValueError, match="window length must be >= 0"):
            verify_identity_exact(fix, source, rr, window_length=-5)
        assert verify_identity_exact(fix, source, rr, window_length=0)

    def test_detects_wrong_numerator(self):
        fix = fixture("domb_neg32_upper_sq")
        source = fixture("domb_neg32_base")
        rr = rederive(fix, source)
        broken = IdentityFixture(
            sequence_key=fix.sequence_key,
            numer=fix.numer + 1,
            denom=fix.denom,
            start_index=fix.start_index,
            target_r0=fix.target_r0,
            target_r1=fix.target_r1,
            recipe=fix.recipe,
        )
        assert not verify_identity_exact(broken, source, rr)


class TestNumeric:
    def test_base_series_with_averaging(self):
        report = numeric_series_check(fixture("domb_neg32_base"), 3000)
        assert report["abs_error"] < 1e-4

    def test_leibniz_tail_bound(self):
        # exact partial sums: the truncation error of an alternating series
        # with decreasing magnitudes is at most the first omitted term
        fix = fixture("domb_neg32_base")
        seq = get_sequence(fix.sequence_key)
        exact = sum(
            (fix.numer.evaluate(m) * seq.eval(m) for m in range(100)),
            Fraction(0),
        )
        omitted = abs(fix.numer.evaluate(100) * seq.eval(100))
        with mpmath.workprec(300):
            target = 2 / mpmath.pi
            err = abs(mpmath.mpf(exact.numerator) / exact.denominator - target)
            assert err <= mpmath.mpf(omitted.numerator) / omitted.denominator
        report = numeric_series_check(fix, 100, accel="none", precision=300)
        with mpmath.workprec(300):
            assert report["abs_error"] <= \
                mpmath.mpf(omitted.numerator) / omitted.denominator

    def test_minimum_terms(self):
        with pytest.raises(ValueError):
            numeric_series_check(fixture("domb_neg32_upper_sq"), 50)

    def test_exact_numeric_coherence(self):
        fix = fixture("domb_neg32_upper_sq")
        seq = get_sequence(fix.sequence_key)
        n_terms = 1000
        exact = Fraction(0)
        for m in range(n_terms):
            exact += fix.numer.evaluate(m) / fix.denom.evaluate(m) * seq.eval(m)
        report = numeric_series_check(fix, n_terms, accel="none")
        with mpmath.workprec(96):
            exact_mpf = mpmath.mpf(exact.numerator) / exact.denominator
            rel = abs(report["value"] - exact_mpf) / abs(exact_mpf)
            assert rel < mpmath.mpf(2) ** -50

    def test_bracket_refinement(self):
        fix = fixture("domb_neg32_upper_sq_order3")
        small = numeric_series_check(fix, 300)
        large = numeric_series_check(fix, 600)
        assert large["abs_error"] <= small["abs_error"] + 1e-6

    def test_precision_env_var(self, monkeypatch):
        monkeypatch.setenv("HOLOREDUCE_PRECISION_BITS", "150")
        report = numeric_series_check(fixture("domb_neg32_base"), 200)
        assert report["precision_bits"] == 150
        monkeypatch.setenv("HOLOREDUCE_PRECISION_BITS", "junk")
        report = numeric_series_check(fixture("domb_neg32_base"), 200)
        assert report["precision_bits"] == 96
        # Arabic-Indic 150, which int() reads, is junk as well
        monkeypatch.setenv("HOLOREDUCE_PRECISION_BITS", "\u0661\u0665\u0660")
        assert precision_bits() == 96


def _reference_int_coeffs(poly):
    """Coefficients as plain ints, or None if any is non-integral."""
    out = []
    for c in poly.coeffs:
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def _int_horner(coeffs, m):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


def _reference_numeric_values(seq, upto):
    """F(start), ..., F(upto) as mpf values via the forward recurrence.

    An mpf walk of its own, independent of the package's stepper, for
    _reference_numeric_series_check: integer coefficient rows when the
    operator has them, else each Fraction coefficient rounded to mpf.  A
    given value (an initial value, an override, or the oracle where a_J
    vanishes) is read exactly and rounded."""
    if seq.operator is None:
        return [_to_mpf(seq.eval(m)) for m in range(seq.start_index, upto + 1)]
    j_ord = seq.operator.order
    coeffs = seq.operator.coeffs
    values = []
    for i in range(min(j_ord, upto - seq.start_index + 1)):
        values.append(_to_mpf(seq.eval(seq.start_index + i)))
    int_coeffs = [_reference_int_coeffs(c) for c in coeffs]
    fast = all(ic is not None for ic in int_coeffs)
    base = seq.start_index
    m = base
    while len(values) <= upto - seq.start_index:
        if fast:
            cs = [_int_horner(ic, m) for ic in int_coeffs]
        else:
            cs = [c.evaluate(m) for c in coeffs]
        lead = cs[j_ord]
        t = m + j_ord
        if lead == 0 or t in seq.overrides or t < base + len(seq._initial):
            values.append(_to_mpf(seq.eval(t)))
        else:
            acc = mpmath.mpf(0)
            for i in range(j_ord):
                ci = cs[i]
                if ci:
                    acc += (ci if fast else _to_mpf(ci)) * values[m + i - base]
            acc = -acc / lead if fast else -acc / _to_mpf(lead)
            values.append(acc)
        m += 1
    return values


class TestCongruence:
    def test_linear_sum_vanishes(self):
        reports = verify_congruence(fixture("domb_16n_linear_cong"), ALL_PRIMES)
        assert [r["prime"] for r in reports] == ALL_PRIMES
        assert all(r["residue"] == 0 and r["ok"] for r in reports)

    def test_rational_sum_is_three_halves(self):
        reports = verify_congruence(fixture("domb_16n_rational_cong"), ALL_PRIMES)
        for r in reports:
            assert r["ok"]
            assert r["residue"] == (3 * pow(2, -1, r["modulus"])) % r["modulus"]

    def test_empty_sum(self):
        fix = CongruenceFixture(
            sequence_key="domb_over_16n", numer=Polynomial([1]),
            denom=Polynomial([1]), start_index=100, target=Fraction(0),
        )
        reports = verify_congruence(fix, [7])
        assert reports[0]["residue"] == 0 and reports[0]["ok"]

    def test_prime_filter(self):
        with pytest.raises(PrimeFilterViolation):
            verify_congruence(fixture("domb_16n_linear_cong"), [5])
        with pytest.raises(PrimeFilterViolation):
            verify_congruence(fixture("domb_16n_linear_cong"), [49])

    def test_no_primes(self):
        # checking no prime proves nothing, so it is a usage error, not a pass
        for primes in ([], (), iter([])):
            with pytest.raises(ValueError, match="no primes to check"):
                verify_congruence(fixture("domb_16n_linear_cong"), primes)

    def test_noninvertible_denominator(self):
        fix = CongruenceFixture(
            sequence_key="domb_over_16n", numer=Polynomial([1]),
            denom=N + 7, start_index=0, target=Fraction(0),
        )
        with pytest.raises(NonInvertibleDenominator):
            verify_congruence(fix, [7])

    def test_pipeline_consistency(self):
        # the rational congruence equals (5 + linear sum from n=2)/2 mod p^2
        seq = get_sequence("domb_over_16n")
        for p in ALL_PRIMES:
            modulus = p * p

            def residue(q):
                return q.numerator * pow(q.denominator, -1, modulus) % modulus

            direct = sum(
                residue((m + 1) ** 2 * seq.eval(m) / (m * (m - 1)))
                for m in range(2, p)
            ) % modulus
            linear = sum(
                residue((3 * m + 1) * seq.eval(m)) for m in range(2, p)
            ) % modulus
            assert direct == (5 + linear) * pow(2, -1, modulus) % modulus


class TestFixtureFiles:
    def test_all_fixtures_load(self):
        labels = set()
        for name in ("domb_neg32_base", "domb_neg32_upper_sq", "domb_neg32_upper_cube", "domb_neg32_lower_sq", "domb_neg32_lower_cube", "domb_neg32_upper_sq_order3",
                     "domb_16n_linear_cong", "domb_16n_rational_cong"):
            fix = fixture(name)
            labels.add(fix.label)
        assert len(labels) == 8

    def test_identity_targets(self):
        assert _parse_target("0 + 2/pi") == ("identity", 0, 2)
        assert _parse_target("80 - 162/pi") == ("identity", 80, -162)
        assert _parse_target("-217/8 + 162/pi") == \
            ("identity", Fraction(-217, 8), 162)
        assert _parse_target("33/4 - 18/pi") == \
            ("identity", Fraction(33, 4), -18)

    def test_congruence_targets(self):
        assert _parse_target("0 mod p^2") == ("congruence", 0)
        assert _parse_target("3/2 mod p^2") == ("congruence", Fraction(3, 2))

    def test_bad_target(self):
        with pytest.raises(ValueError):
            _parse_target("2*zeta(3)")

    @pytest.mark.parametrize("text", [
        "\u0663/\u0662 mod p^2", "\u0660 + \u0661\u0668/pi", "0 + \u0661\u0668/pi",
        "\u0661\u0668/pi", "0.5 + 2/pi", "1e1 mod p^2"])
    def test_target_takes_ascii_rationals_only(self, text):
        # Fraction() reads each of these
        with pytest.raises(ValueError, match=r"^bad rational .* in target$"):
            _parse_target(text)

    @pytest.mark.parametrize("key, value, message", [
        ("start", "\u0662", "bad integer '\u0662' for start"),
        ("primes", "\u0661 mod \u0663", "bad integer '\u0661' in primes"),
        ("primes", "1 mod 3_0", "bad integer '3_0' in primes"),
        ("target", "\u0663/\u0662 mod p^2", "bad rational '\u0663/\u0662' in target"),
        ("order", "\u0662", "bad integer '\u0662' for order"),
        ("scalar", "\u0661/\u0669", "bad rational '\u0661/\u0669' for scalar"),
    ])
    def test_fixture_numbers_take_ascii_digits_only(self, tmp_path, key, value,
                                                    message):
        fields = {"sequence": "domb_over_16n", "numer": "(n+1)^2",
                  "denom": "n*(n-1)", "start": "2", "primes": "1 mod 3",
                  "target": "3/2 mod p^2", "source_numer": "3*n + 1",
                  "factor": "n + 1", "side": "lower", "order": "2", "scalar": "2"}
        path = tmp_path / "f.fixture"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()),
                        encoding="utf-8")
        assert load_fixture(str(path)).start_index == 2
        fields[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()),
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_fixture(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("key, value, message", [
        *((k, None, f"missing field '{k}'") for k in
          ("sequence", "numer", "target", "factor", "side", "order", "scalar")),
        ("primes", "1 mod 0", "modulus 0 in primes is below 1"),
        ("primes", "1 mod -3", "modulus -3 in primes is below 1"),
    ])
    def test_fixture_errors_name_their_cause(self, tmp_path, key, value, message):
        fields = {"sequence": "domb_over_16n", "numer": "(n+1)^2",
                  "denom": "n*(n-1)", "start": "2", "primes": "1 mod 3",
                  "target": "3/2 mod p^2", "source_numer": "3*n + 1",
                  "factor": "n + 1", "side": "lower", "order": "2", "scalar": "2"}
        fields[key] = value
        path = tmp_path / "f.fixture"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items() if v))
        with pytest.raises(ValueError) as err:
            load_fixture(str(path))
        assert str(err.value) == f"{path}: {message}"

    def test_domb_neg32_lower_sq_metadata(self):
        fix = fixture("domb_neg32_lower_sq")
        assert fix.start_index == 2
        assert fix.target_r0 == Fraction(33, 4)
        assert fix.target_r1 == -18
        assert fix.recipe.scalar == Fraction(-1, 9)
        assert fix.denom == N**2 * (N - 1) ** 2


# What the command line maps to exit 2; a fixture parser may raise nothing else.
USAGE_ERRORS = (ValueError, KeyError, ZeroDivisionError, HoloreduceError)

_TARGET_TOKENS = st.sampled_from(
    ["0", "1", "2", "18", "-", "+", " ", "/", "/pi", "pi", "mod p^2", "mod p",
     "3/2", "1/0", "0/0", "*", ".", "e", "_", "1e3", "\t"])
_TARGETS = st.one_of(st.text(max_size=40),
                     st.lists(_TARGET_TOKENS, max_size=10).map("".join))
_FIXTURE_KEYS = ["sequence", "numer", "denom", "start", "target", "label",
                 "primes", "source_numer", "factor", "side", "order", "scalar", "x"]
_VALUE_TOKENS = st.sampled_from(
    ["n", "S", "1", "-2", "3/2", "0", "+", "*", "^", "(", ")", "/", " ", "#",
     "=", "mod", "pi", "/pi", "mod p^2", "domb", "lower", "upper", "1/0"])
_VALUES = st.one_of(st.text(max_size=20),
                    st.lists(_VALUE_TOKENS, max_size=8).map("".join))
_LINES = st.one_of(
    st.tuples(st.sampled_from(_FIXTURE_KEYS), _VALUES).map(" = ".join),
    st.text(max_size=30),
)
_FIXTURE_TEXTS = st.one_of(st.lists(_LINES, max_size=14).map("\n".join),
                           st.text(max_size=200))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFixtureParserFuzz:
    """Every input parses or raises an error the command line reports as
    a usage error (exit 2)."""

    @given(text=_TARGETS)
    @settings(max_examples=400, deadline=None)
    def test_parse_target(self, text):
        try:
            kind, *values = _parse_target(text)
        except USAGE_ERRORS:
            return
        assert kind in ("identity", "congruence")
        assert all(isinstance(v, Fraction) for v in values)

    @given(text=_FIXTURE_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_load_fixture(self, fuzz_dir, text):
        # unlinked after reading, so that every example writes a new file:
        # rewriting one file costs a flush on some file systems (ext4
        # flushes a truncated file on close)
        path = fuzz_dir / "fuzz.fixture"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        try:
            fix = load_fixture(str(path))
        except USAGE_ERRORS:
            return
        finally:
            path.unlink()
        assert isinstance(fix, (IdentityFixture, CongruenceFixture))

    def test_well_formed_fixture_parses(self, fuzz_dir):
        # the structured strategy can build a valid fixture
        path = fuzz_dir / "valid.fixture"
        path.write_text("sequence = domb\nnumer = n\ntarget = 1 + 2/pi\n")
        fix = load_fixture(str(path))
        assert (fix.target_r0, fix.target_r1) == (1, 2)


# -- every series term through HolonomicSequence.series_terms ---------------
#
# The summand loops that series_terms replaced, kept verbatim as the
# oracle: cli._cmd_sum, check_telescoping, verify_identity_exact,
# numeric_series_check and verify_congruence, with the two helpers
# (_after_roots, is_prime) that changed alongside them.


def _reference_sum(seq, numer, denom, lower, upper):
    total = Fraction(0)
    for m in range(lower, upper + 1):
        d = denom.evaluate(m)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at n = {m}")
        total += numer.evaluate(m) / d * seq.eval(m)
    return total


def _reference_check_telescoping(seq, op, x, window):
    seq = _resolve(seq)
    a, b = window
    if b < a or a < seq.start_index:
        raise DomainViolation(f"window [{a}, {b}] outside domain of {seq.name}")
    image = op.adjoint_apply(x)
    us = op.certificate(x)
    lhs = sum((image.evaluate(m) * seq.eval(m) for m in range(a, b)), Fraction(0))

    def boundary(m):
        return sum(
            (u.evaluate(m) * seq.eval(m + i) for i, u in enumerate(us)),
            Fraction(0),
        )

    return lhs == boundary(a) - boundary(b)


def _reference_after_roots(sp, start):
    roots = [r for r in integer_roots(sp) if r >= start] if not sp.is_zero() else []
    return max(roots) + 1 if roots else start


def _reference_verify_identity_exact(fix, source, rr, window_length=200):
    if window_length < 0:
        raise ValueError(f"window length must be >= 0, got {window_length}")
    if fix.sequence_key != source.sequence_key:
        raise MismatchedSequence(
            f"{fix.sequence_key} vs {source.sequence_key}")
    seq = _resolve(fix.sequence_key)
    sp = rr.denominator

    if fix.recipe is not None:
        if rr.remainder_numer != fix.recipe.scalar * fix.numer:
            return False
        if sp != fix.denom:
            return False
    q = source.numer * sp
    if rr.derived_operator.adjoint_apply(rr.reduction.multiplier) \
            + rr.remainder_numer != q:
        return False

    us = rr.reduction.certificate
    a = max(_reference_after_roots(sp, fix.start_index), source.start_index,
            seq.start_index)
    values = seq.values(a, a + window_length + len(us))
    g = [v / sp.evaluate(m) for m, v in enumerate(values, start=a)]

    def t_value(m):
        return -sum(
            (u.evaluate(m) * g[m - a + i] for i, u in enumerate(us)), Fraction(0)
        )

    diff_sum = Fraction(0)
    t_a = t_value(a)
    for b in range(a, a + window_length + 1):
        diff_sum += (
            source.numer.evaluate(b) / source.denom.evaluate(b) * values[b - a]
            - rr.remainder_numer.evaluate(b) * g[b - a]
        )
        if diff_sum != t_value(b + 1) - t_a:
            return False
    return True


def _reference_numeric_series_check(fix, n_terms, accel="average1", precision=None):
    if n_terms < 100:
        raise ValueError("need at least 100 terms")
    if accel not in ("none", "average1"):
        raise ValueError(f"unknown acceleration {accel!r}")
    bits = precision if precision is not None else precision_bits()
    seq = _resolve(fix.sequence_key)
    if fix.start_index < seq.start_index:
        raise DomainViolation(
            f"fixture starts at {fix.start_index}, sequence at {seq.start_index}")
    with mpmath.workprec(bits):
        last = fix.start_index + n_terms - 1
        values = _reference_numeric_values(seq, last)
        # numer/denom is unchanged when both are scaled by one integer
        _, (num_row, den_row) = integer_rows([fix.numer, fix.denom])
        total = mpmath.mpf(0)
        prev = total
        max_mag = mpmath.mpf(0)
        for n in range(fix.start_index, last + 1):
            coef = mpmath.mpf(_horner(num_row, n)) / _horner(den_row, n)
            prev = total
            total += coef * values[n - seq.start_index]
            max_mag = max(max_mag, abs(total))
        value = (total + prev) / 2 if accel == "average1" else total
        if max_mag > (abs(value) + 1) * mpmath.mpf(2) ** (bits - 20):
            raise PrecisionLoss(
                f"partial sums reached {max_mag} against result {value}")
        target = mpmath.mpf(fix.target_r0.numerator) / fix.target_r0.denominator
        target += (mpmath.mpf(fix.target_r1.numerator)
                   / fix.target_r1.denominator) / mpmath.pi
        return {
            "value": value,
            "target": target,
            "abs_error": abs(value - target),
            "terms": n_terms,
            "precision_bits": bits,
            "accel": accel,
        }


def _reference_is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _reference_verify_congruence(fix, primes):
    reports = []
    seq = _resolve(fix.sequence_key)
    r, mod = fix.prime_residue
    for p in sorted(primes):
        if not _reference_is_prime(p) or p % mod != r % mod:
            raise PrimeFilterViolation(
                f"{p} is not a prime with p = {r} mod {mod}")
        modulus = p**fix.modulus_power
        acc = 0
        for n in range(fix.start_index, p):
            den = fix.denom.evaluate(n)
            if den == 0:
                raise NonInvertibleDenominator(f"denominator vanishes at n = {n}")
            term = fix.numer.evaluate(n) / den * seq.eval(n)
            acc = (acc + _residue(term, modulus)) % modulus
        target = _residue(fix.target, modulus)
        reports.append({
            "prime": p,
            "modulus": modulus,
            "residue": acc,
            "target": target,
            "ok": acc == target,
        })
    return reports


def _bits_of(report):
    return {k: v._mpf_ if isinstance(v, mpmath.mpf) else v
            for k, v in report.items()}


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and message of its error."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the class is what is compared
        return type(err), str(err)


_KEYS = sorted(entry.key for entry in catalog())
_OPERATOR_KEYS = [k for k in _KEYS if get_sequence(k).operator is not None]
_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=3)
_POLYS = st.lists(_COEFFS, max_size=4).map(Polynomial)


@st.composite
def _summands(draw, keys=_KEYS):
    """(sequence key, numer, denom, a, b): windows start below, at or above
    the sequence's start index, and some denominators have integer roots
    inside the window."""
    key = draw(st.sampled_from(keys))
    a = get_sequence(key).start_index + draw(st.integers(-3, 5))
    b = a + draw(st.integers(-2, 24))
    # a root a multiple of p away from an index makes a term that has no
    # inverse mod p^2 in verify_congruence
    roots = st.lists(st.integers(a - 2, b + 14), min_size=1, max_size=3)
    denom = draw(st.one_of(
        st.just(Polynomial([1])),
        _POLYS,
        st.tuples(_COEFFS.filter(bool), roots).map(
            lambda cr: cr[0] * prod((N - r for r in cr[1]), start=Polynomial([1]))),
    ))
    return key, draw(_POLYS), denom, a, b


_IDENTITY_FIXTURES = ["domb_neg32_base", "domb_neg32_lower_cube",
                      "domb_neg32_lower_sq", "domb_neg32_upper_cube",
                      "domb_neg32_upper_sq", "domb_neg32_upper_sq_order3"]
# every fixture that records how it was derived
_RECIPE_FIXTURES = _IDENTITY_FIXTURES[1:] + ["domb_16n_rational_cong"]


class TestSeriesTermsDifferential:
    @given(case=_summands())
    @settings(max_examples=400, deadline=None)
    def test_sum(self, case):
        key, numer, denom, a, b = case
        seq = get_sequence(key)
        want = _outcome(_reference_sum, seq, numer, denom, a, b)
        got = _outcome(lambda: sum(seq.series_terms(numer, denom, a, b),
                                   Fraction(0)))
        assert got == want

    @given(case=_summands(_OPERATOR_KEYS), x=_POLYS)
    @settings(max_examples=200, deadline=None)
    def test_check_telescoping(self, case, x):
        key, _, _, a, b = case
        seq = get_sequence(key)
        args = (seq, seq.operator, x, (a, b))
        assert _outcome(check_telescoping, *args) == \
            _outcome(_reference_check_telescoping, *args)

    @given(case=_summands(), target=_COEFFS,
           primes=st.lists(st.sampled_from([5, 7, 13, 19, 31, 37, 49]),
                           max_size=3, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_congruence(self, case, target, primes):
        key, numer, denom, a, _ = case
        fix = CongruenceFixture(sequence_key=key, numer=numer, denom=denom,
                                start_index=a, target=target)
        want = _outcome(_reference_verify_congruence, fix, primes)
        if isinstance(want, tuple) and want[0] is NonInvertibleDenominator \
                and "vanishes" in want[1]:
            # the one declared change: a vanishing denominator is a
            # ZeroDivisionError, as in every other channel
            want = (ZeroDivisionError, want[1])
        if not primes:
            # declared change: checking no prime is a usage error, not a pass
            assert want == []
            want = (ValueError, "no primes to check")
        assert _outcome(verify_congruence, fix, primes) == want

    @pytest.mark.parametrize("name", _RECIPE_FIXTURES)
    def test_identity_exact(self, name):
        fix = fixture(name)
        seq = get_sequence(fix.sequence_key)
        source = IdentityFixture(
            sequence_key=fix.sequence_key, numer=fix.recipe.source_numer,
            denom=Polynomial([1]), start_index=seq.start_index,
            target_r0=Fraction(0), target_r1=Fraction(0))
        rr = rederive(fix, source)
        a = first_valid_index(fix, rr)
        sources = [
            source,
            replace(source, start_index=a + 3),
            replace(source, denom=N + 100),      # fails inside the window
            replace(source, denom=N - (a + 3)),  # fails before it vanishes
            replace(source, numer=source.numer + 1),
        ]
        for src in sources:
            for window in (-1, 0, 1, 7, 40):
                args = (fix, src, rr, window)
                assert _outcome(verify_identity_exact, *args) == \
                    _outcome(_reference_verify_identity_exact, *args)
        assert verify_identity_exact(fix, source, rr, 40)

    @pytest.mark.parametrize("bits", [96, 192])
    def test_numeric_bit_identical(self, bits):
        # a series without a tail certificate walks the stepper on an mpf
        # state: an override past the last index summed takes the
        # certificate away and changes no term.  The value lies within the
        # stepper's error bound of the exact partial sum, and the rest of
        # the report is the reference's
        seq = HolonomicSequence(DOMB_NEG32N_OPERATOR, 0, [1, Fraction(-1, 8)],
                                overrides={10**6: Fraction(1)})
        for name in _IDENTITY_FIXTURES:
            fix = replace(fixture(name), sequence_key=seq)
            for accel in ("none", "average1"):
                args = (fix, 2000, accel, bits)
                got = numeric_series_check(*args)
                _assert_within_stepper_bound(got, *args)
                want = _bits_of(_reference_numeric_series_check(*args))
                assert {k: v for k, v in _bits_of(got).items()
                        if k not in ("value", "abs_error")} == \
                    {k: v for k, v in want.items()
                     if k not in ("value", "abs_error")}, (name, accel)

    @pytest.mark.parametrize("name", ["domb_16n_linear_cong",
                                      "domb_16n_rational_cong"])
    def test_congruence_every_prime_to_1500(self, name):
        primes = [p for p in range(7, 1501, 6) if _reference_is_prime(p)]
        assert len(primes) == 115
        fix = fixture(name)
        assert verify_congruence(fix, primes) == \
            _reference_verify_congruence(fix, primes)

    def test_is_prime(self):
        assert [p for p in range(-3, 5000) if is_prime(p)] == \
            [p for p in range(-3, 5000) if _reference_is_prime(p)]


class TestVanishingDenominator:
    def test_numeric(self):
        fix = IdentityFixture(
            sequence_key="domb_over_neg32n", numer=Polynomial([1]), denom=N - 3,
            start_index=0, target_r0=Fraction(1), target_r1=Fraction(2))
        with pytest.raises(ZeroDivisionError, match=r"^denominator vanishes at n = 3$"):
            numeric_series_check(fix, 200)

    def test_congruence(self):
        fix = CongruenceFixture(
            sequence_key="domb_over_16n", numer=Polynomial([1]), denom=N - 3,
            start_index=0, target=Fraction(0))
        with pytest.raises(ZeroDivisionError, match=r"^denominator vanishes at n = 3$"):
            verify_congruence(fix, [7])

    def test_congruence_error_order(self):
        # at n = 3 the term 1/((3-5)(3-10)) * F(3) = 1/224 has no inverse
        # mod 49; that comes before the denominator vanishing at n = 5
        fix = CongruenceFixture(
            sequence_key="domb_over_16n", numer=Polynomial([1]),
            denom=(N - 5) * (N - 10), start_index=0, target=Fraction(0))
        with pytest.raises(NonInvertibleDenominator, match="224"):
            verify_congruence(fix, [7])


def test_input_files_number_lines_alike(tmp_path):
    # comments and blank lines count in the line number of an error
    layout = "# header\n\n   # indented\n{good}\n  \n{good} # trailing\n{bad}\n"
    fixture_path, terms_path = tmp_path / "f.fixture", tmp_path / "terms.txt"
    fixture_path.write_text(layout.format(good="label = x", bad="no equals sign"))
    terms_path.write_text(layout.format(good="1", bad="x"))
    with pytest.raises(ValueError) as fixture_err:
        load_fixture(str(fixture_path))
    with pytest.raises(ValueError) as terms_err:
        load_terms(terms_path)
    assert str(fixture_err.value) == f"{fixture_path}:7: expected key = value"
    assert str(terms_err.value) == f"{terms_path}:7: bad term 'x'"


def test_load_fixture_nesting_limit(tmp_path):
    path = tmp_path / "deep.fixture"
    for depth, ok in ((128, True), (129, False)):
        numer = "(" * depth + "n" + ")" * depth
        path.write_text(f"sequence = domb\nnumer = {numer}\ntarget = 1 + 2/pi\n")
        if ok:
            assert load_fixture(str(path)).numer == N
        else:
            with pytest.raises(ParseError) as err:
                load_fixture(str(path))
            assert err.value.position == 128


class TestCongruenceAcrossPrimes:
    # one term list grows over the sorted primes; each prime still sees the
    # errors in the order of a walk over its whole window

    @pytest.mark.parametrize("c, primes, want", [
        # 3/190 at n = 0 has no inverse mod 19^2: before n = 10
        (19, [7, 19], NonInvertibleDenominator),
        (12, [7, 19], ZeroDivisionError),
        (12, [7, 19, 9], PrimeFilterViolation),
    ])
    def test_error_order(self, c, primes, want):
        fix = CongruenceFixture(
            sequence_key="domb_over_16n", numer=N - 3, denom=(N - 10) * (N + c),
            start_index=0, target=Fraction(0))
        got = _outcome(verify_congruence, fix, primes)
        assert got[0] is want
        ref = _outcome(_reference_verify_congruence, fix, primes)
        if ref[0] is NonInvertibleDenominator and "vanishes" in ref[1]:
            ref = (ZeroDivisionError, ref[1])
        assert got == ref

    def test_error_of_f_before_earlier_residues(self):
        # every term is F(n)/31, which has no inverse mod 31^2; the index 22
        # has no value (a_J(20) = 0, no oracle), and that error comes first
        seq = HolonomicSequence(
            ShiftOperator([Polynomial([1]), Polynomial([1]), N - 20]), 0, [1, 1])
        fix = CongruenceFixture(sequence_key=seq, numer=Polynomial([Fraction(1, 31)]),
                                denom=Polynomial([1]), start_index=0,
                                target=Fraction(0))
        assert verify_congruence(fix, [7])[0]["prime"] == 7
        with pytest.raises(SingularLeadingCoefficient, match="index 22"):
            verify_congruence(fix, [7, 31])


class TestExactTermBranch:
    """Where p divides the cleared denominator b = denom(n) * F(n).denominator,
    verify_congruence reduces the exact term with _residue instead of
    folding a * b^-1; the term may still be p-integral."""

    @staticmethod
    def _count_residues(monkeypatch):
        moduli = []

        def counting(q, modulus):
            moduli.append(modulus)
            return _residue(q, modulus)

        monkeypatch.setattr(verify_module, "_residue", counting)
        return moduli

    @pytest.mark.parametrize("p", [7, 13, 19])
    @pytest.mark.parametrize("c", [N + 1, Polynomial([1729])])
    def test_p_integral_term(self, monkeypatch, p, c):
        # c/c * F(n): p divides b at n = p - 1 for c = n + 1, and at every
        # n for c = 1729 = 7 * 13 * 19
        fix = CongruenceFixture(sequence_key="domb_over_16n", numer=c, denom=c,
                                start_index=0, target=Fraction(3, 2))
        want = _reference_verify_congruence(fix, [p])
        moduli = self._count_residues(monkeypatch)
        assert verify_congruence(fix, [p]) == want
        exact_terms = p if c.degree == 0 else 1
        assert moduli == [p * p] * (exact_terms + 1)  # and the target

    @pytest.mark.parametrize("p, exact_terms", [(7, 7), (13, 1), (19, 1)])
    def test_not_p_integral(self, monkeypatch, p, exact_terms):
        # 7/(7(n+1)) * F(n): at n = p - 1 the reduced term F(p-1)/p has no
        # inverse mod p^2; at p = 7 every term takes the exact branch
        fix = CongruenceFixture(sequence_key="domb_over_16n",
                                numer=Polynomial([7]), denom=7 * (N + 1),
                                start_index=0, target=Fraction(0))
        want = _outcome(_reference_verify_congruence, fix, [p])
        assert want[0] is NonInvertibleDenominator
        moduli = self._count_residues(monkeypatch)
        assert _outcome(verify_congruence, fix, [p]) == want
        assert moduli == [p * p] * exact_terms
        if p == 7:
            assert want[1] == "denominator 1835008 shares a factor with 49"


_SUMMED = re.compile(r"^numeric series (\S+): summed (\d+) of (\d+) terms; (.*)$")


def _summed(caplog):
    """(terms summed, terms requested, note) of each numeric check logged."""
    out = []
    for record in caplog.records:
        if record.name == "holoreduce.verify":
            _, k, n, note = _SUMMED.match(record.getMessage()).groups()
            out.append((int(k), int(n), note))
    return out


def _check_certificate(seq, numer, denom, m0, rho, count):
    """Both inequalities and the signs, evaluated at m0, ..., m0 + count."""
    *low, lead = integer_rows(seq.operator.coeffs)[1]
    _, (num, den) = integer_rows([numer, denom])
    assert _SIGMA ** len(low) * rho < 1
    for m in range(m0, m0 + count + 1):
        for row in (lead, num, den, *(r for r in low if any(r))):
            value = _horner(row, m)
            assert value != 0 and (value > 0) == (row[-1] > 0), (row, m)
        ratio = sum(abs(_horner(r, m)) for r in low)
        assert ratio * rho.denominator <= rho.numerator * abs(_horner(lead, m))
        h0 = abs(_horner(num, m)) * abs(_horner(den, m + 1))
        h1 = abs(_horner(num, m + 1)) * abs(_horner(den, m))
        assert h1 * _SIGMA.denominator <= _SIGMA.numerator * h0


def _reference_positive_part(p):
    return p if p.leading_coefficient > 0 else -p


def _reference_positive_from(p, m):
    cs = p.shift(m).coeffs
    return cs[0] > 0 and min(cs) >= 0


def _reference_tail_certificate(seq, numer, denom, lo, last, bits):
    """_tail_certificate on Fraction polynomials and their Taylor shifts."""
    if seq.operator is None:
        return "the sequence has no recurrence"
    if not numer or not denom:
        return "numer or denom is zero"
    *low, lead = (_reference_positive_part(a) if a else a
                  for a in seq.operator.coeffs)
    j = len(low)
    if j == 0:
        return "the recurrence has order 0"
    hi = last - j
    if any(a.degree > lead.degree for a in low if a):
        return "sum |a_i| / |a_J| is unbounded"
    limit = sum((a.leading_coefficient for a in low if a.degree == lead.degree),
                Fraction(0)) / lead.leading_coefficient
    if limit >= 1:
        return f"sum |a_i| / |a_J| tends to {limit} >= 1"
    rho = (3 * limit + 1) / 4
    # a step of the recurrence rounds J + 1 times
    if _SIGMA**j * rho * (1 + Fraction(1, 2**bits))**(j + 1) >= 1:
        return f"rho = {rho} is too close to 1"
    num, den = _reference_positive_part(numer), _reference_positive_part(denom)
    # the two inequalities first: they fail longest, and holds() stops early
    checks = [num * den.shift(1) * _SIGMA - num.shift(1) * den,
              lead * rho - sum(low, Polynomial()),
              lead, num, den, *(a for a in low if a)]

    def holds(m):
        return all(_reference_positive_from(p, m) for p in checks)

    if hi < lo or not holds(hi):
        return f"no m0 in [{lo}, {hi}]"
    bad, good, step = lo - 1, hi, 1  # holds(good), and not holds(bad) or bad < lo
    while bad + step < good:
        if holds(bad + step):
            good = bad + step
            break
        bad, step = bad + step, 2 * step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if holds(mid) else (mid, good)
    late = [k for k in seq.overrides if k >= good]
    if late:
        return f"override at index {min(late)} >= m0 = {good}"
    return good, rho


# every catalog sequence; the one whose ratio limit is below 1 again, so
# that certificates are common; and random recurrences with an override
_CERTIFICATE_SEQUENCES = st.one_of(
    st.sampled_from(_KEYS).map(get_sequence),
    st.just(get_sequence("domb_over_neg32n")),
    st.builds(
        lambda cs, overrides: HolonomicSequence(
            ShiftOperator(cs), 0, [1] * (len(cs) - 1), overrides=overrides),
        st.lists(_POLYS, min_size=2, max_size=4).filter(lambda cs: cs[-1]),
        st.dictionaries(st.integers(0, 200), st.just(1), max_size=1)),
)


def _sequence_key(seq):
    """What fixes the values of ``seq``: its operator, start, initial
    values, oracle and overrides."""
    return (seq.operator, seq.start_index, seq._initial, seq.oracle,
            tuple(sorted(seq.overrides.items())))


_EXACT_SUMS = {}


def _exact_sum(fix, a, b):
    """sum_{n=a}^{b} numer/denom * F(n) for the fixture's series, added up
    term by term once per sequence, numer, denom and range; the sum to
    b - 1, which average1 reads next, is kept on the way."""
    seq = _resolve(fix.sequence_key)
    key = (_sequence_key(seq), fix.numer, fix.denom, a)
    if (*key, b) not in _EXACT_SUMS:
        total = before = Fraction(0)
        for term in seq.series_terms(fix.numer, fix.denom, a, b):
            before, total = total, total + term
        _EXACT_SUMS[(*key, b)], _EXACT_SUMS[(*key, b - 1)] = total, before
    return _EXACT_SUMS[(*key, b)]


def _rounded(q, bits):
    return libmp.from_rational(q.numerator, q.denominator, bits, libmp.round_nearest)


def _gamma(k, u):
    return k * u / (1 - k * u)


_MAGNITUDES = {}


def _magnitudes(seq, last):
    """|F(t)| as 53-bit mpf for t = start..last, computed once per sequence
    and last index."""
    key = (_sequence_key(seq), last)
    if key not in _MAGNITUDES:
        with mpmath.workprec(53):
            _MAGNITUDES[key] = [abs(_to_mpf(v))
                                for v in seq.values(seq.start_index, last)]
    return _MAGNITUDES[key]


def _reference_error_bound(fix, n_terms, accel, bits):
    """A bound on |_reference_numeric_series_check(...)["value"] - S|, where
    S is S_N, or (S_N + S_N-1)/2 under average1, derived from the
    arithmetic of the walk alone, for u = 2^-bits and gamma_k = ku/(1-ku).

    * A given value F_t goes through ``_to_mpf``, an mpf of its numerator
      over its denominator: 2 roundings, |e_t| <= gamma_2 |F_t|.
    * A recurrence step computes -(sum c_i v_i)/a_J: a product, at most J
      additions and a division, so with v_i = F_i + e_i,
      |e_t| <= gamma_(J+2) sum |c_i| |F_i| / |a_J|
               + (1 + gamma_(J+2)) sum |c_i| |e_i| / |a_J|.
    * A term rounds numer/denom once in the division and once in the
      product with v_t: |term_t - T_t| <= gamma_3 |T_t|
      + (1 + gamma_3) |h_t| |e_t| =: D_t.
    * Recursive summation of N terms: at most gamma_(N-1) sum |term_t|.
    * average1 adds the errors of S_N-1 (at most those of S_N) and rounds
      the sum of the two once: u |value|.

    The bound is evaluated in 53-bit mpf arithmetic; its at most 50 N
    roundings, each by a factor within 1 +- 2^-52, move it by less than a
    factor 2, so it is returned doubled."""
    seq = _resolve(fix.sequence_key)
    u = mpmath.mpf(2) ** -bits
    start, last = fix.start_index, fix.start_index + n_terms - 1
    rows = integer_rows(seq.operator.coeffs)[1]
    j = len(rows) - 1
    _, (num_row, den_row) = integer_rows([fix.numer, fix.denom])
    with mpmath.workprec(53):
        mags = _magnitudes(seq, last)
        errs = []
        for k, t in enumerate(range(seq.start_index, last + 1)):
            m = t - j
            stepped = k >= len(seq._initial) and t not in seq.overrides
            if stepped:
                *cs, lead = (abs(_horner(row, m)) for row in rows)
                stepped = lead != 0
            if not stepped:
                errs.append(_gamma(2, u) * mags[k])
                continue
            lo = k - j
            g = _gamma(j + 2, u)
            errs.append((g * sum(c * mags[lo + i] for i, c in enumerate(cs))
                         + (1 + g) * sum(c * errs[lo + i] for i, c in enumerate(cs)))
                        / lead)
        total_terms = total_d = mpmath.mpf(0)
        for t in range(start, last + 1):
            h = abs(mpmath.mpf(_horner(num_row, t)) / _horner(den_row, t))
            k = t - seq.start_index
            d = _gamma(3, u) * h * mags[k] + (1 + _gamma(3, u)) * h * errs[k]
            total_terms += h * mags[k] + d
            total_d += d
        err = total_d + _gamma(n_terms - 1, u) * total_terms
        if accel == "average1":
            err += u * (abs(_to_mpf(_exact_sum(fix, start, last))) + err)
        return 2 * err


def _stepper_error_bound(fix, n_terms, accel, bits):
    """A bound on |numeric_series_check(...)["value"] - S| for a series
    without a tail certificate, where S is S_N, or (S_N + S_N-1)/2 under
    average1, derived from the arithmetic of the integer stepper
    HolonomicSequence._steps on the mpf state (w, sigma, E) alone, for
    u = 2^-bits and gamma_k = ku/(1-ku).  A numerator w_i stands for the
    value v_i = w_i / E, and sigma for the partial sum sigma / E; a product
    of k factors (1 + d)^(+-1) with |d| <= u lies within 1 +- gamma_k
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1).

    * A given value p/q at t (an initial value, an override, or the oracle
      where a_J vanishes) appends p E and multiplies E by q denom(t) and
      the new numerator by denom(t): 3 roundings, |e_t| <= gamma_3 |F_t|.
    * Every step multiplies the kept numerators and E by one factor, which
      moves a kept value by 2 roundings, and a value is read at most J - 1
      such steps after it was appended.  A recurrence step forms
      -sum c_i w_i with J products and J - 1 additions, and rounds E and
      the new numerator once each: 3J roundings in all, so with
      v_i = F_i + e_i,
      |e_t| <= gamma_3J sum |c_i| |F_i| / |a_J|
               + (1 + gamma_3J) sum |c_i| e_i / |a_J|.
    * A summed index rounds numer(t) times the new numerator (taken before
      its factor denom(t), which was rounded once: 2 roundings for the term
      h_t v_t), then sigma times the step's factor and the addition (3 for
      every earlier term, whose E was multiplied by the same factor), and
      sigma / E rounds once more.  Term k of the n summed terms from a to
      N thus has 3(N - k) + 4 <= 3n + 1 roundings:
      |sigma / E - S_N| <= sum |h_t| e_t + gamma_(3n+1) sum |h_t| (|F_t| + e_t).
    * average1 adds sigma / E at N - 1, whose bound is at most that at N,
      and rounds the sum once: u |value|.

    The bound propagates every error with |c_i|, so it grows like the
    product of sum |c_i| |F_i| / (|a_J| |F_t|) over the walk (about 1.5^n
    for the Domb numbers and 3^n for the harmonic sequences, where a step
    cancels), while the errors themselves propagate as solutions of the
    recurrence.  It is evaluated in 53-bit mpf arithmetic; its at most
    (3J + 20) N roundings, each by a factor within 1 +- 2^-52, move it by
    less than a factor 2, so it is returned doubled."""
    seq = _resolve(fix.sequence_key)
    u = mpmath.mpf(2) ** -bits
    start, last = fix.start_index, fix.start_index + n_terms - 1
    rows = integer_rows(seq.operator.coeffs)[1]
    j = len(rows) - 1
    _, (num_row, den_row) = integer_rows([fix.numer, fix.denom])
    with mpmath.workprec(53):
        mags = _magnitudes(seq, last)
        errs = []
        g = _gamma(3 * j, u)
        for k, t in enumerate(range(seq.start_index, last + 1)):
            stepped = k >= len(seq._initial) and t not in seq.overrides
            if stepped:
                *cs, lead = (abs(_horner(row, t - j)) for row in rows)
                stepped = lead != 0
            if not stepped:
                errs.append(_gamma(3, u) * mags[k])
                continue
            errs.append((g * sum(c * mags[k - j + i] for i, c in enumerate(cs))
                         + (1 + g) * sum(c * errs[k - j + i] for i, c in enumerate(cs)))
                        / lead)
        propagated = total = mpmath.mpf(0)
        for t in range(start, last + 1):
            h = abs(mpmath.mpf(_horner(num_row, t)) / _horner(den_row, t))
            k = t - seq.start_index
            propagated += h * errs[k]
            total += h * (mags[k] + errs[k])
        err = propagated + _gamma(3 * n_terms + 1, u) * total
        if accel == "average1":
            err += u * (abs(_to_mpf(_exact_sum(fix, start, last))) + err)
        return 2 * err


def _assert_within_stepper_bound(report, fix, n_terms, accel, bits):
    """report["value"] lies within _stepper_error_bound of the exact
    partial sum (compared as rationals), and abs_error is |value - target|."""
    last = fix.start_index + n_terms - 1
    s = _exact_sum(fix, fix.start_index, last)
    if accel == "average1":
        s = (s + _exact_sum(fix, fix.start_index, last - 1)) / 2
    value = Fraction(*libmp.to_rational(report["value"]._mpf_))
    bound = _stepper_error_bound(fix, n_terms, accel, bits)
    assert abs(value - s) <= Fraction(*libmp.to_rational(bound._mpf_)), \
        (fix.label, accel, bits)
    with mpmath.workprec(bits):
        assert report["abs_error"] == abs(report["value"] - report["target"])


class TestCertifiedTail:
    """numeric_series_check sums a certified series exactly, stops once the
    certified tail is below 2^-(bits+2) |S_K|, and rounds S_K once;
    _reference_numeric_series_check walks every term in mpf."""

    @given(bits=st.integers(64, 256), accel=st.sampled_from(["none", "average1"]))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_value_is_exact_partial_sum_rounded_once(self, caplog, bits, accel):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="holoreduce"):
            reports = [numeric_series_check(fixture(name), 1000, accel, bits)
                       for name in _IDENTITY_FIXTURES]
        summed = _summed(caplog)
        assert len(summed) == len(_IDENTITY_FIXTURES)
        for name, report, (k, n, _) in zip(_IDENTITY_FIXTURES, reports, summed):
            fix = fixture(name)
            assert k < n, name  # stopped before the last term
            exact = _exact_sum(fix, fix.start_index, fix.start_index + k - 1)
            assert report["value"]._mpf_ == _rounded(exact, bits), name
            with mpmath.workprec(bits):
                assert report["abs_error"] == abs(report["value"] - report["target"])

    def test_value_at_100000_terms(self, caplog):
        fix = fixture("domb_neg32_base")
        with caplog.at_level(logging.DEBUG, logger="holoreduce"):
            report = numeric_series_check(fix, 100000)
        assert report["terms"] == 100000
        [(summed, requested, note)] = _summed(caplog)
        assert summed < 200 and requested == 100000
        assert note == "tail certified from m0 = 32 with rho = 49/64"
        assert report["value"]._mpf_ == _rounded(_exact_sum(fix, 0, summed - 1), 96)

    @pytest.mark.parametrize("accel", ["none", "average1"])
    def test_walk_to_the_last_term_averages_exactly(self, caplog, accel):
        # at 192 bits the stop comes after index 170, so 100 terms run out
        fix = fixture("domb_neg32_upper_sq")
        with caplog.at_level(logging.DEBUG, logger="holoreduce"):
            report = numeric_series_check(fix, 100, accel, 192)
        assert _summed(caplog)[0][:2] == (100, 100)
        want = _exact_sum(fix, 0, 99)
        if accel == "average1":
            want = (want + _exact_sum(fix, 0, 98)) / 2
        assert report["value"]._mpf_ == _rounded(want, 192)

    @given(bits=st.integers(64, 256), n_terms=st.sampled_from([100, 1000]),
           accel=st.sampled_from(["none", "average1"]))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_reference_walk(self, caplog, bits, n_terms, accel):
        # |reference - new| <= |reference - S| + |S - S_K| + |S_K - new|: the
        # walk's own bound, the exact tail the new sum leaves out, and half
        # an ulp of the rounding
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="holoreduce"):
            for name in _IDENTITY_FIXTURES:
                fix = fixture(name)
                got = numeric_series_check(fix, n_terms, accel, bits)
                want = _reference_numeric_series_check(fix, n_terms, accel, bits)
                k = _summed(caplog)[-1][0]
                last = fix.start_index + n_terms - 1
                s = _exact_sum(fix, fix.start_index, last)
                if accel == "average1":
                    s = (s + _exact_sum(fix, fix.start_index, last - 1)) / 2
                s_k = _exact_sum(fix, fix.start_index, fix.start_index + k - 1)
                if k == n_terms:
                    s_k = s
                with mpmath.workprec(bits + 64):
                    gap = abs(got["value"] - want["value"])
                    bound = _reference_error_bound(fix, n_terms, accel, bits) \
                        + abs(_to_mpf(s - s_k)) \
                        + mpmath.mpf(2) ** -bits * abs(_to_mpf(s_k))
                assert gap <= bound, (name, gap, bound)

    @pytest.mark.parametrize("name", _IDENTITY_FIXTURES)
    @pytest.mark.parametrize("bits", [64, 96, 160, 256])
    def test_tail_bound_by_brute_force(self, name, bits):
        # the exact tail S_last - S_K is at most B_K = J c/(1 - c) max |T|
        # over the last J terms, c = rho SIGMA^J, and B_K is below
        # 2^-(bits+2) |S_K|
        fix = fixture(name)
        seq = get_sequence(fix.sequence_key)
        last = fix.start_index + 999
        m0, rho = _tail_certificate(seq, fix.numer, fix.denom, fix.start_index,
                                    last)
        p, q, k = verify_module._certified_sum(seq, fix, last, "none", bits,
                                               m0, rho)
        j = seq.operator.order
        assert m0 + j - 1 <= k < last
        s_k = _exact_sum(fix, fix.start_index, k)
        assert Fraction(p, q) == s_k
        c = rho * _SIGMA**j
        terms = list(seq.series_terms(fix.numer, fix.denom, k - j + 1, k))
        bound = j * c / (1 - c) * max(map(abs, terms))
        assert abs(_exact_sum(fix, k + 1, last)) <= bound
        assert bound <= abs(s_k) / 2 ** (bits + 2)

    @pytest.mark.parametrize("name", _IDENTITY_FIXTURES)
    def test_certificate_by_brute_force(self, name):
        fix = fixture(name)
        seq = get_sequence(fix.sequence_key)
        cert = _tail_certificate(seq, fix.numer, fix.denom, fix.start_index,
                                 fix.start_index + 99999)
        m0, rho = cert
        assert fix.start_index <= m0 <= 40 and rho == Fraction(49, 64)
        _check_certificate(seq, fix.numer, fix.denom, m0, rho, 5000)

    @given(seq=_CERTIFICATE_SEQUENCES, numer=_POLYS.filter(bool), denom=_POLYS,
           lo=st.integers(-3, 40), span=st.integers(-3, 600),
           bits=st.integers(64, 256))
    @settings(max_examples=300, deadline=None)
    def test_certificate_matches_fraction_shifts(self, seq, numer, denom, lo,
                                                 span, bits):
        # the reference still asks SIGMA^J rho (1 + 2^-bits)^(J+1) < 1 for
        # the rounding of an mpf walk; see test_rounding_factor_never_decides
        args = (seq, numer, denom, lo, lo + span)
        assert _outcome(_tail_certificate, *args) == \
            _outcome(_reference_tail_certificate, *args, bits)

    def test_rounding_factor_never_decides(self):
        # rho = (3L + 1)/4, so 1 - SIGMA^J rho, when positive, is at least
        # 1/(4 32^J den(L)), while (1 + 2^-64)^(J+1) - 1 < (J + 2) 2^-64:
        # the reference's factor can change a verdict only where den(L),
        # for L the limit of sum |a_i| / |a_J|, exceeds 2^62 / ((J + 2)
        # 4 32^J), about 2^43 for J <= 3.  _CERTIFICATE_SEQUENCES draws
        # leading coefficients from _COEFFS (denominators at most 3,
        # numerators at most 18 in size), so den(L) <= 3^J 18 there, and
        # every catalog operator, on which every fixture is built, is
        # checked here
        for j in (1, 2, 3):
            assert 3**j * 18 * (j + 2) * 4 * 32**j < 2**62
        for key in _OPERATOR_KEYS:
            *low, lead = get_sequence(key).operator.coeffs
            limit = sum((abs(a.leading_coefficient) for a in low
                         if a and a.degree == lead.degree), Fraction(0)) \
                / abs(lead.leading_coefficient)
            j = len(low)
            assert limit.denominator * (j + 2) * 4 * 32**j < 2**62, key

    @pytest.mark.parametrize("case", ["override", "ratio", "numer", "denom"])
    def test_fallback_to_full_walk(self, caplog, case):
        base = fixture("domb_neg32_base")
        # F(300) = 1/1000 in place of about 2^-550 changes the sum
        seq = HolonomicSequence(DOMB_NEG32N_OPERATOR, 0, [1, Fraction(-1, 8)],
                                overrides={300: Fraction(1, 1000)})
        fix, note = {
            "override": (replace(base, sequence_key=seq),
                         "override at index 300 >= m0 = 32"),
            "ratio": (IdentityFixture(
                sequence_key="harmonic_example23", numer=Polynomial([1]),
                denom=Polynomial([1]), start_index=1, target_r0=Fraction(0),
                target_r1=Fraction(0)), "sum |a_i| / |a_J| tends to 3 >= 1"),
            "numer": (replace(base, numer=Polynomial()), "numer or denom is zero"),
            "denom": (replace(base, denom=Polynomial()), None),
        }[case]
        for accel in ("none", "average1"):
            args = (fix, 2000, accel, 96)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="holoreduce"):
                got = _outcome(numeric_series_check, *args)
            if note is None:
                # the reference divides by zero in mpmath, with no message
                assert got == (ZeroDivisionError, "denominator vanishes at n = 0")
                continue
            _assert_within_stepper_bound(got, *args)
            assert _summed(caplog) == [(2000, 2000, f"no tail certificate: {note}")]
        if case == "override":
            assert got["value"] != numeric_series_check(base, 2000)["value"]

    def test_vanishing_denominator_after_certified_index(self):
        fix = IdentityFixture(
            sequence_key="domb_over_neg32n", numer=Polynomial([1]), denom=N - 3000,
            start_index=0, target_r0=Fraction(1), target_r1=Fraction(2))
        m0, _ = _tail_certificate(get_sequence(fix.sequence_key), fix.numer,
                                  fix.denom, 0, 3999)
        assert 3000 < m0 < 3999
        with pytest.raises(ZeroDivisionError,
                           match=r"^denominator vanishes at n = 3000$"):
            numeric_series_check(fix, 4000)

    def test_debug_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="holoreduce"):
            numeric_series_check(fixture("domb_neg32_upper_sq"), 4000)
        [record] = [r for r in caplog.records if r.name == "holoreduce.verify"]
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"numeric series domb_neg32_upper_sq: summed \d\d of 4000 terms;"
            r" tail certified from m0 = \d+ with rho = 49/64", record.getMessage())
        caplog.clear()
        numeric_series_check(fixture("domb_neg32_upper_sq"), 4000)
        assert not caplog.records  # nothing at the default level


def _past(seq, last):
    """``seq`` with an override of 1 past ``last``: the override takes any
    tail certificate away and changes no value up to ``last``."""
    return HolonomicSequence(seq.operator, seq.start_index, seq._initial,
                             oracle=seq.oracle,
                             overrides={**seq.overrides, last + 1: 1})


_FIBONACCI = ShiftOperator([Polynomial([1]), Polynomial([1]), Polynomial([-1])])
# F(n+1) = F(n)/2, except where a_J(300) = 0: the oracle gives F(301)
_SINGULAR = ShiftOperator([N - 300, -2 * (N - 300)])


def _uncertified_case(name):
    """(sequence, terms) for the walks without a tail certificate."""
    if name == "fibonacci_override":
        # an override at a regular point; the ratio limit 2 leaves no
        # certificate
        return HolonomicSequence(_FIBONACCI, 0, [0, 1], overrides={4: 100}), 100
    if name == "singular_oracle":
        seq = HolonomicSequence(_SINGULAR, 0, [1], oracle=lambda t: Fraction(3, 2**t))
        return _past(seq, 399), 400
    if name == "non_integral_operator":
        # the stepper scales the operator to integer rows
        return HolonomicSequence(DOMB_16N_OPERATOR * Fraction(1, 3), 0,
                                 [1, Fraction(1, 4)], overrides={100: 1}), 100
    seq = get_sequence(name)
    return _past(seq, seq.start_index + 99), 100


class TestUncertifiedSum:
    """numeric_series_check without a tail certificate walks the integer
    stepper on an mpf state; its value lies within _stepper_error_bound of
    the exact partial_sum, and its errors are those of partial_sum."""

    @pytest.mark.parametrize("bits", [96, 192])
    @pytest.mark.parametrize("name", _OPERATOR_KEYS
                             + ["fibonacci_override", "singular_oracle",
                                "non_integral_operator"])
    def test_within_bound_of_exact_sum(self, caplog, name, bits):
        seq, n_terms = _uncertified_case(name)
        for numer, denom in ((Polynomial([1]), Polynomial([1])), (3 * N + 1, N + 3)):
            fix = IdentityFixture(sequence_key=seq, numer=numer, denom=denom,
                                  start_index=seq.start_index, target_r0=Fraction(1),
                                  target_r1=Fraction(0), label=name)
            for accel in ("none", "average1"):
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="holoreduce"):
                    report = numeric_series_check(fix, n_terms, accel, bits)
                [(k, _, note)] = _summed(caplog)
                assert k == n_terms and note.startswith("no tail certificate: ")
                _assert_within_stepper_bound(report, fix, n_terms, accel, bits)
                if bits == 192:
                    # the bound says something: below 2^-64 |S|
                    bound = _stepper_error_bound(fix, n_terms, accel, bits)
                    s = _exact_sum(fix, fix.start_index, fix.start_index + n_terms - 1)
                    with mpmath.workprec(bits):
                        assert bound < abs(_to_mpf(s)) * mpmath.mpf(2) ** -64

    def test_singular_point_without_oracle(self):
        # a_J(3) = 0 and nothing gives F(5): the error of partial_sum
        seq = _past(HolonomicSequence(ShiftOperator([Polynomial([1]), Polynomial([1]),
                                                     N - 3]), 0, [1, 1]), 99)
        fix = IdentityFixture(sequence_key=seq, numer=Polynomial([1]),
                              denom=Polynomial([1]), start_index=0,
                              target_r0=Fraction(0), target_r1=Fraction(0))
        want = _outcome(seq.partial_sum, fix.numer, fix.denom, 0, 99)
        assert want == (SingularLeadingCoefficient,
                        "a_J(3) = 0 and no override value for index 5")
        for accel in ("none", "average1"):
            assert _outcome(numeric_series_check, fix, 100, accel, 96) == want

    @pytest.mark.parametrize("accel", ["none", "average1"])
    def test_precision_loss(self, accel):
        # F(n+1) = 2 F(n) from 1, and F(99) = 2 - 2^99 makes S_99 = 1 after
        # partial sums near 2^99: at 64 bits the last sum is lost, while
        # average1 returns (S_99 + S_98)/2 = 2^98
        seq = HolonomicSequence(ShiftOperator([Polynomial([2]), Polynomial([-1])]), 0,
                                [1], overrides={99: 2 - 2**99})
        fix = IdentityFixture(sequence_key=seq, numer=Polynomial([1]),
                              denom=Polynomial([1]), start_index=0,
                              target_r0=Fraction(1), target_r1=Fraction(0))
        assert seq.partial_sum(fix.numer, fix.denom, 0, 99) == 1
        if accel == "average1":
            report = numeric_series_check(fix, 100, accel, 64)
            assert report["value"] == 2**98
            return
        with pytest.raises(PrecisionLoss) as err:
            numeric_series_check(fix, 100, accel, 64)
        match = re.fullmatch(r"partial sums reached (\S+) against result (\S+)",
                             str(err.value))
        assert match
        # |sigma/E| where the partial sums peak: S_98 = 2^99 - 1, printed
        assert abs(float(match[1]) / 2.0**99 - 1) < 1e-15


# -- the exact channel on integer windows ------------------------------------
#
# check_telescoping and verify_identity_exact as they were on Fraction sums
# of series_terms, kept verbatim as the oracle, apart from the names of the
# helpers and a sequence resolved through the module, so that a patched
# verify._resolve reaches the oracle too.

_ONE = Polynomial([1])


def _fraction_check_telescoping(seq, op: ShiftOperator, x: Polynomial, window) -> bool:
    seq = verify_module._resolve(seq)
    a, b = window
    if b < a or a < seq.start_index:
        raise DomainViolation(f"window [{a}, {b}] outside domain of {seq.name}")
    us = op.certificate(x)
    lhs = sum(seq.series_terms(op.adjoint_apply(x), _ONE, a, b - 1), Fraction(0))
    values = seq.values(a, b + len(us) - 1)
    return lhs == _fraction_boundary(us, values, a, a) \
        - _fraction_boundary(us, values, a, b)


def _fraction_boundary(us, values, a: int, m: int) -> Fraction:
    return sum((u.evaluate(m) * values[m - a + i] for i, u in enumerate(us)),
               Fraction(0))


def _fraction_verify_identity_exact(fix, source, rr, window_length=200):
    if window_length < 0:
        raise ValueError(f"window length must be >= 0, got {window_length}")
    if fix.sequence_key != source.sequence_key:
        raise MismatchedSequence(
            f"{fix.sequence_key} vs {source.sequence_key}")
    seq = verify_module._resolve(fix.sequence_key)
    sp = rr.denominator

    if fix.recipe is not None and (
            rr.remainder_numer != fix.recipe.scalar * fix.numer or sp != fix.denom):
        return False
    if not rr.reduction.check(source.numer * sp):
        return False

    us = rr.reduction.certificate
    a = max(first_valid_index(fix, rr), source.start_index, seq.start_index)
    last = a + window_length
    g = list(seq.series_terms(_ONE, sp, a, last + len(us)))  # F / SP
    terms = zip(range(a, last + 1),
                seq.series_terms(source.numer, source.denom, a, last),
                seq.series_terms(rr.remainder_numer, sp, a, last))
    diff_sum = Fraction(0)
    t_a = _fraction_boundary(us, g, a, a)
    for b, src, rem in terms:
        diff_sum += src - rem
        if diff_sum != t_a - _fraction_boundary(us, g, a, b + 1):
            return False
    return True


@cache
def _recipe_case(name):
    """(fixture, source with denominator 1, rederived reduction)."""
    fix = fixture(name)
    source = IdentityFixture(
        sequence_key=fix.sequence_key, numer=fix.recipe.source_numer,
        denom=Polynomial([1]), start_index=get_sequence(fix.sequence_key).start_index,
        target_r0=Fraction(0), target_r1=Fraction(0))
    return fix, source, rederive(fix, source)


def _corrupted(seq, k, delta):
    """A copy of ``seq`` with F(k) + delta at k, by an override, so the
    recurrence runs on from the corrupted value."""
    return HolonomicSequence(seq.operator, seq.start_index, seq._initial,
                             name=seq.name, oracle=seq.oracle,
                             overrides={**seq.overrides, k: seq.eval(k) + delta})


_DELTAS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


class TestIntegerExactChannel:
    @given(name=st.sampled_from(_RECIPE_FIXTURES), window=st.integers(0, 60),
           variant=st.integers(0, 6), root=st.integers(-10, 70),
           corrupt=st.none() | st.tuples(st.integers(0, 100), _DELTAS))
    @settings(max_examples=200, deadline=None)
    def test_identity_exact_matches_fraction_sums(self, name, window, variant,
                                                  root, corrupt):
        fix, source, rr = _recipe_case(name)
        a = first_valid_index(fix, rr)
        src = [
            source,
            replace(source, start_index=a + 3),
            replace(source, denom=N + 100),
            replace(source, denom=N - (a + 3)),
            replace(source, numer=source.numer + 1),
            # a root before, inside or after the window
            replace(source, denom=N - (a + root)),
            # 1 at a, ..., a + j - 1 and 0 at a + j, so that the indices
            # before the root pass (j = 0: the zero polynomial)
            replace(source, denom=1 - prod((N - (a + k) for k in range(root % 13)),
                                           start=_ONE) / factorial(root % 13)),
        ][variant]
        args = (fix, src, rr, window)
        with pytest.MonkeyPatch.context() as mp:
            if corrupt is not None:
                # one value of F(a'..last + J) changed, a' the window's start
                seq = get_sequence(fix.sequence_key)
                lo = max(a, src.start_index, seq.start_index)
                k = lo + corrupt[0] % (window + len(rr.reduction.certificate) + 1)
                copy = _corrupted(seq, k, corrupt[1])
                mp.setattr(verify_module, "_resolve",
                           lambda key: copy if key == fix.sequence_key else _resolve(key))
            assert _outcome(verify_identity_exact, *args) == \
                _outcome(_fraction_verify_identity_exact, *args)

    @given(case=_summands(_OPERATOR_KEYS), x=_POLYS,
           corrupt=st.none() | st.tuples(st.integers(0, 100), _DELTAS))
    @settings(max_examples=100, deadline=None)
    def test_check_telescoping_matches_fraction_sums(self, case, x, corrupt):
        key, _, _, a, b = case
        seq = get_sequence(key)
        if corrupt is not None and seq.start_index <= a <= b:
            k = a + corrupt[0] % (b - a + seq.operator.order)
            seq = _corrupted(seq, k, corrupt[1])
        args = (seq, seq.operator, x, (a, b))
        assert _outcome(check_telescoping, *args) == \
            _outcome(_fraction_check_telescoping, *args)

    def test_check_telescoping_compares_totals(self):
        # two values strictly inside (a + J, b), wrong by deltas whose
        # contributions L*(x)(k) delta_k to the left side cancel, while
        # U(a) and U(b) read neither: the totals still agree
        seq = get_sequence("domb_over_neg32n")
        op, x, a, b = seq.operator, N + 2, 0, 30
        image, J = op.adjoint_apply(x), op.order
        k1, k2 = a + J + 3, b - 4
        wrong = {k1: image.evaluate(k2), k2: -image.evaluate(k1)}
        assert all(wrong.values())

        def copy(deltas):
            return HolonomicSequence(
                None, seq.start_index, [],
                oracle=lambda k: seq.eval(k) + deltas.get(k, 0))

        both = copy(wrong)
        assert [both.eval(k) != seq.eval(k) for k in range(a, b + J)] == \
            [k in wrong for k in range(a, b + J)]
        assert check_telescoping(both, op, x, (a, b))
        assert _fraction_check_telescoping(both, op, x, (a, b))
        # either value alone is caught
        for k in wrong:
            assert not check_telescoping(copy({k: wrong[k]}), op, x, (a, b))

    def test_identity_exact_zero_shift_product(self):
        # SP = 0 vanishes at the window's first index, before F is read
        zero = Polynomial()
        spec = ShiftProductSpec(base=zero, direction=1, order=2)
        rr = SimpleNamespace(
            denom_spec=spec, denominator=sp_expand(spec), remainder_numer=zero,
            reduction=ReductionResult(zero, zero, (zero, zero), DOMB_NEG32N_OPERATOR))
        fix = IdentityFixture(sequence_key="domb_over_neg32n", numer=zero,
                              denom=zero, start_index=2, target_r0=Fraction(0),
                              target_r1=Fraction(0))
        for window in (0, 5):
            args = (fix, replace(fix, denom=_ONE), rr, window)
            assert _outcome(verify_identity_exact, *args) == \
                _outcome(_fraction_verify_identity_exact, *args) == \
                (ZeroDivisionError, "denominator vanishes at n = 2")


def _sp_first_valid_index(fix, rr):
    """first_valid_index as it was: the integer roots of the expanded SP."""
    sp, start = rr.denominator, fix.start_index
    roots = [] if sp.is_zero() else [r for r in integer_roots(sp) if r >= start]
    return max(roots, default=start - 1) + 1


_SPEC_BASES = st.one_of(
    st.just(Polynomial()),
    st.builds(lambda c, roots, rest: c * prod((N - r for r in roots), start=rest),
              _COEFFS.filter(bool), st.lists(st.integers(-8, 12), max_size=3),
              st.sampled_from([Polynomial([1]), N**2 + 1, 2 * N + 1, 3 * N - 2])),
)


class TestFirstValidIndex:
    """first_valid_index from the roots of the factor and the spec's shifts
    against the roots of the expanded shift product."""

    @pytest.mark.parametrize("name", _RECIPE_FIXTURES)
    def test_recipe_fixtures(self, name):
        fix = fixture(name)
        rr = rederive(fix, None)
        for start in range(fix.start_index - 3, fix.start_index + 4):
            moved = replace(fix, start_index=start)
            assert first_valid_index(moved, rr) == _sp_first_valid_index(moved, rr)

    @given(base=_SPEC_BASES, direction=st.sampled_from([1, -1]),
           order=st.integers(0, 3), base_shift=st.integers(-3, 3),
           start=st.integers(-6, 12))
    @settings(max_examples=300, deadline=None)
    def test_random_specs(self, base, direction, order, base_shift, start):
        spec = ShiftProductSpec(base=base, direction=direction, order=order,
                                base_shift=base_shift)
        rr = SimpleNamespace(denom_spec=spec, denominator=sp_expand(spec))
        fix = SimpleNamespace(start_index=start)
        assert first_valid_index(fix, rr) == _sp_first_valid_index(fix, rr)
