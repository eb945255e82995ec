import random
import threading
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoreduce import (
    HolonomicSequence,
    Polynomial,
    ShiftOperator,
    catalog,
    domb_number,
    franel_number,
    get_sequence,
    guess_annihilator,
    harmonic_number,
    load_terms,
)
from holoreduce.errors import (
    IndexBelowStart,
    InsufficientTerms,
    SingularLeadingCoefficient,
)
from holoreduce.sequences import (
    DOMB_16N_OPERATOR,
    HARMONIC_RATIO_OPERATOR,
    _nullspace_vectors,
    central_trinomial_t,
)

from conftest import N


class TestClosedForms:
    def test_domb_small(self):
        assert [domb_number(k) for k in range(5)] == [1, 4, 28, 256, 2716]

    def test_franel_small(self):
        assert franel_number(2) == 1 + 8 + 1 == 10

    def test_harmonic(self):
        assert harmonic_number(3) == Fraction(11, 6)
        assert harmonic_number(4, 2) == 1 + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)

    def test_central_trinomial(self):
        # expand (x^2 + 62x + 1)^2 = x^4 + 124x^3 + 3846x^2 + ... by hand
        assert central_trinomial_t(2, 62, 1) == 3846


class TestEval:
    def test_domb_matches_binomial_sum(self):
        assert get_sequence("domb").eval(2) == 28

    def test_franel(self):
        assert get_sequence("franel").eval(2) == 10

    def test_harmonic_order_one(self):
        assert get_sequence("harmonic_m1").eval(3) == Fraction(11, 6)

    def test_index_below_start(self):
        with pytest.raises(IndexBelowStart):
            get_sequence("franel_example22").eval(1)

    def test_oracle_agreement_to_60(self):
        for key, oracle in (("domb", domb_number), ("franel", franel_number)):
            seq = get_sequence(key)
            for m in range(61):
                assert seq.eval(m) == oracle(m)

    def test_operator_fidelity_on_catalog(self):
        for entry in catalog():
            seq = entry.sequence
            op = seq.operator
            if op is None:
                continue
            for m in range(seq.start_index, seq.start_index + 121):
                if op.coeffs[-1].evaluate(m) == 0:
                    continue
                acc = sum(
                    (op.coefficient(i).evaluate(m) * seq.eval(m + i)
                     for i in range(op.order + 1)),
                    Fraction(0),
                )
                assert acc == 0, entry.key

    def test_cache_order_independence(self):
        def fresh():
            return HolonomicSequence(DOMB_16N_OPERATOR, 0,
                                     [1, Fraction(1, 4)], name="copy")

        ascending = fresh()
        ordered = [ascending.eval(m) for m in range(101)]
        shuffled = fresh()
        assert shuffled.eval(100) == ordered[100]
        assert shuffled.eval(50) == ordered[50]

    def test_concurrent_eval_linearizable(self):
        seq = HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, Fraction(1, 4)])
        results = {}

        def worker(tag, upto):
            results[tag] = seq.eval(upto)

        threads = [threading.Thread(target=worker, args=(i, 80 + i))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, Fraction(1, 4)])
        for i in range(8):
            assert results[i] == expected.eval(80 + i)

    def test_singular_leading_coefficient(self):
        # a_J vanishes at n = 3, so index 5 = 3 + order is unreachable
        op = ShiftOperator([Polynomial([1]), Polynomial([1]), N - 3])
        seq = HolonomicSequence(op, 0, [1, 1])
        with pytest.raises(SingularLeadingCoefficient):
            seq.eval(5)

    def test_singular_point_with_override(self):
        op = ShiftOperator([Polynomial([1]), Polynomial([1]), N - 3])
        seq = HolonomicSequence(op, 0, [1, 1], overrides={5: Fraction(7)})
        assert seq.eval(5) == 7
        assert seq.eval(6) is not None

    def test_initial_values_must_be_exact(self):
        # Fraction("\u0661") is 1, so eval(0) used to read 1
        with pytest.raises(TypeError, match="expected int or Fraction, got str"):
            HolonomicSequence(None, 0, ["\u0661"], oracle=lambda n: n)
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, 0.25])

    def test_overrides_must_be_exact(self):
        # eval(3) used to read 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            HolonomicSequence(None, 0, [1], oracle=lambda n: n, overrides={3: 0.1})
        seq = HolonomicSequence(None, 0, [1], oracle=lambda n: n,
                                overrides={3: Fraction(1, 10)})
        assert (seq.eval(0), seq.eval(3)) == (1, Fraction(1, 10))

    def test_oracle_values_must_be_exact(self):
        # eval(0) used to read 3602879701896397/36028797018963968
        seq = HolonomicSequence(None, 0, [], oracle=lambda n: 0.1)
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            seq.eval(0)

    @pytest.mark.parametrize("start", ["\u0663", 2.7])
    def test_start_index_must_be_an_int(self, start):
        # int() used to read "\u0663" as 3 and 2.7 as 2
        with pytest.raises(TypeError):
            HolonomicSequence(None, start, [1], oracle=lambda n: n)

    def test_oracle_only_eval_calls_the_oracle_once(self):
        # eval(400) used to call the oracle at every index 0..400
        calls = []

        def oracle(n):
            calls.append(n)
            return central_trinomial_t(n, 62, 1)

        seq = HolonomicSequence(None, 0, [], oracle=oracle, overrides={7: 3})
        assert seq.eval(400) == central_trinomial_t(400, 62, 1)
        assert calls == [400]
        assert seq.eval(7) == 3 and calls == [400]
        # window reads still fill the cache
        assert seq.values(0, 2) == [1, 62, 3846] and calls == [400, 0, 1, 2]


def _outcome(call):
    """What call() returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


_small_ints = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(Polynomial)


@st.composite
def _walk_cases(draw):
    """A sequence factory and a list of reads: an integer operator of
    order 1-3 whose leading coefficient may vanish inside the range read,
    rational initial values, overrides, an oracle or none."""
    order = draw(st.integers(1, 3))
    start = draw(st.integers(-3, 3))
    top = start + 40
    coeffs = draw(st.lists(_small_ints, min_size=order, max_size=order))
    lead = draw(_small_ints.filter(lambda p: not p.is_zero()))
    for root in draw(st.lists(st.integers(start - order, top), max_size=2)):
        lead = lead * (N - root)
    op = ShiftOperator([*coeffs, lead])
    initial = draw(st.lists(_small_rationals, min_size=order, max_size=order + 2))
    overrides = draw(st.dictionaries(st.integers(start, top), _small_rationals,
                                     max_size=3))
    a, b = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
    oracle = draw(st.sampled_from([None, lambda t: a * t + 1,
                                   lambda t: Fraction(a * t * t - 1, b)]))
    index = st.integers(start - 2, top)
    reads = draw(st.lists(st.one_of(st.tuples(st.just("eval"), index),
                                    st.tuples(st.just("values"), index, index)),
                          min_size=1, max_size=8))

    def make():
        return HolonomicSequence(op, start, initial, oracle=oracle,
                                 overrides=overrides)

    return make, reads


class TestIntegerWalk:
    """eval past the cache against window reads on a fresh sequence."""

    @settings(max_examples=300, deadline=None)
    @given(_walk_cases())
    def test_walk_matches_window_reads(self, case):
        make, reads = case
        seq = make()
        for kind, *args in reads:
            if kind == "eval":
                (n,) = args
                got = _outcome(lambda: seq.eval(n))
                want = _outcome(lambda: make().values(n, n)[0])
            else:
                # a window read moves the end of the cache
                got = _outcome(lambda: seq.values(*args))
                want = _outcome(lambda: make().values(*args))
            assert got == want

    def test_far_eval_walks_past_the_cache(self):
        seq = HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, Fraction(1, 4)])
        assert seq.eval(300) == Fraction(domb_number(300), 16**300)
        assert len(seq._cache) == 2
        # the next index fills the cache
        assert seq.eval(2) == Fraction(domb_number(2), 16**2)
        assert len(seq._cache) == 3

    def test_order_zero_operator(self):
        # (n - 2) F(n) = 0: F vanishes except at n = 2, where the oracle says 5
        op = ShiftOperator([N - 2])
        seq = HolonomicSequence(op, 0, [], oracle=lambda n: 5)
        assert seq.eval(6) == 0
        assert seq.eval(2) == 5
        assert seq.eval(9) == 0
        want = HolonomicSequence(op, 0, [], oracle=lambda n: 5).values(0, 9)
        assert [seq.eval(n) for n in range(10)] == want == [0, 0, 5] + [0] * 7
        bare = HolonomicSequence(op, 0, [])
        with pytest.raises(SingularLeadingCoefficient,
                           match=r"a_J\(2\) = 0 and no override value for index 2"):
            bare.eval(6)


@st.composite
def _sum_cases(draw):
    """A sequence factory from :func:`_walk_cases`, an oracle-only one
    with an int or Fraction oracle, or one of an order-0 integer operator
    whose a_0 vanishes inside [a, b], with or without an oracle, and a
    series numer/denom from a to b whose integer roots lie before, inside
    and after [a, b]."""
    make, _ = draw(_walk_cases())
    start = make().start_index
    kind = draw(st.integers(0, 4))
    a = draw(st.integers(start - 2, start + 20))
    b = a + draw(st.integers(-2, 30))
    c = draw(st.integers(-5, 5))
    if kind == 0:
        oracle = draw(st.sampled_from([lambda t: c * t * t + 1,
                                       lambda t: Fraction(c * t - 1, 3)]))

        def make():
            return HolonomicSequence(None, start, [], oracle=oracle)
    elif kind == 1:
        # a_0(n) F(n) = 0: F vanishes off the roots of a_0, which are given
        inside = st.integers(a, max(a, b))
        lead = draw(_small_ints.filter(lambda p: not p.is_zero())) * prod(
            (N - r for r in draw(st.lists(inside, min_size=1, max_size=2))),
            start=Polynomial([1]))
        op = ShiftOperator([lead])
        initial = draw(st.lists(_small_rationals, max_size=2))
        overrides = draw(st.dictionaries(inside, _small_rationals, max_size=2))
        oracle = draw(st.sampled_from([None, lambda t: Fraction(c * t - 1, 3)]))

        def make():
            return HolonomicSequence(op, start, initial, oracle=oracle,
                                     overrides=overrides)
    roots = st.lists(st.integers(a - 4, b + 4), max_size=2)
    numer, denom = (draw(_small_ints) * prod((N - r for r in draw(roots)),
                                             start=Polynomial([1]))
                    for _ in range(2))
    return make, numer, denom, a, b


class TestPartialSum:
    """partial_sum on integers against the Fraction sum of series_terms."""

    @settings(max_examples=300, deadline=None)
    @given(_sum_cases())
    def test_matches_fraction_sum(self, case):
        make, numer, denom, a, b = case
        got = _outcome(lambda: make().partial_sum(numer, denom, a, b))
        want = _outcome(lambda: sum(make().series_terms(numer, denom, a, b),
                                    Fraction(0)))
        assert got == want

    def test_reads_no_cache(self):
        seq = HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, Fraction(1, 4)])
        total = seq.partial_sum(N + 1, Polynomial([1]), 3, 300)
        assert total == sum((Fraction((n + 1) * domb_number(n), 16**n)
                             for n in range(3, 301)), Fraction(0))
        assert len(seq._cache) == 2


class TestSeriesTerms:
    def test_exact_terms(self):
        seq = get_sequence("domb")
        terms = list(seq.series_terms(3 * N + 1, N + 2, 0, 20))
        assert terms == [Fraction(3 * m + 1, m + 2) * domb_number(m)
                         for m in range(21)]

    def test_rational_coefficients(self):
        # numer and denom are scaled by one integer, not each on its own
        seq = get_sequence("harmonic_m1")
        terms = list(seq.series_terms(N / 3 + Fraction(1, 2), N / 5 + 1, 1, 9))
        assert terms == [(Fraction(m, 3) + Fraction(1, 2)) / (Fraction(m, 5) + 1)
                         * harmonic_number(m) for m in range(1, 10)]

    def test_empty_window(self):
        seq = get_sequence("domb")
        assert list(seq.series_terms(N, N - 3, 5, 4)) == []
        assert list(seq.series_terms(N, N - 3, -5, -6)) == []

    def test_denominator_checked_before_index(self):
        seq = get_sequence("domb")
        with pytest.raises(ZeroDivisionError, match=r"^denominator vanishes at n = -1$"):
            list(seq.series_terms(Polynomial([1]), N + 1, -1, 3))
        with pytest.raises(IndexBelowStart, match=r"^-1 is below start index 0$"):
            list(seq.series_terms(Polynomial([1]), N + 2, -1, 3))

    def test_terms_before_failing_index_are_yielded(self):
        terms = get_sequence("domb").series_terms(Polynomial([1]), N - 3, 0, 6)
        assert [next(terms) for _ in range(3)] == [Fraction(-1, 3), -2, -28]
        with pytest.raises(ZeroDivisionError, match=r"^denominator vanishes at n = 3$"):
            next(terms)

    def test_singular_point_after_vanishing_denominator(self):
        # the denominator at 4 is reached before the singular index 5
        op = ShiftOperator([Polynomial([1]), Polynomial([1]), N - 3])
        seq = HolonomicSequence(op, 0, [1, 1])
        with pytest.raises(ZeroDivisionError, match="n = 4"):
            list(seq.series_terms(Polynomial([1]), N - 4, 0, 6))
        with pytest.raises(SingularLeadingCoefficient):
            list(seq.series_terms(Polynomial([1]), N - 6, 0, 6))

    def test_values_window(self):
        seq = get_sequence("franel")
        assert seq.values(3, 6) == [franel_number(m) for m in range(3, 7)]
        assert seq.values(3, 2) == []
        assert seq.values(-5, -6) == []
        with pytest.raises(IndexBelowStart, match=r"^-1 is below start index 0$"):
            seq.values(-1, 2)


class TestCatalog:
    def test_keys(self):
        keys = {e.key for e in catalog()}
        assert {
            "domb", "franel", "domb_over_16n", "domb_over_neg32n",
            "franel_example22", "harmonic_example23",
            "central_binomial_example27", "harmonic_m1", "harmonic_m2",
            "harmonic_m3", "t_poly",
        } <= keys

    def test_neg32_initial_values(self):
        seq = get_sequence("domb_over_neg32n")
        assert seq.eval(0) == 1
        assert seq.eval(1) == Fraction(-1, 8)  # Domb(1)/(-32)

    def test_harmonic_ratio_operator(self):
        seq = get_sequence("harmonic_example23")
        assert seq.operator == HARMONIC_RATIO_OPERATOR
        assert seq.eval(1) == Fraction(1, 2)

    def test_t_poly_entry(self):
        seq = get_sequence("t_poly")
        assert seq.operator is None
        assert seq.eval(2) == 3846

    def test_oracle_cross_check_window(self):
        for entry in catalog():
            seq = entry.sequence
            if seq.oracle is None or seq.operator is None:
                continue
            for m in range(seq.start_index, seq.start_index + 51):
                assert seq.eval(m) == Fraction(seq.oracle(m)), entry.key

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_sequence("nope")


_FRANEL_40 = [franel_number(k) for k in range(40)]


class TestGuessing:
    def test_constant_sequence(self):
        op = guess_annihilator([1] * 30, 0, 2, 2)
        assert op == ShiftOperator([Polynomial([-1]), Polynomial([1])])

    def test_franel_guess(self):
        terms = [franel_number(k) for k in range(40)]
        op = guess_annihilator(terms, 0, 2, 3)
        assert op is not None
        assert op.order == 2
        held_out = [franel_number(k) for k in range(40, 70)]
        full = terms + held_out
        for j in range(len(full) - op.order):
            acc = sum(
                op.coefficient(i).evaluate(j) * full[j + i]
                for i in range(op.order + 1)
            )
            assert acc == 0

    def test_domb_guess_conjugates_to_16n_form(self):
        terms = [domb_number(k) for k in range(40)]
        op = guess_annihilator(terms, 0, 2, 3)
        assert op is not None and op.order == 2
        conjugated = ShiftOperator([
            op.coefficient(i) * 16**i for i in range(op.order + 1)
        ]).primitive()
        assert conjugated == DOMB_16N_OPERATOR.primitive()

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms):
            guess_annihilator([1, 2, 3], 0, 2, 3)

    def test_max_order_below_one_rejected(self):
        # an empty search must not read as "no annihilator exists"
        with pytest.raises(ValueError, match="max_order >= 1"):
            guess_annihilator([1] * 30, 0, 0, 2)

    def test_negative_max_deg_rejected(self):
        with pytest.raises(ValueError, match="max_deg >= 0"):
            guess_annihilator([1] * 30, 0, 2, -1)

    def test_no_candidate_returns_none(self):
        # factorials are not annihilated by degree-0 order-1 operators
        import math

        terms = [math.factorial(k) ** 2 for k in range(30)]
        assert guess_annihilator(terms, 0, 1, 0) is None

    @pytest.mark.parametrize("terms", [
        _FRANEL_40[:20] + ["\u0661/\u0662"] + _FRANEL_40[21:],
        _FRANEL_40[:20] + [0.5] + _FRANEL_40[21:],
        [str(t) for t in _FRANEL_40],
    ])
    def test_terms_must_be_exact(self, terms):
        # Fraction() read "\u0661/\u0662" as 1/2, and Franel terms given as
        # str returned the Franel operator
        with pytest.raises(TypeError, match="expected int or Fraction"):
            guess_annihilator(terms, 0, 2, 3)


def _reference_nullspace(rows, width):
    """Gauss-Jordan elimination over Fraction: the nullspace basis that
    guess_annihilator used before it eliminated on integer rows."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -mat[row_idx][fc]
        basis.append(vec)
    return basis


def _reference_guess(terms, start_index, max_order, max_deg):
    """guess_annihilator on Fraction rows and the Fraction nullspace."""
    terms = [Fraction(t) for t in terms]

    def annihilates(op):
        return all(op.apply(lambda k: terms[k - start_index], m) == 0
                   for m in range(start_index, start_index + len(terms) - op.order))

    for order in range(1, max_order + 1):
        train = len(terms) - order - 10
        for deg in range(0, max_deg + 1):
            width = (order + 1) * (deg + 1)
            if train < width:
                continue
            rows = []
            for j in range(train):
                m = start_index + j
                row = []
                for i in range(order + 1):
                    val = terms[j + i]
                    power = Fraction(1)
                    for _ in range(deg + 1):
                        row.append(power * val)
                        power *= m
                rows.append(row)
            for vec in _reference_nullspace(rows, width):
                coeffs = [Polynomial(vec[i * (deg + 1): (i + 1) * (deg + 1)])
                          for i in range(order + 1)]
                if all(c.is_zero() for c in coeffs):
                    continue
                candidate = ShiftOperator(coeffs).primitive()
                if annihilates(candidate):
                    return candidate
    return None


_small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _rational_matrices(draw):
    """Rational matrices with zero rows, zero columns, rows that combine
    other rows, and often more columns than rows."""
    width = draw(st.integers(1, 8))
    mat = draw(st.lists(st.lists(_small_rationals, min_size=width, max_size=width),
                        min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero_row", "zero_column", "combination"]))
        if kind == "zero_row":
            mat.insert(draw(st.integers(0, len(mat))), [Fraction(0)] * width)
        elif kind == "zero_column":
            c = draw(st.integers(0, width - 1))
            mat = [row[:c] + [Fraction(0)] + row[c + 1:] for row in mat]
        else:
            ks = draw(st.lists(_small_rationals, min_size=len(mat), max_size=len(mat)))
            mat.insert(draw(st.integers(0, len(mat))),
                       [sum((k * row[c] for k, row in zip(ks, mat)), Fraction(0))
                        for c in range(width)])
    return mat, width


def _recurrence_terms(coeffs, initial, count):
    """F(0), ..., F(count - 1) of sum_i coeffs[i](n) F(n + i) = 0."""
    values = list(initial)
    while len(values) < count:
        n = len(values) - len(initial)
        acc = sum(c.evaluate(n) * values[n + i] for i, c in enumerate(coeffs[:-1]))
        values.append(-acc / coeffs[-1].evaluate(n))
    return values


class TestGuessDifferential:
    """The integer-row elimination against the Fraction one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_rational_matrices())
    def test_nullspace_matches_fraction_elimination(self, drawn):
        mat, width = drawn
        # scaling a row by a nonzero integer keeps the nullspace
        rows = [[int(v * lcm(*(x.denominator for x in row))) for v in row]
                for row in mat]
        assert _nullspace_vectors(rows, width) == _reference_nullspace(mat, width)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 3), st.data())
    def test_guess_matches_reference_on_recurrence_terms(self, order, start, data):
        poly = st.lists(_small_rationals, min_size=1, max_size=3).map(Polynomial)
        coeffs = data.draw(st.lists(poly, min_size=order + 1, max_size=order + 1))
        count = 26
        if any(coeffs[-1].evaluate(n) == 0 for n in range(count)):
            coeffs[-1] = Polynomial([1])
        initial = data.draw(st.lists(_small_rationals, min_size=order, max_size=order))
        terms = _recurrence_terms(coeffs, initial, count)
        # from index start, the same terms have a shifted annihilator
        want = _reference_guess(terms, start, 2, 2)
        assert guess_annihilator(terms, start, 2, 2) == want

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3))
    def test_random_terms_have_no_annihilator(self, seed, start):
        rng = random.Random(seed)
        terms = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                 for _ in range(26)]
        assert guess_annihilator(terms, start, 2, 2) is None
        assert _reference_guess(terms, start, 2, 2) is None


class TestTermFiles(object):
    def test_load_terms(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("# header\n1\n-3/4\n\n5 # trailing comment\n")
        assert load_terms(path) == [1, Fraction(-3, 4), 5]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1\nnot-a-number\n")
        with pytest.raises(ValueError):
            load_terms(path)

    @pytest.mark.parametrize("term", ["\u0663", "\u0661/\u0664", "0.25", "1/0"])
    def test_terms_take_ascii_rationals_only(self, tmp_path, term):
        # Fraction() reads the first three as 3, 1/4 and 1/4
        path = tmp_path / "terms.txt"
        path.write_text(f"1\n{term}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_terms(path)
        assert str(err.value) == f"{path}:2: bad term {term!r}"
