import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoreduce import (
    Polynomial,
    ShiftOperator,
    ShiftProductSpec,
    build_L1_lower,
    build_L1_upper,
    degree_profile,
    denominator_admissibility,
    polynomial_reduce,
    rational_reduce,
    sp_expand,
)
from holoreduce.errors import (
    FactorNotDivisor,
    IrreducibleAtThisI,
    OrderTooSmall,
    OrderZero,
    ZeroInput,
)
from holoreduce.sequences import (
    DOMB_16N_OPERATOR,
    DOMB_NEG32N_OPERATOR,
    HARMONIC_RATIO_OPERATOR,
    get_sequence,
)

from conftest import N, rand_operator, rand_polynomial

# order-2 operator annihilating Domb(n)/(16^n n(n-1)); equals the lower
# derived operator of DOMB_16N_OPERATOR for factor n+1, I = 2
DERIVED_16N = ShiftOperator([
    2 * (N - 1) * N * (N + 1) ** 2,
    -N * (3 + 2 * N) * (12 + 15 * N + 5 * N**2),
    8 * (2 + N) ** 4,
])

# stays irreducible for every I in 2..10 (derived operator degenerated)
STUCK_OPERATOR = ShiftOperator([2 * N + 2, Polynomial([-2]), -2 * N - 4])

# (operator, p, factor, side, I): irreducible at I and at every larger I
IRREDUCIBLE_CASES = [
    (STUCK_OPERATOR, 3 * N + 1, N + 1, "lower", 2),
    (ShiftOperator([-2 * N**2 + 3 * N - 2, 2 * N**2 - 3 * N + 3, Polynomial([-3])]),
     Polynomial([1]), 2 * N**2 - 3 * N + 2, "lower", 2),
    (ShiftOperator([Polynomial([-2]), 2 * N**2 + 3 * N, -2 * N**2 - 5 * N - 3]),
     5 * N, 2 * N + 3, "upper", 2),
    (ShiftOperator([Polynomial([3]), 2 * N**2 - 2, Polynomial([3]), -2 * N**2 - 4 * N]),
     2 * N**2 + 5 * N - 4, -N**2 - 2 * N, "upper", 3),
]


class TestShiftProduct:
    def test_backward_product(self):
        spec = ShiftProductSpec(base=N + 1, direction=-1, order=2)
        assert sp_expand(spec) == N * (N - 1)

    def test_forward_product_with_base_shift(self):
        spec = ShiftProductSpec(base=(N + 2) ** 2, direction=1, order=2,
                                base_shift=-2)
        assert sp_expand(spec) == (N + 1) ** 2 * (N + 2) ** 2

    def test_empty_product(self, rng):
        spec = ShiftProductSpec(base=rand_polynomial(rng, 3), direction=1, order=0)
        assert sp_expand(spec) == 1


class TestPolynomialReduce:
    def test_derived_16n_cubic(self):
        red = polynomial_reduce(N * (N - 1) * (3 * N + 1), DERIVED_16N)
        assert red.remainder == 2 * (N + 1) ** 2
        assert red.multiplier == Polynomial([-1])
        assert red.check(N * (N - 1) * (3 * N + 1))

    def test_neg32_quintic(self):
        # the multiplier sign is forced by the leading coefficients:
        # L1*(1) has leading term +27 n^5 while q has +3 n^5
        left = build_L1_upper(DOMB_NEG32N_OPERATOR, (N + 2) ** 2, 2)
        q = (3 * N + 1) * (N + 1) ** 2 * (N + 2) ** 2
        red = polynomial_reduce(q, left)
        assert red.remainder == Polynomial([27, 103, 141, 78, 15]) / 9
        assert red.multiplier == Polynomial([Fraction(1, 9)])
        assert left.adjoint_apply(red.multiplier) + red.remainder == q

    def test_zero_polynomial(self, rng):
        red = polynomial_reduce(Polynomial(), rand_operator(rng))
        assert red.remainder.is_zero() and red.multiplier.is_zero()

    def test_order_zero_rejected(self):
        with pytest.raises(OrderZero):
            polynomial_reduce(N, ShiftOperator([N + 1]))

    def test_scalar_numerator(self):
        for c in (0, 3, Fraction(-2, 5)):
            assert polynomial_reduce(c, DERIVED_16N) == \
                polynomial_reduce(Polynomial([c]), DERIVED_16N)
        for bad in (0.5, "3"):
            with pytest.raises(TypeError):
                polynomial_reduce(bad, DERIVED_16N)

    def test_exactness_random(self, rng):
        done = 0
        while done < 300:
            op = rand_operator(rng, max_order=3, max_deg=3)
            prof = degree_profile(op)
            if prof.degenerated:
                continue
            p = rand_polynomial(rng, 7, height=9)
            red = polynomial_reduce(p, op)
            assert red.operator_used.adjoint_apply(red.multiplier) \
                + red.remainder == p
            assert red.remainder.degree < prof.deg_l
            done += 1

    def test_degenerated_degree_contract(self, rng):
        done = 0
        while done < 80:
            op = rand_operator(rng, max_order=3, max_deg=3)
            prof = degree_profile(op)
            if not prof.degenerated:
                continue
            p = rand_polynomial(rng, 7, height=9)
            red = polynomial_reduce(p, op)
            assert red.check(p)
            for k, c in enumerate(red.remainder.coeffs):
                if c != 0 and k >= max(prof.deg_l, 0):
                    assert k - prof.deg_l in prof.r_l
            done += 1

    def test_idempotence(self, rng):
        for _ in range(40):
            op = rand_operator(rng)
            p = rand_polynomial(rng, 6)
            rem = polynomial_reduce(p, op).remainder
            assert polynomial_reduce(rem, op).remainder == rem

    def test_scaling_invariance(self, rng):
        for _ in range(30):
            op = rand_operator(rng)
            p = rand_polynomial(rng, 6)
            c = Fraction(3, 7)
            red = polynomial_reduce(p, op)
            scaled = polynomial_reduce(p, op * c)
            assert scaled.remainder == red.remainder
            assert scaled.multiplier * c == red.multiplier


class TestDerivedOperators:
    def test_lower_matches_display(self):
        left = build_L1_lower(DOMB_16N_OPERATOR, N + 1, 2)
        assert left == DERIVED_16N

    def test_trivial_factor_lower(self, rng):
        op = rand_operator(rng, max_order=2)
        assert build_L1_lower(op, Polynomial([1]), 3) == op

    def test_lower_with_full_constant_coefficient(self):
        left = build_L1_lower(DOMB_NEG32N_OPERATOR, (N + 1) ** 3, 2)
        seq = get_sequence("domb_over_neg32n")
        sp = sp_expand(ShiftProductSpec((N + 1) ** 3, -1, 2))
        for m in range(2, 60):
            acc = sum(
                left.coefficient(i).evaluate(m) * seq.eval(m + i)
                / sp.evaluate(m + i)
                for i in range(left.order + 1)
            )
            assert acc == 0

    def test_upper_matches_display(self):
        left = build_L1_upper(DOMB_NEG32N_OPERATOR, (N + 2) ** 2, 2)
        assert left.coefficient(0) == (N + 1) ** 5
        assert left.coefficient(1) == \
            (3 + N) ** 2 * (3 + 2 * N) * (12 + 15 * N + 5 * N**2)
        assert left.coefficient(2) == \
            16 * (2 + N) * (3 + N) ** 2 * (4 + N) ** 2

    def test_trivial_factor_upper(self, rng):
        op = rand_operator(rng, max_order=2)
        assert build_L1_upper(op, Polynomial([1]), 2) == op

    def test_factor_must_divide(self):
        with pytest.raises(FactorNotDivisor):
            build_L1_lower(DOMB_16N_OPERATOR, N + 5, 2)
        with pytest.raises(FactorNotDivisor):
            build_L1_upper(DOMB_16N_OPERATOR, N + 5, 2)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            build_L1_lower(DOMB_16N_OPERATOR, N + 1, 1)

    def test_derived_annihilates_scaled_sequence(self):
        cases = [
            ("domb_over_neg32n", (N + 2) ** 2, "upper", 2),
            ("domb_over_neg32n", (N + 2) ** 3, "upper", 2),
            ("domb_over_neg32n", (N + 1) ** 2, "lower", 2),
            ("domb_over_neg32n", (N + 1) ** 3, "lower", 2),
            ("domb_over_neg32n", (N + 2) ** 2, "upper", 3),
            ("domb_over_16n", N + 1, "lower", 2),
        ]
        for key, factor, side, order in cases:
            seq = get_sequence(key)
            if side == "lower":
                left = build_L1_lower(seq.operator, factor, order)
                spec = ShiftProductSpec(factor, -1, order)
            else:
                left = build_L1_upper(seq.operator, factor, order)
                spec = ShiftProductSpec(factor, 1, order, base_shift=-seq.operator.order)
            sp = sp_expand(spec)
            start = order + 1
            for m in range(start, start + 100):
                acc = sum(
                    left.coefficient(i).evaluate(m) * seq.eval(m + i)
                    / sp.evaluate(m + i)
                    for i in range(left.order + 1)
                )
                assert acc == 0


class TestRationalReduce:
    def test_neg32_upper_square(self):
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR,
                             (N + 2) ** 2, "upper", 2)
        assert rr.remainder_numer == Polynomial([27, 103, 141, 78, 15]) / 9
        assert rr.denominator == (N + 1) ** 2 * (N + 2) ** 2

    def test_neg32_lower_square(self):
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR,
                             (N + 1) ** 2, "lower", 2)
        assert rr.remainder_numer == Polynomial([2, 5, -9, -21, 39]) * Fraction(-1, 9)
        assert rr.denominator == N**2 * (N - 1) ** 2

    def test_16n_lower_linear(self):
        rr = rational_reduce(3 * N + 1, DOMB_16N_OPERATOR, N + 1, "lower", 2)
        assert rr.remainder_numer == 2 * (N + 1) ** 2
        assert rr.denominator == N * (N - 1)

    def test_decomposition_identity(self):
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR,
                             (N + 2) ** 2, "upper", 2)
        q = (3 * N + 1) * rr.denominator
        assert rr.derived_operator.adjoint_apply(rr.reduction.multiplier) \
            + rr.remainder_numer == q

    def test_trivial_factor_is_plain_reduction(self):
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR,
                             Polynomial([1]), "upper", 2)
        red = polynomial_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR)
        assert rr.remainder_numer == red.remainder
        assert rr.denominator == 1

    def test_profiles_each_operator_once(self, monkeypatch):
        import holoreduce.reduction as reduction

        profiled = []

        def counting(op):
            profiled.append(op)
            return degree_profile(op)

        monkeypatch.setattr(reduction, "degree_profile", counting)
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR,
                             (N + 2) ** 2, "upper", 2)
        assert profiled == [rr.derived_operator, DOMB_NEG32N_OPERATOR]

    def test_irreducible_reports(self):
        with pytest.raises(IrreducibleAtThisI):
            rational_reduce(3 * N + 1, STUCK_OPERATOR, N + 1, "lower", 2)

    def test_order_shifts_indicial_polynomial(self, rng):
        # one more shift of A in SP gives f_{I+1}(s) = c f_I(s - deg A): the
        # parked degrees rise by deg A, as the degree of p * SP does
        checked = 0
        while checked < 60:
            side = rng.choice(("lower", "upper"))
            op = rand_operator(rng, max_order=3, max_deg=2)
            factor = rand_polynomial(rng, 2, 3, nonzero=True)
            if factor.degree < 1:
                continue
            home = 0 if side == "lower" else op.order
            coeffs = list(op.coeffs)
            coeffs[home] = factor * rand_polynomial(rng, 1, 3, nonzero=True)
            op = ShiftOperator(coeffs)
            build = build_L1_lower if side == "lower" else build_L1_upper
            order = op.order + rng.randint(0, 2)
            f_here = degree_profile(build(op, factor, order)).f_poly
            f_next = degree_profile(build(op, factor, order + 1)).f_poly
            c = f_next.leading_coefficient / f_here.leading_coefficient
            assert f_next == c * f_here.shift(-int(factor.degree))
            checked += 1

    @pytest.mark.parametrize("op, p, factor, side, order", IRREDUCIBLE_CASES,
                             ids=["stuck", "lower-deg2", "upper-deg1", "upper-order3"])
    def test_irreducible_at_every_larger_order(self, op, p, factor, side, order):
        # so a larger I never turns the error into a result
        degrees = []
        for i_order in range(order, order + 9):
            with pytest.raises(IrreducibleAtThisI, match=f"at I = {i_order}$") as err:
                rational_reduce(p, op, factor, side, i_order)
            degrees.append(int(re.search(r"remainder degree (\d+)", str(err.value))[1]))
        step = int(factor.degree)
        assert degrees == list(range(degrees[0], degrees[0] + 9 * step, step))

    @pytest.mark.parametrize("side, factor", [("lower", (N + 1) ** 2),
                                              ("upper", (N + 2) ** 2)])
    # ids as they read when the test also took a retry flag
    @pytest.mark.parametrize("order", [2, 3, 4], ids=["2-False", "3-False", "4-False"])
    def test_one_shift_product_per_reduction(self, side, factor, order):
        # the denominator is the spec's one expansion, and the derived
        # operator the public builder's
        rr = rational_reduce(3 * N + 1, DOMB_NEG32N_OPERATOR, factor, side, order)
        build = build_L1_lower if side == "lower" else build_L1_upper
        assert rr.denominator == sp_expand(rr.denom_spec)
        assert rr.derived_operator == build(DOMB_NEG32N_OPERATOR, factor,
                                            rr.denom_spec.order)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            rational_reduce(N, DOMB_16N_OPERATOR, N + 1, "sideways", 2)

    def test_telescoping_windows(self):
        # D(n) = p F - rem/SP F sums to certificate boundary differences
        key, factor, side, order = "domb_over_neg32n", (N + 2) ** 2, "upper", 2
        seq = get_sequence(key)
        p = 3 * N + 1
        rr = rational_reduce(p, seq.operator, factor, side, order)
        sp = rr.denominator
        us = rr.reduction.certificate

        def g(m):
            return seq.eval(m) / sp.evaluate(m)

        def t(m):
            return -sum(
                (u.evaluate(m) * g(m + i) for i, u in enumerate(us)),
                Fraction(0),
            )

        a = order  # below this SP may vanish for lower reductions
        total = Fraction(0)
        for b in range(a, a + 100):
            total += p.evaluate(b) * seq.eval(b) \
                - rr.remainder_numer.evaluate(b) * g(b)
            assert total == t(b + 1) - t(a)


class TestDenominatorAdmissibility:
    def test_harmonic_blocks_generic_denominator(self):
        report = denominator_admissibility(HARMONIC_RATIO_OPERATOR, 2 * N + 1)
        assert report.all_hold
        # independent brute-force confirmation over a shift window
        a0 = HARMONIC_RATIO_OPERATOR.coefficient(0)
        a2 = HARMONIC_RATIO_OPERATOR.coefficient(2)
        b = 2 * N + 1
        for h in range(0, 51):
            from holoreduce import poly_gcd
            assert poly_gcd(a0, a2.shift(h)) == 1
            assert poly_gcd(b, b.shift(2 + h)) == 1
            assert poly_gcd(a0, b.shift(2 + h)) == 1
            assert poly_gcd(b, a2.shift(h)) == 1

    def test_harmonic_shifted_trailing_root_detected(self):
        # n + 5 shares a root with a_J(n + h) at h = 2 and 3, so the
        # trailing-coefficient condition fails; brute force agrees
        from holoreduce import poly_gcd

        report = denominator_admissibility(HARMONIC_RATIO_OPERATOR, N + 5)
        assert not report.b_vs_aj
        a2 = HARMONIC_RATIO_OPERATOR.coefficient(2)
        assert poly_gcd(N + 5, a2.shift(3)) == N + 5

    def test_16n_shift_built_denominator_fails(self):
        report = denominator_admissibility(DOMB_16N_OPERATOR, N * (N - 1))
        assert not report.a0_vs_b
        assert not report.all_hold

    def test_constant_denominator_vacuous(self, rng):
        op = rand_operator(rng, max_order=2)
        while op.coefficient(0).is_zero():
            op = rand_operator(rng, max_order=2)
        assert denominator_admissibility(op, Polynomial([1])).all_hold

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroInput):
            denominator_admissibility(DOMB_16N_OPERATOR, Polynomial())


# The two hand-expanded builders that the single shift-product builder
# replaced, kept verbatim as the differential oracle.
def parent_build_L1_lower(op: ShiftOperator, a0_factor: Polynomial, i_order: int) -> ShiftOperator:
    """Annihilator of G(n) = F(n) / prod_{j=1..I} A0(n-j) given L(F) = 0.

    The constant coefficient is (a_0/A0)(n) * prod_{j=I-J+1..I} A0(n-j);
    the sigma^i coefficient for i >= 1 is
    a_i(n) * prod_{j=1..i-1} A0(n+j) * prod_{j=I-J+1..I-i} A0(n-j).
    """
    j_ord = op.order
    if j_ord == 0:
        raise OrderZero("rational reduction needs an operator of order >= 1")
    if i_order < j_ord:
        raise OrderTooSmall(f"need I >= {j_ord}, got {i_order}")
    a0 = op.coefficient(0)
    if a0.is_zero() or a0_factor.is_zero():
        raise ZeroInput("lower reduction requires a nonzero constant coefficient")
    quo, rem = divmod(a0, a0_factor)
    if rem:
        raise FactorNotDivisor(f"{a0_factor} does not divide a_0 = {a0}")
    coeffs = []
    c0 = quo
    for j in range(i_order - j_ord + 1, i_order + 1):
        c0 = c0 * a0_factor.shift(-j)
    coeffs.append(c0)
    for i in range(1, j_ord + 1):
        ci = op.coefficient(i)
        for j in range(1, i):
            ci = ci * a0_factor.shift(j)
        for j in range(i_order - j_ord + 1, i_order - i + 1):
            ci = ci * a0_factor.shift(-j)
        coeffs.append(ci)
    return ShiftOperator(coeffs)


def parent_build_L1_upper(op: ShiftOperator, aj_factor: Polynomial, i_order: int) -> ShiftOperator:
    """Annihilator of G(n) = F(n) / prod_{j=1..I} A_J(n-J+j) given L(F) = 0.

    The sigma^i coefficient for i < J is
    a_i(n) * prod_{j=1..J-i-1} A_J(n-j) * prod_{j=I-J+1..I-J+i} A_J(n+j);
    the top coefficient is (a_J/A_J)(n) * prod_{j=I-J+1..I} A_J(n+j).
    """
    j_ord = op.order
    if j_ord == 0:
        raise OrderZero("rational reduction needs an operator of order >= 1")
    if i_order < j_ord:
        raise OrderTooSmall(f"need I >= {j_ord}, got {i_order}")
    aj = op.coefficient(j_ord)
    if aj_factor.is_zero():
        raise ZeroInput("upper reduction requires a nonzero factor")
    quo, rem = divmod(aj, aj_factor)
    if rem:
        raise FactorNotDivisor(f"{aj_factor} does not divide a_J = {aj}")
    coeffs = []
    for i in range(j_ord):
        ci = op.coefficient(i)
        for j in range(1, j_ord - i):
            ci = ci * aj_factor.shift(-j)
        for j in range(i_order - j_ord + 1, i_order - j_ord + i + 1):
            ci = ci * aj_factor.shift(j)
        coeffs.append(ci)
    cj = quo
    for j in range(i_order - j_ord + 1, i_order + 1):
        cj = cj * aj_factor.shift(j)
    coeffs.append(cj)
    return ShiftOperator(coeffs)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as err:  # compared by class and message
        return type(err), str(err)


_SMALL_POLYS = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(Polynomial)
_NONZERO_POLYS = _SMALL_POLYS.filter(lambda p: not p.is_zero())


class TestSingleBuilderAgainstParent:
    """One shift-product builder gives the parent's operator, exception
    class and message for both sides."""

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_matches_parent_builders(self, data):
        j_ord = data.draw(st.integers(1, 3), label="J")
        coeffs = data.draw(st.lists(_SMALL_POLYS, min_size=j_ord, max_size=j_ord))
        coeffs.append(data.draw(_NONZERO_POLYS))
        side = data.draw(st.sampled_from(["lower", "upper"]))
        home = 0 if side == "lower" else j_ord
        kind = data.draw(st.sampled_from(["divides", "arbitrary", "zero factor", "zero a_0"]))
        factor = Polynomial() if kind == "zero factor" else data.draw(_NONZERO_POLYS)
        if kind == "divides" and not coeffs[home].is_zero():
            coeffs[home] = coeffs[home] * factor
        if kind == "zero a_0":
            coeffs[0] = Polynomial()
        op = ShiftOperator(coeffs)
        i_order = data.draw(st.integers(j_ord - 1, j_ord + 3), label="I")
        if side == "lower":
            pair = (parent_build_L1_lower, build_L1_lower)
        else:
            pair = (parent_build_L1_upper, build_L1_upper)
        want, got = (_outcome(build, op, factor, i_order) for build in pair)
        assert got == want

    def test_each_error_is_reached(self):
        # the four rejections the differential test compares, once each
        op = DOMB_NEG32N_OPERATOR
        cases = [
            (build_L1_lower, op, N + 9, 2, FactorNotDivisor),
            (build_L1_upper, op, N + 9, 2, FactorNotDivisor),
            (build_L1_upper, op, (N + 2) ** 2, 1, OrderTooSmall),
            (build_L1_lower, ShiftOperator([0, N, 1]), N, 2, ZeroInput),
            (build_L1_lower, op, Polynomial(), 2, ZeroInput),
            (build_L1_upper, op, Polynomial(), 2, ZeroInput),
        ]
        parent = {build_L1_lower: parent_build_L1_lower, build_L1_upper: parent_build_L1_upper}
        for build, L, factor, i_order, err in cases:
            want = _outcome(parent[build], L, factor, i_order)
            assert want[0] is err
            assert _outcome(build, L, factor, i_order) == want
