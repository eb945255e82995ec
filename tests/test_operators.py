import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoreduce import (
    NEG_INF,
    DegreeProfile,
    Polynomial,
    ShiftOperator,
    SummableBounds,
    build_L1_lower,
    build_L1_upper,
    degree_law_check,
    degree_profile,
    falling_factorial,
    gcd_condition,
    integer_roots,
    poly_gcd,
    polynomial_reduce,
    rational_reduce,
    summable_degree_bounds,
)
from holoreduce.errors import InternalInconsistency, OrderZero, ZeroInput, ZeroOperator
from holoreduce.sequences import (
    CENTRAL_BINOMIAL_OPERATOR,
    DOMB_16N_OPERATOR,
    DOMB_NEG32N_OPERATOR,
    FRANEL_SIGNED_OPERATOR,
    HARMONIC_RATIO_OPERATOR,
    catalog,
)

from conftest import N, rand_operator, rand_polynomial

DELTA = ShiftOperator([Polynomial([-1]), Polynomial([1])])


def adjoint_oracle(op, x, m):
    """Pointwise adjoint value sum_i a_i(m-i) x(m-i), independent route."""
    return sum(
        (op.coefficient(i).evaluate(m - i) * x.evaluate(m - i)
         for i in range(op.order + 1)),
        Fraction(0),
    )


class TestAdjoint:
    def test_harmonic_kills_constants(self):
        assert HARMONIC_RATIO_OPERATOR.adjoint_apply(Polynomial([1])).is_zero()

    def test_harmonic_on_n(self):
        image = HARMONIC_RATIO_OPERATOR.adjoint_apply(N)
        for m in range(-6, 7):
            assert image.evaluate(m) == adjoint_oracle(HARMONIC_RATIO_OPERATOR, N, m)
        assert image == N**2 + N

    def test_zero_input(self, rng):
        op = rand_operator(rng)
        assert op.adjoint_apply(Polynomial()).is_zero()

    def test_linearity(self, rng):
        for _ in range(30):
            op = rand_operator(rng)
            x = rand_polynomial(rng, 4)
            y = rand_polynomial(rng, 4)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert op.adjoint_apply(a * x + b * y) == \
                a * op.adjoint_apply(x) + b * op.adjoint_apply(y)


class TestCertificates:
    def test_derived_domb_operator_units(self):
        # order-2 operator annihilating Domb(n)/(16^n n(n-1))
        left = ShiftOperator([
            2 * (N - 1) * N * (N + 1) ** 2,
            -N * (3 + 2 * N) * (12 + 15 * N + 5 * N**2),
            8 * (2 + N) ** 4,
        ])
        u0, u1 = left.certificate(Polynomial([1]))
        assert u0 == Polynomial([2, 7, 6, -5, -2])
        assert u1 == 8 * (1 + N) ** 4

    def test_zero_multiplier(self, rng):
        op = rand_operator(rng)
        assert all(u.is_zero() for u in op.certificate(Polynomial()))

    def test_franel_signed_units(self):
        u0, u1 = FRANEL_SIGNED_OPERATOR.certificate(Polynomial([1]))
        assert -u0 == 8 * N**3 - 5 * N - 2
        assert -u1 == (N + 1) ** 3

    def test_order_zero_rejected(self):
        with pytest.raises(OrderZero):
            ShiftOperator([N + 1]).certificate(Polynomial([1]))

    def test_certificate_identity_on_catalog(self, rng):
        # L*(x)(n) F(n) telescopes: equals U(n) - U(n+1) pointwise
        for entry in catalog():
            seq = entry.sequence
            if seq.operator is None:
                continue
            for x in (Polynomial([1]), rand_polynomial(rng, 4, height=4)):
                image = seq.operator.adjoint_apply(x)
                us = seq.operator.certificate(x)

                def boundary(m):
                    return sum(
                        (u.evaluate(m) * seq.eval(m + i)
                         for i, u in enumerate(us)),
                        Fraction(0),
                    )

                for m in range(seq.start_index, seq.start_index + 100):
                    assert image.evaluate(m) * seq.eval(m) == \
                        boundary(m) - boundary(m + 1)


class TestDegreeProfile:
    def test_franel_signed(self):
        prof = degree_profile(FRANEL_SIGNED_OPERATOR)
        assert (prof.deg_l, prof.c_l) == (2, 0)
        assert prof.degenerated and prof.r_l == {0}

    def test_harmonic_ratio(self):
        prof = degree_profile(HARMONIC_RATIO_OPERATOR)
        assert (prof.deg_l, prof.c_l) == (1, 1)
        assert prof.degenerated

    def test_central_binomial(self):
        prof = degree_profile(CENTRAL_BINOMIAL_OPERATOR)
        assert (prof.deg_l, prof.c_l) == (3, 0)

    def test_domb_16n(self):
        prof = degree_profile(DOMB_16N_OPERATOR)
        assert prof.deg_l == 2
        assert not prof.degenerated
        assert prof.d_l == 3
        assert not prof.strongly_nondegenerated

    def test_domb_neg32n_strong(self):
        prof = degree_profile(DOMB_NEG32N_OPERATOR)
        assert prof.deg_l == prof.d_l == 3
        assert prof.strongly_nondegenerated and not prof.degenerated

    def test_difference_operator(self):
        prof = degree_profile(DELTA)
        assert prof.deg_l == -1
        assert prof.c_l == 1
        assert prof.r_l == {0}

    def test_b0_is_adjoint_of_one(self, rng):
        for _ in range(30):
            op = rand_operator(rng)
            prof = degree_profile(op)
            assert prof.b_polys[0] == op.adjoint_apply(Polynomial([1]))

    def test_cl_brute_force_agreement(self, rng):
        for _ in range(60):
            op = rand_operator(rng)
            prof = degree_profile(op)
            # independent pointwise zero test for each candidate s
            for s in range(op.order + 1):
                x = Polynomial.monomial(s)
                probe = max(prof.d_l + op.order + s + 2, 4)
                vanish = all(adjoint_oracle(op, x, m) == 0
                             for m in range(probe))
                if s < prof.c_l:
                    assert vanish
                elif s == prof.c_l:
                    assert not vanish
                    break

    def test_f_poly_never_zero(self, rng):
        for _ in range(100):
            prof = degree_profile(rand_operator(rng))
            assert not prof.f_poly.is_zero()
            assert len(prof.r_l) <= len(prof.b_polys) - 1

    def test_nondegenerate_implies_zero_start(self, rng):
        seen = 0
        while seen < 200:
            prof = degree_profile(rand_operator(rng))
            if prof.degenerated:
                continue
            assert prof.c_l == 0
            seen += 1


class TestDegreeLaw:
    def test_harmonic_constant_drops(self):
        assert degree_law_check(HARMONIC_RATIO_OPERATOR, Polynomial([1])) == "<"

    def test_franel_constant_drops(self):
        # 0 lies in R_L, so L*(1) = 2 - 3n has degree 1 < 2 + 0
        assert degree_law_check(FRANEL_SIGNED_OPERATOR, Polynomial([1])) == "<"
        assert FRANEL_SIGNED_OPERATOR.adjoint_apply(Polynomial([1])).degree == 1

    def test_central_binomial_on_n(self):
        assert degree_law_check(CENTRAL_BINOMIAL_OPERATOR, N) == "="
        assert CENTRAL_BINOMIAL_OPERATOR.adjoint_apply(N).degree == 4

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            degree_law_check(DELTA, Polynomial())

    def test_random_law(self, rng):
        for _ in range(60):
            op = rand_operator(rng)
            x = rand_polynomial(rng, 5, nonzero=True)
            prof = degree_profile(op)
            tag = degree_law_check(op, x)
            expected = "<" if (prof.degenerated and x.degree in prof.r_l) else "="
            assert tag == expected


_roots = st.lists(st.integers(-9, 9), max_size=1)


def _rows(size):
    return st.lists(st.integers(-9, 9), min_size=size, max_size=size + 1).filter(
        lambda row: row[-1])


def _planted(roots, row):
    """The polynomial prod(n - r) * row(n) and a bound on its roots' sizes:
    the largest |r| or the Cauchy bound of the row."""
    p = Polynomial(row)
    bound = 1 + max(abs(x) for x in p.coeffs) / abs(p.leading_coefficient)
    for r in roots:
        p = p * (N - r)
    return p, max([bound, *map(abs, roots)])


class TestGcdCondition:
    def test_harmonic_pair_coprime_for_all_shifts(self):
        assert gcd_condition(N * (N + 1) ** 2, (N + 2) ** 2 * (N + 3), 0)

    def test_equal_linear_collides_at_zero(self):
        assert not gcd_condition(N, N, 0)
        assert gcd_condition(N, N, 1)

    def test_separated_linear(self):
        assert gcd_condition(N, N + 5, 0)

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            gcd_condition(Polynomial(), N, 0)

    def test_against_brute_force(self, rng):
        for _ in range(200):
            a = rand_polynomial(rng, 3, height=5, nonzero=True)
            b = rand_polynomial(rng, 3, height=5, nonzero=True)
            brute = all(
                poly_gcd(a, b.shift(h)) == 1 for h in range(0, 51)
            ) if (a.degree > 0 and b.degree > 0) else True
            assert gcd_condition(a, b, 0) == brute

    @given(c=st.tuples(_roots, _rows(2)), u=st.tuples(_roots, _rows(1)),
           v=st.tuples(_roots, _rows(1)), h0=st.integers(0, 10**6),
           below=st.integers(0, 10**7), past=st.integers(1, 21))
    @settings(max_examples=100, deadline=None)
    def test_planted_common_factor(self, c, u, v, h0, below, past):
        # a0 = c(n) u(n) and a_J = c(n - h0) v(n) collide at the shift h0
        (c, bc), (u, bu), (v, bv) = (_planted(*x) for x in (c, u, v))
        a0, a_j = c * u, c.shift(-h0) * v
        assert not gcd_condition(a0, a_j, h0)
        assert not gcd_condition(a0, a_j, h0 - below)
        # a collision pairs a root of c(n - h0) or of v with one of a0, so
        # it is at most h0 + 2B, B bounding every root of c, u and v
        offset, top = h0 + past, h0 + int(2 * max(bc, bu, bv))
        scan = all(poly_gcd(a0, a_j.shift(h)) == 1 for h in range(offset, top + 1))
        assert gcd_condition(a0, a_j, offset) == scan


class TestSummableBounds:
    def test_franel_upper(self):
        bounds = summable_degree_bounds(FRANEL_SIGNED_OPERATOR)
        assert bounds.upper == 2
        assert not bounds.lower_valid

    def test_harmonic_two_sided(self):
        bounds = summable_degree_bounds(HARMONIC_RATIO_OPERATOR)
        assert bounds.upper == 2
        assert bounds.lower_valid and bounds.lower == 2
        assert bounds.witness == N**2 + N

    def test_central_binomial_upper(self):
        assert summable_degree_bounds(CENTRAL_BINOMIAL_OPERATOR).upper == 3

    def test_order_zero(self):
        with pytest.raises(OrderZero):
            summable_degree_bounds(ShiftOperator([N]))


class TestOperatorBasics:
    def test_trailing_zeros_trimmed(self):
        op = ShiftOperator([N, Polynomial([1]), Polynomial(), Polynomial()])
        assert op.order == 1

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperator):
            ShiftOperator([Polynomial(), Polynomial()])

    def test_primitive_normalization(self):
        op = ShiftOperator([N / 2, Polynomial([Fraction(-3, 4)])])
        prim = op.primitive()
        assert prim.coefficient(0) == -2 * N
        assert prim.coefficient(1) == 3

    def test_scalar_scaling(self, rng):
        op = rand_operator(rng)
        assert (op * 3).coefficient(0) == 3 * op.coefficient(0)
        with pytest.raises(ZeroOperator):
            op * 0

    def test_inexact_scalars_rejected(self):
        # a float or string scalar would hold a binary approximation or a
        # parsed value; like Polynomial, the operator takes ints and Fractions
        for bad in (0.1, 1.0, "1/2", "0"):
            with pytest.raises(TypeError):
                ShiftOperator([bad, Polynomial([1])])
            with pytest.raises(TypeError):
                DELTA.adjoint_apply(bad)
            with pytest.raises(TypeError):
                DELTA.certificate(bad)

    def test_exact_scalars(self):
        op = ShiftOperator([0, Fraction(1, 2), N, 3, 0])
        assert op.coeffs == (Polynomial(), Polynomial([Fraction(1, 2)]), N,
                             Polynomial([3]))
        for c in (0, 2, Fraction(-3, 7)):
            x = Polynomial([c])
            assert op.adjoint_apply(c) == op.adjoint_apply(x)
            assert op.certificate(c) == op.certificate(x)
        assert op.adjoint_apply(0).is_zero()


# The parent implementation of the adjoint data, kept verbatim (as functions
# of the operator) as a differential oracle for the memoised one.


def parent_adjoint_apply(op, x: Polynomial) -> Polynomial:
    """L*(x)(n) = sum_i a_i(n-i) x(n-i)."""
    if not isinstance(x, Polynomial):
        x = Polynomial((Fraction(x),)) if x else Polynomial()
    out = Polynomial()
    for i, a in enumerate(op.coeffs):
        if a.is_zero():
            continue
        out = out + a.shift(-i) * x.shift(-i)
    return out


def parent_degree_profile(op):
    J = op.order
    b_polys = []
    for k in range(J + 1):
        b = Polynomial()
        for j in range(k, J + 1):
            a = op.coefficient(J - j)
            if a.is_zero():
                continue
            b = b + comb(j, k) * a.shift(j - J)
        b_polys.append(b)
    deg_l = max(b.degree - k for k, b in enumerate(b_polys))
    if deg_l == NEG_INF:
        raise InternalInconsistency("all b_k vanish for a nonzero operator")
    deg_l = int(deg_l)
    d_l = int(max(c.degree for c in op.coeffs))

    f = Polynomial()
    for k, b in enumerate(b_polys):
        idx = deg_l + k
        if idx >= 0:
            c = b.coefficient(idx)
            if c != 0:
                f = f + c * falling_factorial(k)
    if f.is_zero():
        raise InternalInconsistency("f(s) vanished identically")
    r_l = frozenset(s for s in integer_roots(f) if s >= 0)

    c_l = None
    for s in range(J + 1):
        if not parent_adjoint_apply(op, Polynomial.monomial(s)).is_zero():
            c_l = s
            break
    if c_l is None:
        raise InternalInconsistency("no s <= J with L*(n^s) != 0")

    return DegreeProfile(
        deg_l=deg_l,
        d_l=d_l,
        b_polys=tuple(b_polys),
        f_poly=f,
        r_l=r_l,
        c_l=c_l,
        degenerated=bool(r_l),
        strongly_nondegenerated=(deg_l == d_l),
    )


def parent_summable_degree_bounds(op):
    if op.order == 0:
        raise OrderZero("summability bounds need an operator of order >= 1")
    prof = parent_degree_profile(op)
    witness = parent_adjoint_apply(op, Polynomial.monomial(prof.c_l))
    upper = prof.deg_l + prof.c_l

    lower_valid = False
    a0 = op.coefficient(0)
    if not a0.is_zero() and gcd_condition(a0, op.coeffs[-1], 0):
        if not prof.degenerated:
            lower_valid = True
        else:
            lower_valid = all(
                parent_adjoint_apply(op, Polynomial.monomial(s)).is_zero()
                for s in prof.r_l
            )
    return SummableBounds(
        upper=upper,
        witness=witness,
        lower_valid=lower_valid,
        lower=upper if lower_valid else None,
    )


_POLYS = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(Polynomial)
_NONZERO = _POLYS.filter(bool)


@st.composite
def _operators(draw):
    """A random operator of order 1..3, or the L1 that a rational
    reduction derives from one: a_0 (lower) or a_J (upper) then carries a
    linear factor A, and L1 annihilates F / SP for I = J or J + 1 shifts of A."""
    order = draw(st.integers(1, 3))
    coeffs = draw(st.lists(_POLYS, min_size=order, max_size=order))
    coeffs.append(draw(_NONZERO))
    side = draw(st.sampled_from((None, "lower", "upper")))
    if side is None:
        return ShiftOperator(coeffs)
    factor = N + draw(st.integers(-3, 3))
    home = 0 if side == "lower" else order
    coeffs[home] = factor * (coeffs[home] or Polynomial([1]))
    build = build_L1_lower if side == "lower" else build_L1_upper
    return build(ShiftOperator(coeffs), factor, order + draw(st.integers(0, 1)))


class TestParentOracle:
    @given(op=_operators(), xs=st.lists(_POLYS, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_parent(self, op, xs):
        assert degree_profile(op) == parent_degree_profile(op)
        assert summable_degree_bounds(op) == parent_summable_degree_bounds(op)
        for x in [*xs, 0, 3]:
            assert op.adjoint_apply(x) == parent_adjoint_apply(op, x)
        for s in range(op.order + 3):
            assert op.adjoint_image(s) == parent_adjoint_apply(op, Polynomial.monomial(s))
        # a second read comes from the memo and still agrees
        assert degree_profile(op) is degree_profile(op)
        assert summable_degree_bounds(op) == parent_summable_degree_bounds(op)


class TestAdjointMemo:
    def test_each_operator_derives_once(self, monkeypatch):
        import holoreduce.operators as operators

        shifts, profiles, images = Counter(), Counter(), Counter()
        ops = [ShiftOperator([Polynomial(c.coeffs) for c in op.coeffs])
               for op in (DOMB_NEG32N_OPERATOR, DOMB_16N_OPERATOR,
                          HARMONIC_RATIO_OPERATOR, FRANEL_SIGNED_OPERATOR)]
        coeff_index = {id(c): (id(op), i) for op in ops for i, c in enumerate(op.coeffs)}
        shift, profile, apply = Polynomial.shift, operators._profile, ShiftOperator.adjoint_apply

        def counting_shift(p, k):
            if id(p) in coeff_index and k < 0:
                shifts[coeff_index[id(p)], k] += 1
            return shift(p, k)

        def counting_profile(op):
            profiles[id(op)] += 1
            return profile(op)

        def counting_apply(op, x):
            images[id(op), x] += 1
            return apply(op, x)

        monkeypatch.setattr(Polynomial, "shift", counting_shift)
        monkeypatch.setattr(operators, "_profile", counting_profile)
        monkeypatch.setattr(ShiftOperator, "adjoint_apply", counting_apply)
        p = (3 * N + 1) * (N + 2) ** 3
        derived = []
        for _ in range(2):
            for op in ops:
                degree_profile(op)
                summable_degree_bounds(op)
                polynomial_reduce(p, op)
            derived += [rational_reduce(p, ops[0], (N + 2) ** 2, "upper", 2),
                        rational_reduce(p, ops[1], N + 1, "lower", 2)]
        derived = [rr.derived_operator for rr in derived]
        assert shifts == {((id(op), i), -i): 1 for op in ops for i in range(1, op.order + 1)}
        assert profiles == {id(op): 1 for op in ops + derived}
        assert set(images.values()) == {1}
        assert all(x == Polynomial.monomial(x.degree) for _, x in images)

    def test_concurrent_first_use(self):
        # threads that race to fill the memo only compute the same value twice
        def fresh():
            return ShiftOperator([Polynomial(c.coeffs) for c in DOMB_NEG32N_OPERATOR.coeffs])

        want = [parent_summable_degree_bounds(fresh()), parent_degree_profile(fresh())]
        want += [parent_adjoint_apply(fresh(), Polynomial.monomial(s)) for s in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                op, results, errors = fresh(), [], []

                def worker():
                    try:
                        got = [summable_degree_bounds(op), degree_profile(op)]
                        results.append(got + [op.adjoint_image(s) for s in range(6)])
                    except Exception as err:  # noqa: BLE001 - reported below
                        errors.append(err)

                threads = [threading.Thread(target=worker) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert results == [want] * len(threads)
        finally:
            sys.setswitchinterval(interval)
