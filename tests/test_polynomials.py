import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoreduce import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    falling_factorial,
    integer_roots,
    interpolate,
    poly_gcd,
    resultant,
)
from holoreduce.errors import BothZero, DivisionNotExact, ZeroPolynomial
from holoreduce.polynomials import _taylor_shift

from conftest import N, rand_polynomial


def expand_linear_power(a, b, k):
    """Oracle: (a*n + b)^k expanded with the binomial theorem."""
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k + 1):
        coeffs[i] = Fraction(comb(k, i) * a**i * b ** (k - i))
    return Polynomial(coeffs)


small_polys = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=6),
)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (N + 1) * (N - 1) == N**2 - 1

    def test_exact_divide_inverse(self):
        assert (N**2 - 1).exact_div(N + 1) == N - 1

    def test_exact_divide_error(self):
        with pytest.raises(DivisionNotExact):
            (N**2 + 1).exact_div(N + 1)

    def test_binomial_power_expansion(self):
        oracle = expand_linear_power(2, -1, 4)
        assert (2 * N - 1) ** 4 == oracle
        assert oracle == Polynomial([1, -8, 24, -32, 16])

    def test_scalar_mul_and_div(self):
        p = 3 * N**2 - N
        assert p * Fraction(1, 3) == N**2 - N / 3
        assert (p / 3) * 3 == p

    def test_divmod_roundtrip(self, rng):
        for _ in range(100):
            a = rand_polynomial(rng, 6, nonzero=False)
            b = rand_polynomial(rng, 3, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert (q * b).exact_div(b) == q

    def test_zero_polynomial_degree(self):
        assert Polynomial().degree == NEG_INF
        assert NEG_INF < -(10**9)

    @given(a=small_polys, b=small_polys)
    def test_degree_laws(self, a, b):
        if a and b:
            assert (a * b).degree == a.degree + b.degree
        assert (a + b).degree <= max(a.degree, b.degree)

    def test_eq_hash_against_scalars(self):
        assert Polynomial([3]) == 3
        assert hash(Polynomial([3])) == hash(3)
        assert Polynomial() == 0


class TestShift:
    def test_square_shift(self):
        assert (N**2).shift(1) == N**2 + 2 * N + 1

    def test_shift_by_substitution_oracle(self):
        p = N * (N + 1) ** 2
        shifted = p.shift(-1)
        for x in range(-10, 11):
            assert shifted.evaluate(x) == p.evaluate(x - 1)
        assert shifted == (N - 1) * N**2

    def test_shift_zero_is_identity(self, rng):
        p = rand_polynomial(rng, 5)
        assert p.shift(0) == p

    @given(p=small_polys, k1=st.integers(-5, 5), k2=st.integers(-5, 5))
    @settings(max_examples=60)
    def test_shift_composition(self, p, k1, k2):
        assert p.shift(k1).shift(k2) == p.shift(k1 + k2)

    @given(a=small_polys, b=small_polys, k=st.integers(-4, 4))
    @settings(max_examples=60)
    def test_shift_is_ring_homomorphism(self, a, b, k):
        assert (a + b).shift(k) == a.shift(k) + b.shift(k)
        assert (a * b).shift(k) == a.shift(k) * b.shift(k)

    @given(row=st.lists(st.integers(-10**6, 10**6), max_size=12),
           k=st.integers(1, 10**4))
    @settings(max_examples=200)
    def test_integer_taylor_shift(self, row, k):
        # negative, zero and positive shifts; the row may end in zeros
        for shift in (-k, 0, k):
            assert Polynomial(_taylor_shift(row, shift)) == \
                Polynomial(row).shift(shift)


class TestGcd:
    def test_simple(self):
        assert poly_gcd(N**2 - 1, N + 1) == N + 1

    def test_coprime_pair(self):
        assert poly_gcd(N * (N + 1) ** 2, (N + 2) ** 2 * (N + 3)) == 1

    def test_gcd_with_zero(self):
        assert poly_gcd(Polynomial(), N) == N
        assert poly_gcd(2 * N, Polynomial()) == N

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_gcd(Polynomial(), Polynomial())

    def test_gcd_divides_both(self, rng):
        for _ in range(50):
            a = rand_polynomial(rng, 3, nonzero=True)
            b = rand_polynomial(rng, 3, nonzero=True)
            c = rand_polynomial(rng, 2, nonzero=True)
            g = poly_gcd(a * c, b * c)
            (a * c).exact_div(g)
            (b * c).exact_div(g)
            g.exact_div(poly_gcd(c, c))  # common factor survives


class TestIntegerRoots:
    def test_examples(self):
        assert integer_roots(N**2 - 3 * N + 2) == {1, 2}
        assert integer_roots(N**2 + 1) == set()
        assert integer_roots(N**3 - N) == {-1, 0, 1}

    def test_zero_error(self):
        with pytest.raises(ZeroPolynomial):
            integer_roots(Polynomial())

    def test_exhaustive_oracle_small(self):
        # independent oracle: scan every candidate in a wide window
        p = (N - 4) * (N + 7) * (3 * N - 1)
        assert integer_roots(p) == {m for m in range(-50, 51)
                                    if p.evaluate(m) == 0}

    def test_against_cauchy_scan(self):
        rng = random.Random(1234)
        for _ in range(500):
            p = rand_polynomial(rng, 6, height=100, nonzero=True)
            if p.degree == 0:
                assert integer_roots(p) == set()
                continue
            ints = [abs(c) for c in p.coeffs]
            bound = 1 + max(Fraction(c, abs(p.leading_coefficient))
                            for c in ints)
            scan = {m for m in range(-int(bound) - 1, int(bound) + 2)
                    if p.evaluate(m) == 0}
            assert integer_roots(p) == scan

    def test_rational_coefficients(self):
        p = (N - 2) * (N + 5) / 7
        assert integer_roots(p) == {2, -5}


class TestFallingFactorial:
    def test_low_orders(self):
        assert falling_factorial(0) == 1
        assert falling_factorial(2) == N**2 - N

    def test_product_oracle(self):
        oracle = Polynomial([1])
        for i in range(3):
            oracle = oracle * (N - i)
        assert falling_factorial(3) == oracle
        assert oracle == N**3 - 3 * N**2 + 2 * N

    def test_values_match_permutation_counts(self):
        for s in range(3, 9):
            assert falling_factorial(3).evaluate(s) == s * (s - 1) * (s - 2)


class TestRationalFunction:
    def test_canonical_under_common_factor(self, rng):
        for _ in range(60):
            a = rand_polynomial(rng, 3)
            b = rand_polynomial(rng, 3, nonzero=True)
            c = rand_polynomial(rng, 2, nonzero=True)
            assert RationalFunction(a, b) == RationalFunction(a * c, b * c)

    def test_denominator_is_monic(self):
        r = RationalFunction(2 * N, Polynomial([2]))
        assert r.numer == N and r.denom == 1
        r2 = RationalFunction(N, -3 * (N + 1))
        assert r2.denom.leading_coefficient == 1

    def test_field_operations(self):
        half = RationalFunction(1, N)
        assert half + half == RationalFunction(2, N)
        assert half * half == RationalFunction(1, N**2)
        assert (half / half) == RationalFunction(1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(N, Polynomial())


class TestResultantInterpolate:
    def test_resultant_via_root_products(self):
        f = (N - 1) * (N - 2)
        g = N - 3
        # res(f, g) = lc(f)^deg g * prod g(alpha) over roots alpha of f
        assert resultant(f, g) == g.evaluate(1) * g.evaluate(2)

    def test_resultant_detects_common_root(self):
        assert resultant((N - 1) * (N + 4), (N - 1) * (N - 9)) == 0

    def test_resultant_scaling(self):
        f, g = N**2 + 1, N - 5
        assert resultant(3 * f, g) == 3 ** g.degree * resultant(f, g)

    def test_interpolate_roundtrip(self, rng):
        for _ in range(40):
            p = rand_polynomial(rng, 6)
            pts = [(x, p.evaluate(x)) for x in range(7)]
            assert interpolate(pts) == p
