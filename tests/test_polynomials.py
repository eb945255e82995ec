import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoreduce import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    falling_factorial,
    integer_roots,
    poly_gcd,
)
from holoreduce.errors import BothZero, DivisionNotExact, ZeroPolynomial
from holoreduce.polynomials import _horner, _root_bound, _taylor_shift, integer_rows

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

    def test_shift_by_fraction(self):
        assert N.shift(Fraction(1, 2)) == N + Fraction(1, 2)

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
        # a root bound above 10^7, where a divisor scan used to stop
        assert integer_roots(N + 5_000_000) == {-5_000_000}

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

    @given(planted=st.dictionaries(st.integers(-2**80, 2**80), st.integers(1, 3),
                                   max_size=4),
           scalar=st.fractions().filter(bool),
           c=st.one_of(st.integers(1, 10**6), st.fractions(min_value=0).filter(bool)),
           e=st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_planted_roots(self, planted, scalar, c, e):
        # n^2 + c with c > 0 has no real root, so only the planted ones remain
        p = scalar * (N**2 + c) ** e
        for r, k in planted.items():
            p = p * (N - r) ** k
        assert integer_roots(p) == set(planted)


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


# -- the Fraction kernel as an oracle ------------------------------------------
#
# The dense Fraction Polynomial that the integer-row kernel replaced, kept
# verbatim (renamed) with the module functions that read its coefficients.


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class _ReferencePolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of ``n**i``; the highest stored
    coefficient is nonzero (the empty tuple is the zero polynomial).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "_ReferencePolynomial":
        return cls((_as_fraction(c),))

    @classmethod
    def variable(cls) -> "_ReferencePolynomial":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, k: int, c=1) -> "_ReferencePolynomial":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((Fraction(0),) * k + (_as_fraction(c),))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, _ReferencePolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _ReferencePolynomial((_as_fraction(other),))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # Constant polynomials hash like their Fraction value so that
        # p == 3 implies hash(p) == hash(3).
        if not self._coeffs:
            return hash(Fraction(0))
        if len(self._coeffs) == 1:
            return hash(self._coeffs[0])
        return hash(self._coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _ReferencePolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return _ReferencePolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return _ReferencePolynomial()
            return _ReferencePolynomial(tuple(c * x for x in self._coeffs))
        if not isinstance(other, _ReferencePolynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return _ReferencePolynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return _ReferencePolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _ReferencePolynomial(tuple(x / c for x in self._coeffs))
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ReferencePolynomial((Fraction(1),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        """Euclidean division; ``other`` must be nonzero."""
        if not isinstance(other, _ReferencePolynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        dq = len(rem) - len(other._coeffs)
        if dq < 0:
            return _ReferencePolynomial(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other._coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other._coeffs) - 1] / lead
            quo[k] = c
            if c != 0:
                for i, b in enumerate(other._coeffs):
                    rem[k + i] -= c * b
        return _ReferencePolynomial(quo), _ReferencePolynomial(rem)

    def exact_div(self, other: "_ReferencePolynomial") -> "_ReferencePolynomial":
        """Divide by ``other``, raising :class:`DivisionNotExact` on remainder."""
        quo, rem = divmod(self, other)
        if rem:
            raise DivisionNotExact(f"{self} is not divisible by {other}")
        return quo

    # -- structural operations ----------------------------------------------

    def shift(self, k: int) -> "_ReferencePolynomial":
        """Return p(n + k)."""
        if k == 0 or not self._coeffs:
            return self
        # Horner in (n + k): fold coefficients from the top.
        out = _ReferencePolynomial()
        step = _ReferencePolynomial((Fraction(k), Fraction(1)))
        for c in reversed(self._coeffs):
            out = out * step + c
        return out

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "_ReferencePolynomial":
        if not self._coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self / self._coeffs[-1]

    def rational_content(self):
        """Split into ``(c, primitive)`` with ``self == c * primitive``.

        ``primitive`` has coprime integer coefficients and a positive
        leading coefficient; the zero polynomial yields ``(0, 0)``.
        """
        if not self._coeffs:
            return Fraction(0), _ReferencePolynomial()
        den, (nums,) = _reference_integer_rows([self])
        g = gcd(*nums)
        if nums[-1] < 0:
            g = -g
        content = Fraction(g, den)
        return content, _ReferencePolynomial([v // g for v in nums])

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

    def __str__(self):
        return self.text()

    def text(self) -> str:
        """Canonical text form, re-parseable by the expression grammar."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = _fraction_text(mag)
            else:
                var = "n" if k == 1 else f"n^{k}"
                body = var if mag == 1 else f"{_fraction_text(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _fraction_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _reference_integer_rows(polys) -> tuple:
    """Clear denominators: ``(d, rows)`` where ``d`` is the least common
    denominator of all coefficients and ``rows[i]`` lists the integer
    coefficients of ``d * polys[i]`` by ascending power."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return den, [[c.numerator * (den // c.denominator) for c in p.coeffs]
                 for p in polys]


def _reference_poly_gcd(a: _ReferencePolynomial, b: _ReferencePolynomial) -> _ReferencePolynomial:
    """Monic greatest common divisor of two polynomials over Q.

    Euclid over a primitive remainder sequence: each remainder is replaced
    by its primitive part, which keeps the coefficients from blowing up.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    while b:
        a, b = b, divmod(a, b)[1].rational_content()[1]
    return a.monic()


def _reference_integer_roots(p: _ReferencePolynomial) -> set:
    """Exact set of integer roots of a nonzero polynomial.

    Candidates are divisors of the integer-cleared constant term (after
    stripping n^k factors), each confirmed by exact evaluation.
    """
    if not p:
        raise ZeroPolynomial("integer_roots of the zero polynomial")
    roots = set()
    _, (ints,) = _reference_integer_rows([p])
    # Strip n^k: zero is a root iff the constant term vanishes.
    k = 0
    while ints[k] == 0:
        k += 1
    if k > 0:
        roots.add(0)
        ints = ints[k:]
    if len(ints) == 1:
        return roots
    const = abs(ints[0])
    bound = _root_bound(ints)
    if bound > 10**7:
        raise ValueError("integer root bound too large for divisor scan")
    for d in range(1, bound + 1):
        if const % d:
            continue
        for r in (d, -d):
            if r not in roots and _horner(ints, r) == 0:
                roots.add(r)
    return roots


_coeffs = st.one_of(st.integers(-40, 40),
                    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
_rows = st.lists(_coeffs, max_size=7)
# non-constant divisors whose leading coefficient is not 1
_divisors = st.lists(_coeffs, min_size=2, max_size=4).filter(
    lambda row: row[-1] not in (0, 1))
_scalars = st.one_of(st.integers(-9, 9), st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12))).filter(bool)
_points = st.one_of(st.integers(-20, 20),
                    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)))

# name -> f(ns, a, b, d, c, k, x, e) over polynomials a, b, divisor d,
# nonzero scalar c, shift k, point x, exponent e; ns holds the module
# functions of the kernel under test
_OPS = {
    "a + b": lambda ns, a, b, d, c, k, x, e: a + b,
    "a - b": lambda ns, a, b, d, c, k, x, e: a - b,
    "a * b": lambda ns, a, b, d, c, k, x, e: a * b,
    "-a": lambda ns, a, b, d, c, k, x, e: -a,
    "a + c": lambda ns, a, b, d, c, k, x, e: a + c,
    "c - a": lambda ns, a, b, d, c, k, x, e: c - a,
    "a * c": lambda ns, a, b, d, c, k, x, e: a * c,
    "c * a": lambda ns, a, b, d, c, k, x, e: c * a,
    "a * int(c)": lambda ns, a, b, d, c, k, x, e: a * int(c),
    "a / c": lambda ns, a, b, d, c, k, x, e: a / c,
    "a ** e": lambda ns, a, b, d, c, k, x, e: a ** e,
    "a ** (2e + 3)": lambda ns, a, b, d, c, k, x, e: a ** (2 * e + 3),
    "monomial ** e": lambda ns, a, b, d, c, k, x, e: type(a).monomial(k, c) ** e,
    "divmod(a, d)": lambda ns, a, b, d, c, k, x, e: divmod(a, d),
    "divmod(a, b)": lambda ns, a, b, d, c, k, x, e: divmod(a, b),
    "divmod(a * d + b, d)": lambda ns, a, b, d, c, k, x, e: divmod(a * d + b, d),
    "exact_div(a * d)": lambda ns, a, b, d, c, k, x, e: (a * d).exact_div(d),
    "exact_div(a + 1)": lambda ns, a, b, d, c, k, x, e: (a + 1).exact_div(d),
    "shift(k)": lambda ns, a, b, d, c, k, x, e: a.shift(k),
    "shift(-k)": lambda ns, a, b, d, c, k, x, e: a.shift(-k),
    "shift(c)": lambda ns, a, b, d, c, k, x, e: a.shift(c),
    "evaluate(x)": lambda ns, a, b, d, c, k, x, e: a.evaluate(x),
    "evaluate(k)": lambda ns, a, b, d, c, k, x, e: a.evaluate(k),
    "monic": lambda ns, a, b, d, c, k, x, e: a.monic(),
    "rational_content": lambda ns, a, b, d, c, k, x, e: a.rational_content(),
    "poly_gcd": lambda ns, a, b, d, c, k, x, e: ns["poly_gcd"](a, b),
    "poly_gcd with d": lambda ns, a, b, d, c, k, x, e: ns["poly_gcd"](a * d, b * d),
    "integer_roots": lambda ns, a, b, d, c, k, x, e: ns["integer_roots"](a),
    "integer_roots of a product": lambda ns, a, b, d, c, k, x, e:
        ns["integer_roots"](a * d),
    "integer_rows": lambda ns, a, b, d, c, k, x, e: ns["integer_rows"]([a, b, d]),
    "text": lambda ns, a, b, d, c, k, x, e: (a.text(), str(a * d), repr(b)),
    "leading": lambda ns, a, b, d, c, k, x, e: (a.degree, a.coefficient(2),
                                                a.leading_coefficient),
}
_NEW = {"poly_gcd": poly_gcd, "integer_roots": integer_roots,
        "integer_rows": integer_rows}
_REFERENCE = {"poly_gcd": _reference_poly_gcd,
              "integer_roots": _reference_integer_roots,
              "integer_rows": _reference_integer_rows}


def _plain(value):
    """Polynomials of either kernel as their Fraction coefficients."""
    if isinstance(value, (Polynomial, _ReferencePolynomial)):
        return ("polynomial", tuple(value.coeffs))
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    return value


def _outcome(op, ns, *args):
    try:
        return _plain(op(ns, *args))
    except Exception as err:  # the class and the message must agree
        return type(err), str(err)


class TestShortcuts:
    @given(k=st.integers(0, 9), c=_scalars, e=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_monomial_power_is_repeated_product(self, k, c, e):
        # c*n^k raised directly against e multiplications, in canonical form
        m = Polynomial.monomial(k, c)
        product = Polynomial.constant(1)
        for _ in range(e):
            product = product * m
        power = m ** e
        assert power == product
        assert (power.degree, power.coeffs) == (k * e, product.coeffs)

    @given(a=small_polys, c=_scalars)
    def test_factor_one_returns_the_other(self, a, c):
        one = Polynomial.constant(1)
        for product in (a * one, one * a, a * 1, 1 * a, a * Fraction(1)):
            assert product is a or a == 1 == product  # 1 * 1 may return either
        assert one * c == c and isinstance(one * c, Polynomial)
        assert a * Polynomial() == 0 and Polynomial() * a == 0


class TestReferenceKernel:
    @given(a=_rows, b=_rows, d=_divisors, c=_scalars, k=st.integers(0, 9),
           x=_points, e=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_kernel(self, a, b, d, c, k, x, e):
        new = [Polynomial(row) for row in (a, b, d)]
        ref = [_ReferencePolynomial(row) for row in (a, b, d)]
        for name, op in _OPS.items():
            assert _outcome(op, _NEW, *new, c, k, x, e) == \
                _outcome(op, _REFERENCE, *ref, c, k, x, e), name

    @given(a=_rows, b=_rows, d=_divisors, k=st.integers(-9, 9))
    @settings(max_examples=150, deadline=None)
    def test_equal_values_hash_equal(self, a, b, d, k):
        p, q, r = (Polynomial(row) for row in (a, b, d))
        pairs = [((p + q) * r, p * r + q * r),
                 (p.shift(k).shift(-k), p),
                 (p.shift(Fraction(k, 2)).shift(Fraction(-k, 2)), p),
                 (Polynomial(p.coeffs), p),
                 ((p * r).exact_div(r), p),
                 (divmod(p * r + q, r)[0] * r + divmod(p * r + q, r)[1], p * r + q),
                 (p - p, Polynomial()),
                 (p * Fraction(3, 7) / Fraction(3, 7), p)]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)

    def test_constants_hash_like_fractions(self):
        assert hash(Polynomial.constant(Fraction(3, 7))) == hash(Fraction(3, 7))
        assert Polynomial.constant(Fraction(3, 7)) == Fraction(3, 7)
        assert hash(Polynomial([Fraction(-4, 2)])) == hash(-2)
        assert hash(Polynomial()) == hash(Fraction(0))

    @pytest.mark.parametrize("bad", [[0.1], [1, 2.0], ["3"], [1, None]])
    def test_only_ints_and_fractions(self, bad):
        with pytest.raises(TypeError):
            Polynomial(bad)
        with pytest.raises(TypeError):
            Polynomial.constant(bad[-1])
        with pytest.raises(TypeError):
            Polynomial.variable().shift(bad[-1])

    def test_integer_rows_read_stored_rows(self):
        p = Polynomial([Fraction(1, 6), Fraction(-2, 3), 5])
        assert integer_rows([p]) == (6, [[1, -4, 30]])
        assert p.rational_content() == (Fraction(1, 6), Polynomial([1, -4, 30]))
