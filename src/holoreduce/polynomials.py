"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial is a row of integer numerators by ascending power over one
positive common denominator, so integer polynomials add, multiply and
shift on ints alone; ``coeffs`` builds ``Fraction`` values on demand.
Every object is immutable and every operation is a pure function, so
values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm, prod

from .errors import BothZero, DivisionNotExact, ZeroPolynomial

# Degree of the zero polynomial.  A dedicated sentinel (not -1) so that
# degree laws like deg(a*b) = deg a + deg b stay exact.
NEG_INF = float("-inf")


def _exact(value):
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return value


def _poly(num: tuple, den: int = 1) -> "Polynomial":
    """The polynomial with the canonical row ``num`` over ``den``."""
    p = object.__new__(Polynomial)
    p._num, p._den = num, den
    return p


def _reduced(num: list, den: int = 1) -> "Polynomial":
    """num / den in canonical form; trims the int list num in place; den != 0."""
    while num and not num[-1]:
        num.pop()
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return _poly(tuple(num), den)


def _signed_sum(terms) -> "Polynomial":
    """The sum of sign * p over the (sign, p) pairs ``terms``, sign +-1:
    one lcm of the denominators, one pass over the scaled rows and one
    reduction."""
    if len(terms) == 1:
        sign, p = terms[0]
        return p if sign > 0 else -p
    den = lcm(*(p._den for _, p in terms))
    out = [0] * max(len(p._num) for _, p in terms)
    for sign, p in terms:
        f = sign * (den // p._den)
        for i, c in enumerate(p._num):
            out[i] += f * c
    return _reduced(out, den)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]``, the coefficient of ``n**i``, is ``_num[i] / _den``: the
    last int of ``_num`` is nonzero (the empty tuple is the zero
    polynomial), ``_den`` > 0 and gcd(_den, *_num) = 1, so equal
    polynomials have equal rows.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = list(map(_exact, coeffs))
        while cs and not cs[-1]:
            cs.pop()
        self._den, num = integer_values(cs)  # no factor common to all is left
        self._num = tuple(num)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls.monomial(0, c)

    @classmethod
    def variable(cls) -> "Polynomial":
        return _poly((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Polynomial":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = _exact(c)
        return _poly((0,) * k + (c.numerator,), c.denominator) if c else _poly(())

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self._num) - 1 if self._num else NEG_INF

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._num[k], self._den) if 0 <= k < len(self._num) else Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._num:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _poly((other.numerator,), other.denominator) if other else _poly(())
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # Constant polynomials hash like their Fraction value so that
        # p == 3 implies hash(p) == hash(3).
        if len(self._num) < 2:
            return hash(Fraction(self._num[0], self._den)) if self._num else 0
        return hash((self._num, self._den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._num, other._num, self._den
        if den != other._den:
            g = gcd(den, other._den)
            a, b = [c * (other._den // g) for c in a], [c * (den // g) for c in b]
            den = den // g * other._den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """The product; a factor that is the constant 1 returns the other."""
        if isinstance(other, (int, Fraction)):
            c, d = other.numerator, other.denominator
            return self if c == d else _reduced([c * x for x in self._num], d * self._den)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._num, other._num
        if a == (1,) and self._den == 1 or not b:
            return other
        if b == (1,) and other._den == 1 or not a:
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other)) if self._num else self
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        num = self._num
        if num.count(0) == len(num) - 1:  # a monomial c*n^d: (c^k)*n^(dk)
            return _poly((0,) * ((len(num) - 1) * k) + (num[-1] ** k,), self._den ** k)
        result = self
        for bit in bin(k)[3:]:  # left to right: no product with 1, no spare square
            result = result * result
            if bit == "1":
                result = result * self
        return result if k else _poly((1,))

    def __divmod__(self, other):
        """Euclidean division; ``other`` must be nonzero.  Pseudo-division on
        the rows, scaling them by the divisor's lead only where it does not
        divide, and one rescale at the end."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        b = other._num
        dq = len(self._num) - len(b)
        if dq < 0:
            return _poly(()), self
        rem, quo, lead, scale = list(self._num), [0] * (dq + 1), b[-1], 1
        for k in range(dq, -1, -1):
            c = rem[k + len(b) - 1]
            if c % lead:
                rem, quo = [x * lead for x in rem], [x * lead for x in quo]
                scale, c = scale * lead, c * lead
            quo[k] = c = c // lead
            for i, y in enumerate(b):
                rem[k + i] -= c * y
        den = self._den * scale
        return _reduced([x * other._den for x in quo], den), _reduced(rem, den)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Divide by ``other``, raising :class:`DivisionNotExact` on remainder."""
        quo, rem = divmod(self, other)
        if rem:
            raise DivisionNotExact(f"{self} is not divisible by {other}")
        return quo

    # -- structural operations ----------------------------------------------

    def shift(self, k) -> "Polynomial":
        """Return p(n + k) for an int or Fraction k."""
        if not _exact(k) or not self._num:
            return self
        if isinstance(k, int):  # unimodular on integer rows: the content stays
            return _poly(tuple(_taylor_shift(self._num, k)), self._den)
        return Polynomial(_taylor_shift(self._num, k)) / self._den

    def evaluate(self, x) -> Fraction:
        return Fraction(_horner(self._num, _exact(x)), self._den)

    def monic(self) -> "Polynomial":
        if not self._num:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return _reduced(list(self._num), self._num[-1])

    def rational_content(self):
        """Split into ``(c, primitive)`` with ``self == c * primitive``.

        ``primitive`` has coprime integer coefficients and a positive
        leading coefficient; the zero polynomial yields ``(0, 0)``.
        """
        if not self._num:
            return Fraction(0), _poly(())
        g = gcd(*self._num)
        if self._num[-1] < 0:
            g = -g
        return Fraction(g, self._den), _poly(tuple(c // g for c in self._num))

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

    def __str__(self):
        return self.text()

    def text(self) -> str:
        """Canonical text form, re-parseable by the expression grammar."""
        if not self._num:
            return "0"
        parts, den = [], self._den
        for k in range(len(self._num) - 1, -1, -1):
            c = self._num[k]
            if not c:
                continue
            g = gcd(c, den)
            body = f"{abs(c) // g}" if g == den else f"{abs(c) // g}/{den // g}"
            if k:
                var = "n" if k == 1 else f"n^{k}"
                body = var if abs(c) == den else f"{body}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def integer_rows(polys) -> tuple:
    """Clear denominators: ``(d, rows)`` where ``d`` is the least common
    denominator of all coefficients and ``rows[i]`` lists the integer
    coefficients of ``d * polys[i]`` by ascending power."""
    den = lcm(*(p._den for p in polys))
    return den, [[c * (den // p._den) for c in p._num] for p in polys]


def integer_values(values) -> tuple:
    """Clear denominators: ``(d, nums)`` where ``d`` is the least common
    denominator of the ints and Fractions ``values`` (1 for none) and
    ``nums[i]`` is the integer ``d * values[i]``."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _horner(row, x):
    """Value at ``x`` of the coefficients ``row`` (ascending powers)."""
    acc = 0
    for c in reversed(row):
        acc = acc * x + c
    return acc


def _taylor_shift(row, k):
    """Coefficients of p(x + k) for the integer coefficients ``row`` of p
    (ascending powers), by the classic in-place Horner scheme in O(d^2)
    additions (von zur Gathen and Gerhard, "Fast algorithms for Taylor
    shifts and certain difference equations", ISSAC 1997)."""
    c = list(row)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += k * c[j + 1]
    return c


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two polynomials over Q.

    Euclid over a primitive remainder sequence: each remainder is replaced
    by its primitive part, which keeps the coefficients from blowing up.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    while b:
        a, b = b, divmod(a, b)[1].rational_content()[1]
    return a.monic()


@lru_cache(maxsize=None)
def falling_factorial(k: int) -> Polynomial:
    """The falling factorial s(s-1)...(s-k+1) as a polynomial; k = 0 gives 1.
    Each order is built once and kept."""
    if k < 0:
        raise ValueError("falling factorial order must be nonnegative")
    return prod((_poly((-i, 1)) for i in range(k)), start=_poly((1,)))


def _root_bound(ints) -> int:
    """Integer bound B with every real root of the poly inside [-B, B].

    Fujiwara-style bound computed from bit lengths only, so it stays sane
    for polynomials with huge coefficients.
    """
    d = len(ints) - 1
    lead = abs(ints[-1])
    bound = 1
    for k in range(1, d + 1):
        a = abs(ints[d - k])
        if a == 0:
            continue
        # |a/lead|^(1/k) < 2^ceil((bits(a) - bits(lead) + 1) / k)
        delta = a.bit_length() - lead.bit_length() + 1
        if delta > 0:
            bound = max(bound, 1 << -(-delta // k))
    return 2 * bound


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def integer_roots(p: Polynomial) -> set:
    """Exact set of integer roots of a nonzero polynomial: the roots of its
    squarefree part modulo the least prime q at which all are simple, lifted
    by Newton's step modulo q^2, q^4, ... past twice the root bound and
    confirmed exactly (Loos, "Computing rational zeros of integral
    polynomials by p-adic expansion", SIAM J. Comput. 1983)."""
    if not p:
        raise ZeroPolynomial("integer_roots of the zero polynomial")
    slope = _poly(tuple(i * c for i, c in enumerate(p._num))[1:])
    row = p.exact_div(poly_gcd(p, slope)).rational_content()[1]._num
    slope = [i * c for i, c in enumerate(row)][1:]
    for q in count(2):
        if row[-1] % q and is_prime(q):
            low = [c % q for c in row]
            residues = [r for r in range(q) if not _horner(low, r) % q]
            if all(_horner(slope, r) % q for r in residues):
                break
    bound, roots = 2 * _root_bound(row), set()
    for r in residues:
        m = q
        while m <= bound:
            m *= m
            r = (r - _horner(row, r) * pow(_horner(slope, r), -1, m)) % m
        r = r - m if 2 * r > m else r
        if not _horner(row, r):
            roots.add(r)
    return roots


class RationalFunction:
    """Reduced quotient of two polynomials with a monic denominator."""

    __slots__ = ("_numer", "_denom")

    def __init__(self, numer, denom=None):
        if not isinstance(numer, Polynomial):
            numer = Polynomial.constant(numer)
        if not isinstance(denom, Polynomial):
            denom = Polynomial.constant(1 if denom is None else denom)
        if not denom:
            raise ZeroDivisionError("rational function with zero denominator")
        if not numer:
            denom = _poly((1,))
        else:
            g = poly_gcd(numer, denom)
            if g.degree > 0:
                numer, denom = numer.exact_div(g), denom.exact_div(g)
            numer, denom = numer / denom.leading_coefficient, denom.monic()
        self._numer = numer
        self._denom = denom

    @property
    def numer(self) -> Polynomial:
        return self._numer

    @property
    def denom(self) -> Polynomial:
        return self._denom

    def is_polynomial(self) -> bool:
        return self._denom.degree == 0

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise DivisionNotExact(f"{self} is not a polynomial")
        return self._numer

    def is_zero(self) -> bool:
        return self._numer.is_zero()

    def __bool__(self):
        return bool(self._numer)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._numer == other._numer and self._denom == other._denom

    def __hash__(self):
        if self.is_polynomial():
            return hash(self._numer)
        return hash((self._numer, self._denom))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self._numer * other._denom + other._numer * self._denom,
            self._denom * other._denom,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self._numer, self._denom)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self._numer * other._numer, self._denom * other._denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._numer:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self._numer * other._denom, self._denom * other._numer)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def evaluate(self, x) -> Fraction:
        d = self._denom.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self._numer.evaluate(x) / d

    def text(self) -> str:
        if self.is_polynomial():
            return self._numer.text()
        return f"({self._numer.text()})/({self._denom.text()})"

    def __repr__(self):
        return f"RationalFunction({self.text()!r})"

    def __str__(self):
        return self.text()
