"""Shift-operator algebra: adjoints, certificates and degree classification.

An operator L = sum_i a_i(n) S^i acts on sequences by
L(F)(n) = sum_i a_i(n) F(n+i).  Its adjoint L*(x)(n) = sum_i a_i(n-i) x(n-i)
produces summable multiples: whenever L annihilates F, the product
L*(x)(n) F(n) telescopes with an explicit certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import (
    InternalInconsistency,
    OrderZero,
    ZeroInput,
    ZeroOperator,
)
from .polynomials import (
    NEG_INF,
    Polynomial,
    falling_factorial,
    integer_roots,
    integer_rows,
)


class ShiftOperator:
    """Recurrence operator with polynomial coefficients a_0 .. a_J, a_J != 0.

    The adjoint coefficients, the images L*(n^s) and the degree profile are
    computed on first use and kept; a race only computes them twice.
    """

    __slots__ = ("_coeffs", "_adjoint", "_images", "_profile")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Polynomial) else Polynomial.constant(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            raise ZeroOperator("shift operator needs a nonzero coefficient")
        self._coeffs = tuple(cs)
        self._adjoint = self._images = self._profile = None

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> Polynomial:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Polynomial()

    def __eq__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroOperator("cannot scale an operator to zero")
        return ShiftOperator(tuple(c * scalar for c in self._coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def apply(self, values, n: int) -> Fraction:
        """L(F)(n) given F as a callable from index to Fraction."""
        return sum(
            (a.evaluate(n) * values(n + i) for i, a in enumerate(self._coeffs)),
            Fraction(0),
        )

    @property
    def adjoint_coeffs(self) -> tuple:
        """The adjoint's coefficients a_i(n-i), i = 0 .. J."""
        if self._adjoint is None:
            self._adjoint = tuple(a.shift(-i) for i, a in enumerate(self._coeffs))
        return self._adjoint

    def adjoint_apply(self, x: Polynomial) -> Polynomial:
        """L*(x)(n) = sum_i a_i(n-i) x(n-i)."""
        if not isinstance(x, Polynomial):
            x = Polynomial.constant(x)
        return sum((a * x.shift(-i) for i, a in enumerate(self.adjoint_coeffs) if a),
                   Polynomial())

    def adjoint_image(self, s: int) -> Polynomial:
        """L*(n^s)."""
        if self._images is None:
            self._images = {}
        image = self._images.get(s)
        if image is None:
            image = self._images[s] = self.adjoint_apply(Polynomial.monomial(s))
        return image

    @property
    def profile(self) -> "DegreeProfile":
        """The operator's DegreeProfile (see ``degree_profile``)."""
        if self._profile is None:
            self._profile = _profile(self)
        return self._profile

    def certificate(self, x: Polynomial) -> list:
        """Certificate polynomials u_0 .. u_{J-1} for the adjoint product.

        u_i(n) = sum_{j=1}^{J-i} a_{i+j}(n-j) x(n-j), so that
        L*(x)(n) F(n) = Delta(-sum_i u_i(n) F(n+i)) whenever L(F) = 0.
        Computed as u_{J-1} = (a_J x)(n-1), u_i = (a_{i+1} x + u_{i+1})(n-1).
        """
        if self.order == 0:
            raise OrderZero("certificates need an operator of order >= 1")
        if not isinstance(x, Polynomial):
            x = Polynomial.constant(x)
        us = [Polynomial()]
        for a in reversed(self._coeffs[1:]):
            us.append((a * x + us[-1]).shift(-1))
        return us[:0:-1]

    def primitive(self) -> "ShiftOperator":
        """Scale to coprime integer coefficients, positive leading content."""
        _, rows = integer_rows(self._coeffs)
        g = gcd(*(v for row in rows for v in row))
        if rows[-1][-1] < 0:
            g = -g
        return ShiftOperator(Polynomial([v // g for v in row]) for row in rows)

    def text(self) -> str:
        parts = []
        for i, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c.text()})")
            elif i == 1:
                parts.append(f"({c.text()})*S")
            else:
                parts.append(f"({c.text()})*S^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ShiftOperator({self.text()!r})"

    def __str__(self):
        return self.text()


@dataclass(frozen=True)
class DegreeProfile:
    """Full degree/degeneracy classification of a shift operator."""

    deg_l: int
    d_l: int
    b_polys: tuple
    f_poly: Polynomial
    r_l: frozenset
    c_l: int
    degenerated: bool
    strongly_nondegenerated: bool


def degree_profile(op: ShiftOperator) -> DegreeProfile:
    """Compute deg L, d_L, the recombined b_k, f(s), R_L and C_L.

    b_k(n) = sum_{i=0}^{J-k} C(J-i, k) a_i(n-i); deg L is the maximum
    of deg b_k - k, and f(s) collects the coefficients of n^(deg L + k)
    against falling factorials s(s-1)...(s-k+1).  The nonnegative integer
    roots R_L of f mark the monomial degrees the adjoint cannot produce at
    full degree; C_L is the least s with L*(n^s) != 0.  Kept on the operator.
    """
    return op.profile


def _profile(op: ShiftOperator) -> DegreeProfile:
    J = op.order
    adjoint = op.adjoint_coeffs
    b_polys = tuple(
        sum((comb(J - i, k) * adjoint[i] for i in range(J - k + 1)), Polynomial())
        for k in range(J + 1)
    )
    deg_l = max(b.degree - k for k, b in enumerate(b_polys))
    if deg_l == NEG_INF:
        raise InternalInconsistency("all b_k vanish for a nonzero operator")
    deg_l = int(deg_l)
    d_l = int(max(c.degree for c in op.coeffs))

    f = sum((b.coefficient(deg_l + k) * falling_factorial(k)
             for k, b in enumerate(b_polys)), Polynomial())
    if f.is_zero():
        raise InternalInconsistency("f(s) vanished identically")
    r_l = frozenset(s for s in integer_roots(f) if s >= 0)

    c_l = next((s for s in range(J + 1) if not op.adjoint_image(s).is_zero()), None)
    if c_l is None:
        raise InternalInconsistency("no s <= J with L*(n^s) != 0")

    return DegreeProfile(
        deg_l=deg_l,
        d_l=d_l,
        b_polys=b_polys,
        f_poly=f,
        r_l=r_l,
        c_l=c_l,
        degenerated=bool(r_l),
        strongly_nondegenerated=(deg_l == d_l),
    )


def degree_law_check(op: ShiftOperator, x: Polynomial) -> str:
    """Compare deg L*(x) against deg L + deg x; returns "<" or "=".

    The drop "<" happens exactly when L is degenerated and deg x lies in
    R_L; any other outcome indicates a bug and raises.
    """
    if not isinstance(x, Polynomial) or x.is_zero():
        raise ZeroInput("degree law requires a nonzero polynomial")
    prof = degree_profile(op)
    actual = op.adjoint_apply(x).degree
    predicted = prof.deg_l + x.degree
    if prof.degenerated and x.degree in prof.r_l:
        if not actual < predicted:
            raise InternalInconsistency(
                f"expected degree drop, got deg {actual} = {predicted}"
            )
        return "<"
    if actual != predicted:
        raise InternalInconsistency(
            f"expected deg {predicted}, got {actual}"
        )
    return "="


def gcd_condition(a0: Polynomial, a_j: Polynomial, offset: int = 0) -> bool:
    """True iff gcd(a0(n), a_j(n+h)) = 1 for every integer h >= offset.

    Decided exactly: the colliding shifts are the integer roots of
    R(h) = prod (h - (beta - alpha)) over the roots alpha of a0 and beta of
    a_j, built from power sums (Bostan, Flajolet, Salvy and Schost, "Fast
    computation of special resultants", JSC 2006).
    """
    if not isinstance(a0, Polynomial) or not isinstance(a_j, Polynomial):
        raise TypeError("gcd_condition expects polynomials")
    if a0.is_zero() or a_j.is_zero():
        raise ZeroInput("gcd condition requires nonzero polynomials")
    _, (row0, row_j) = integer_rows([a0, a_j])
    # On the roots times L = lcm of the leads, every sum below is an integer.
    scale, top = lcm(row0[-1], row_j[-1]), (len(row0) - 1) * (len(row_j) - 1)
    if not top:
        return True
    alpha, beta = (_power_sums(row, scale, top + 1) for row in (row0, row_j))
    # sigma[t]: the sum over all pairs of (L (beta - alpha))^t
    sigma = [sum(comb(t, u) * beta[u] * (-1) ** (t - u) * alpha[t - u]
                 for u in range(t + 1)) for t in range(top + 1)]
    e = [1]  # e[t]: coefficient of h^(mk - t) in prod (h - L (beta - alpha))
    for t in range(1, top + 1):
        e.append(-sum(e[i] * sigma[t - i] for i in range(t)) // t)
    res_in_h = Polynomial([e[top - j] * scale**j for j in range(top + 1)])  # L^mk R(h)
    return not any(r >= offset for r in integer_roots(res_in_h))


def _power_sums(row: list, scale: int, count: int) -> list:
    """Power sums P_0 .. P_{count-1} of ``scale`` times the roots of the
    integer row, whose lead divides ``scale``, by Newton's identities on
    e[i], the coefficient of n^(d - i) in the monic polynomial of those."""
    d = len(row) - 1
    e = [row[d - i] * scale**i // row[-1] for i in range(d + 1)] + [0] * count
    sums = [d]
    for t in range(1, count):
        sums.append(-t * e[t] - sum(e[i] * sums[t - i] for i in range(1, t)))
    return sums


@dataclass(frozen=True)
class SummableBounds:
    """Degree window for polynomials p with p(n)F(n) summable."""

    upper: int
    witness: Polynomial
    lower_valid: bool
    lower: int | None


def summable_degree_bounds(op: ShiftOperator) -> SummableBounds:
    """Upper bound deg L + C_L with witness L*(n^{C_L}); lower bound when valid.

    The lower bound deg L + C_L applies when gcd(a_0(n), a_J(n+h)) = 1 for
    all h >= 0 (so summable multiples are exactly the adjoint image) and
    the degenerate degrees cannot leak low-degree images: either R_L is
    empty, or every s in R_L has L*(n^s) = 0 identically.
    """
    if op.order == 0:
        raise OrderZero("summability bounds need an operator of order >= 1")
    prof = degree_profile(op)
    a0 = op.coefficient(0)
    lower_valid = (not a0.is_zero() and gcd_condition(a0, op.coeffs[-1], 0)
                   and all(op.adjoint_image(s).is_zero() for s in prof.r_l))
    upper = prof.deg_l + prof.c_l
    return SummableBounds(
        upper=upper,
        witness=op.adjoint_image(prof.c_l),
        lower_valid=lower_valid,
        lower=upper if lower_valid else None,
    )
