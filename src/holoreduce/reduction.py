"""Polynomial reduction modulo the adjoint image, and the two rational
reductions built on shift-product denominators.

``polynomial_reduce`` splits p = L*(x) + remainder, pushing as much of p
as possible into the summable part.  ``rational_reduce`` first multiplies
p by a shift product of a factor of a_0 (lower side) or a_J (upper side),
reduces against the derived operator L1, and packages the result as

    p(n) F(n) = remainder(n) / SP(n) * F(n) + Delta(T(n)),

with T given by the telescoping certificate against G(n) = F(n)/SP(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import (
    FactorNotDivisor,
    InternalInconsistency,
    IrreducibleAtThisI,
    OrderTooSmall,
    OrderZero,
    ZeroInput,
)
from .operators import ShiftOperator, degree_profile, gcd_condition
from .polynomials import Polynomial


@dataclass(frozen=True)
class ReductionResult:
    """Decomposition p = L*(multiplier) + remainder with its certificate."""

    remainder: Polynomial
    multiplier: Polynomial
    certificate: tuple
    operator_used: ShiftOperator

    def check(self, p: Polynomial) -> bool:
        return self.operator_used.adjoint_apply(self.multiplier) + self.remainder == p


@dataclass(frozen=True)
class ShiftProductSpec:
    """Product of ``order`` consecutive shifts of ``base``: the product of
    base(n + t) over t in ``shifts``, which runs from base_shift + direction
    in steps of direction (+1 or -1).  Order 0 expands to the constant 1.
    """

    base: Polynomial
    direction: int
    order: int
    base_shift: int = 0

    @property
    def shifts(self) -> range:
        if self.order < 0:
            raise ValueError("shift product order must be nonnegative")
        if self.direction not in (1, -1):
            raise ValueError("shift product direction must be +1 or -1")
        step = self.direction
        return range(self.base_shift + step, self.base_shift + step * (self.order + 1), step)


def sp_expand(spec: ShiftProductSpec) -> Polynomial:
    return prod(map(spec.base.shift, spec.shifts), start=Polynomial.constant(1))


@dataclass(frozen=True)
class RationalReductionResult:
    """Outcome of a rational reduction: remainder over a shift product,
    with ``denominator`` the expansion of ``denom_spec``."""

    remainder_numer: Polynomial
    denom_spec: ShiftProductSpec
    derived_operator: ShiftOperator
    reduction: ReductionResult
    side: str
    denominator: Polynomial


def polynomial_reduce(p: Polynomial, op: ShiftOperator) -> ReductionResult:
    """Greedy top-degree reduction of p modulo the adjoint image of op.

    While the leading degree D of the running remainder has
    s = D - deg L outside R_L (and s >= 0), subtract the right multiple
    of L*(n^s); monomials with s in R_L are parked in the remainder.
    The result is deterministic and idempotent.
    """
    if op.order == 0:
        raise OrderZero("polynomial reduction needs an operator of order >= 1")
    prof = degree_profile(op)
    work = p if isinstance(p, Polynomial) else Polynomial.constant(p)
    kept = Polynomial()
    multiplier = Polynomial()
    while not work.is_zero():
        d = int(work.degree)
        s = d - prof.deg_l
        if s < 0:
            break
        lead = work.leading_coefficient
        if s in prof.r_l:
            # Unreducible monomial degree: park it and continue below.
            kept = kept + Polynomial.monomial(d, lead)
            work = work - Polynomial.monomial(d, lead)
            continue
        image = op.adjoint_image(s)
        if image.degree != d:
            raise InternalInconsistency(
                f"L*(n^{s}) has degree {image.degree}, expected {d}"
            )
        c = lead / image.leading_coefficient
        work = work - c * image
        multiplier = multiplier + Polynomial.monomial(s, c)
    remainder = kept + work
    cert = tuple(op.certificate(multiplier))
    return ReductionResult(
        remainder=remainder,
        multiplier=multiplier,
        certificate=cert,
        operator_used=op,
    )


def _side_spec(op: ShiftOperator, factor: Polynomial, side: str, i_order: int) -> ShiftProductSpec:
    """The shift product of a rational reduction: A(n-1)...A(n-I) on the
    lower side, A(n-J+1)...A(n-J+I) on the upper side."""
    if side == "lower":
        return ShiftProductSpec(base=factor, direction=-1, order=i_order)
    return ShiftProductSpec(base=factor, direction=1, order=i_order, base_shift=-op.order)


def _build_L1(op: ShiftOperator, spec: ShiftProductSpec) -> ShiftOperator:
    """Annihilator L1 of G(n) = F(n) / SP(n) given L(F) = 0, where SP is
    the shift product of the factor A = spec.base.

    With SP(n) = prod_{t in R} A(n+t), sum_i a_i(n) SP(n+i) S^i annihilates
    G.  Its home coefficient (i = 0 when SP runs backward, i = J when it
    runs forward) is the one without A(n), and A divides a_home.  The
    other coefficients share A(n+t) for t in a set C that contains 0, so
    L1 keeps a_i(n) prod_{t in (R+i) - C} A(n+t), with a_home/A for a_home.
    """
    j_ord = op.order
    if j_ord == 0:
        raise OrderZero("rational reduction needs an operator of order >= 1")
    if spec.order < j_ord:
        raise OrderTooSmall(f"need I >= {j_ord}, got {spec.order}")
    factor = spec.base
    if spec.direction < 0:
        home, name = 0, "a_0"
        zero_input = "lower reduction requires a nonzero constant coefficient"
    else:
        home, name = j_ord, "a_J"
        zero_input = "upper reduction requires a nonzero factor"
    a_home = op.coefficient(home)
    if a_home.is_zero() or factor.is_zero():
        raise ZeroInput(zero_input)
    quo, rem = divmod(a_home, factor)
    if rem:
        raise FactorNotDivisor(f"{factor} does not divide {name} = {a_home}")
    held = [{t + i for t in spec.shifts} for i in range(j_ord + 1)]
    common = set.intersection(*(h for i, h in enumerate(held) if i != home))
    return ShiftOperator(
        prod(map(factor.shift, h - common), start=quo if i == home else op.coefficient(i))
        for i, h in enumerate(held)
    )


def build_L1_lower(op: ShiftOperator, a0_factor: Polynomial, i_order: int) -> ShiftOperator:
    """Annihilator of G(n) = F(n) / prod_{j=1..I} A0(n-j) given L(F) = 0."""
    return _build_L1(op, _side_spec(op, a0_factor, "lower", i_order))


def build_L1_upper(op: ShiftOperator, aj_factor: Polynomial, i_order: int) -> ShiftOperator:
    """Annihilator of G(n) = F(n) / prod_{j=1..I} A_J(n-J+j) given L(F) = 0."""
    return _build_L1(op, _side_spec(op, aj_factor, "upper", i_order))


def rational_reduce(
    p: Polynomial,
    op: ShiftOperator,
    factor: Polynomial,
    side: str,
    i_order: int,
) -> RationalReductionResult:
    """Reduce p(n)F(n) to remainder(n)/SP(n) * F(n) plus a telescoped part.

    ``side`` selects the factor's home: "lower" divides a_0 and the
    denominator runs backward; "upper" divides a_J and it runs forward.
    If the derived operator is degenerated and the remainder keeps
    monomials at or above its degree, IrreducibleAtThisI is raised.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    spec = _side_spec(op, factor, side, i_order)
    derived = _build_L1(op, spec)
    sp = sp_expand(spec)
    red = polynomial_reduce(p * sp, derived)
    prof = derived.profile
    if prof.degenerated and red.remainder.degree >= prof.deg_l:
        raise IrreducibleAtThisI(
            f"remainder degree {red.remainder.degree} not below deg L1 = "
            f"{prof.deg_l} at I = {i_order}"
        )
    base_prof = degree_profile(op)
    if base_prof.strongly_nondegenerated:
        bound = base_prof.deg_l + (op.order - 1) * int(factor.degree)
        if not red.remainder.degree < bound:
            raise InternalInconsistency(
                f"remainder degree {red.remainder.degree} breaks the bound {bound}"
            )
    return RationalReductionResult(
        remainder_numer=red.remainder,
        denom_spec=spec,
        derived_operator=derived,
        reduction=red,
        side=side,
        denominator=sp,
    )


@dataclass(frozen=True)
class DenominatorReport:
    """Which of the four coprimality conditions hold for a denominator b.

    When all four hold, any summable a(n)/b(n) * F(n) forces b | a, so b
    cannot serve as a productive denominator.  The conditions are
    sufficient only; nothing is claimed when some fail.
    """

    a0_vs_aj: bool
    b_vs_b: bool
    a0_vs_b: bool
    b_vs_aj: bool

    @property
    def all_hold(self) -> bool:
        return self.a0_vs_aj and self.b_vs_b and self.a0_vs_b and self.b_vs_aj


def denominator_admissibility(op: ShiftOperator, b: Polynomial) -> DenominatorReport:
    """Check gcd(a_0(n), a_J(n+h)), gcd(b(n), b(n+J+h)),
    gcd(a_0(n), b(n+J+h)) and gcd(b(n), a_J(n+h)) for all h >= 0."""
    j_ord = op.order
    if j_ord == 0:
        raise OrderZero("admissibility needs an operator of order >= 1")
    a0 = op.coefficient(0)
    aj = op.coeffs[-1]
    if a0.is_zero():
        raise ZeroInput("admissibility requires a_0 != 0")
    if not isinstance(b, Polynomial) or b.is_zero():
        raise ZeroInput("denominator b must be a nonzero polynomial")
    return DenominatorReport(
        a0_vs_aj=gcd_condition(a0, aj, 0),
        b_vs_b=(b.degree == 0) or gcd_condition(b, b, j_ord),
        a0_vs_b=gcd_condition(a0, b, j_ord),
        b_vs_aj=gcd_condition(b, aj, 0),
    )
