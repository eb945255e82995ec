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
from fractions import Fraction

from .errors import (
    FactorNotDivisor,
    InternalInconsistency,
    IrreducibleAtThisI,
    OrderTooSmall,
    OrderZero,
    ZeroInput,
)
from .operators import DegreeProfile, ShiftOperator, degree_profile, gcd_condition
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
    """Product of ``order`` consecutive shifts of ``base``.

    direction +1: prod_{j=1..order} base(n + base_shift + j)
    direction -1: prod_{j=1..order} base(n + base_shift - j)
    order 0 expands to the constant 1.
    """

    base: Polynomial
    direction: int
    order: int
    base_shift: int = 0


def sp_expand(spec: ShiftProductSpec) -> Polynomial:
    if spec.order < 0:
        raise ValueError("shift product order must be nonnegative")
    if spec.direction not in (1, -1):
        raise ValueError("shift product direction must be +1 or -1")
    out = Polynomial((Fraction(1),))
    for j in range(1, spec.order + 1):
        out = out * spec.base.shift(spec.base_shift + spec.direction * j)
    return out


@dataclass(frozen=True)
class RationalReductionResult:
    """Outcome of a rational reduction: remainder over a shift product."""

    remainder_numer: Polynomial
    denom_spec: ShiftProductSpec
    derived_operator: ShiftOperator
    reduction: ReductionResult
    side: str

    @property
    def denominator(self) -> Polynomial:
        return sp_expand(self.denom_spec)


def polynomial_reduce(p: Polynomial, op: ShiftOperator) -> ReductionResult:
    """Greedy top-degree reduction of p modulo the adjoint image of op.

    While the leading degree D of the running remainder has
    s = D - deg L outside R_L (and s >= 0), subtract the right multiple
    of L*(n^s); monomials with s in R_L are parked in the remainder.
    The result is deterministic and idempotent.
    """
    if op.order == 0:
        raise OrderZero("polynomial reduction needs an operator of order >= 1")
    return _polynomial_reduce(p, op, degree_profile(op))


def _polynomial_reduce(p, op: ShiftOperator, prof: DegreeProfile) -> ReductionResult:
    """polynomial_reduce against an operator of order >= 1 whose profile
    the caller has already computed."""
    work = p if isinstance(p, Polynomial) else Polynomial((Fraction(p),))
    kept = Polynomial()
    multiplier = Polynomial()
    adjoint_cache = {}
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
        image = adjoint_cache.get(s)
        if image is None:
            image = op.adjoint_apply(Polynomial.monomial(s))
            adjoint_cache[s] = image
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


def build_L1_lower(op: ShiftOperator, a0_factor: Polynomial, i_order: int) -> ShiftOperator:
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


def build_L1_upper(op: ShiftOperator, aj_factor: Polynomial, i_order: int) -> ShiftOperator:
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


def rational_reduce(
    p: Polynomial,
    op: ShiftOperator,
    factor: Polynomial,
    side: str,
    i_order: int,
    auto_grow: bool = False,
) -> RationalReductionResult:
    """Reduce p(n)F(n) to remainder(n)/SP(n) * F(n) plus a telescoped part.

    ``side`` selects the factor's home: "lower" divides a_0 and the
    denominator runs backward; "upper" divides a_J and it runs forward.
    If the derived operator is degenerated and the remainder keeps
    monomials at or above its degree, IrreducibleAtThisI is raised;
    auto_grow retries i_order+1 .. i_order+8 before giving up.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    attempts = range(i_order, i_order + 9) if auto_grow else (i_order,)
    last_err = None
    for i_try in attempts:
        try:
            result = _rational_reduce_once(p, op, factor, side, i_try)
            break
        except IrreducibleAtThisI as err:
            last_err = err
    else:
        raise last_err
    base_prof = degree_profile(op)
    if base_prof.strongly_nondegenerated:
        bound = base_prof.deg_l + (op.order - 1) * int(factor.degree)
        if not result.remainder_numer.degree < bound:
            raise InternalInconsistency(
                f"remainder degree {result.remainder_numer.degree} breaks the bound {bound}"
            )
    return result


def _rational_reduce_once(p, op, factor, side, i_order):
    j_ord = op.order
    if side == "lower":
        derived = build_L1_lower(op, factor, i_order)
        spec = ShiftProductSpec(base=factor, direction=-1, order=i_order, base_shift=0)
    else:
        derived = build_L1_upper(op, factor, i_order)
        spec = ShiftProductSpec(base=factor, direction=1, order=i_order, base_shift=-j_ord)
    q = p * sp_expand(spec)
    prof = degree_profile(derived)
    red = _polynomial_reduce(q, derived, prof)
    if prof.degenerated and red.remainder.degree >= prof.deg_l:
        raise IrreducibleAtThisI(
            f"remainder degree {red.remainder.degree} not below deg L1 = "
            f"{prof.deg_l} at I = {i_order}"
        )
    return RationalReductionResult(
        remainder_numer=red.remainder,
        denom_spec=spec,
        derived_operator=derived,
        reduction=red,
        side=side,
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
