"""Exception hierarchy shared across the package."""


class HoloreduceError(Exception):
    """Base class for every error raised by this package."""


# -- polynomial arithmetic ------------------------------------------------

class DivisionNotExact(HoloreduceError):
    """Exact polynomial division was requested but a remainder was left."""


class BothZero(HoloreduceError):
    """gcd(0, 0) is undefined."""


class ZeroPolynomial(HoloreduceError):
    """Operation requires a nonzero polynomial."""


# -- operator algebra -----------------------------------------------------

class ZeroOperator(HoloreduceError):
    """A shift operator must have at least one nonzero coefficient."""


class OrderZero(HoloreduceError):
    """Operation requires an operator of order at least 1."""


class ZeroInput(HoloreduceError):
    """A nonzero polynomial argument was required."""


class InternalInconsistency(HoloreduceError):
    """A structural guarantee of the algebra failed; indicates a bug."""


# -- reductions -----------------------------------------------------------

class FactorNotDivisor(HoloreduceError):
    """The chosen factor does not divide the operator coefficient."""


class OrderTooSmall(HoloreduceError):
    """The shift-product order I must be at least the operator order."""


class IrreducibleAtThisI(HoloreduceError):
    """Rational reduction left a remainder not below deg L1 at the I asked."""


# -- sequences ------------------------------------------------------------

class SingularLeadingCoefficient(HoloreduceError):
    """The recurrence leading coefficient vanishes and no override exists."""


class IndexBelowStart(HoloreduceError):
    """Sequence evaluation below the start index."""


class InsufficientTerms(HoloreduceError):
    """Too few terms supplied for annihilator guessing."""


# -- verification ---------------------------------------------------------

class DomainViolation(HoloreduceError):
    """Requested window leaves the sequence domain."""


class MismatchedSequence(HoloreduceError):
    """Fixtures refer to different sequences."""


class PrecisionLoss(HoloreduceError):
    """Cancellation exceeded the floating-point precision budget."""


class PrimeFilterViolation(HoloreduceError):
    """A prime does not satisfy the fixture's residue condition."""


class NonInvertibleDenominator(HoloreduceError):
    """A denominator is not invertible modulo the prime power."""


# -- parsing --------------------------------------------------------------

class ParseError(HoloreduceError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = frozenset(expected)


class NegativeShiftPower(HoloreduceError):
    """The shift symbol S only carries nonnegative exponents."""
