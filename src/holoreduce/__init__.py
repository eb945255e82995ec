"""Exact shift-operator toolkit for holonomic sequences.

Polynomial and rational reductions with telescoping certificates, a
catalog of exactly evaluated sequences, series and congruence
verification, and a text grammar for all the objects involved.
"""

from importlib.resources import files as _files

from .errors import HoloreduceError
from .polynomials import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    falling_factorial,
    integer_roots,
    poly_gcd,
)
from .operators import (
    DegreeProfile,
    ShiftOperator,
    SummableBounds,
    degree_law_check,
    degree_profile,
    gcd_condition,
    summable_degree_bounds,
)
from .reduction import (
    DenominatorReport,
    RationalReductionResult,
    ReductionResult,
    ShiftProductSpec,
    build_L1_lower,
    build_L1_upper,
    denominator_admissibility,
    polynomial_reduce,
    rational_reduce,
    sp_expand,
)
from .sequences import (
    CatalogEntry,
    HolonomicSequence,
    catalog,
    domb_number,
    franel_number,
    get_sequence,
    guess_annihilator,
    harmonic_number,
    load_terms,
)
from .exprio import (
    SCHEMA,
    parse_operator,
    parse_polynomial,
    parse_rational_function,
    print_value,
    to_latex,
    to_structured,
    to_text,
)
from .verify import (
    CongruenceFixture,
    IdentityFixture,
    ReductionRecipe,
    check_telescoping,
    load_fixture,
    numeric_series_check,
    rederive,
    verify_congruence,
    verify_identity_exact,
)

__version__ = "0.1.0"


def fixtures_dir():
    """Directory containing the shipped fixture files."""
    return _files("holoreduce") / "fixtures"
