"""Exact holonomic sequences: recurrence evaluation, a catalog of the
sequences used throughout the package, and ansatz-based annihilator
guessing from term lists.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import index as _index

from .errors import (
    IndexBelowStart,
    InsufficientTerms,
    SingularLeadingCoefficient,
)
from .exprio import numbered_lines, parse_number
from .operators import ShiftOperator
from .polynomials import Polynomial, _exact, _horner, integer_rows, integer_values

_n = Polynomial.variable()


class HolonomicSequence:
    """A sequence determined by a recurrence operator and initial values.

    Every reader sees the same sequence: an override wins at its index,
    and where the leading coefficient vanishes the value comes from
    ``oracle``.  Exact values are cached contiguously from
    ``start_index`` for all callers, under a lock, so concurrent eval is
    linearizable; :meth:`_extend` fills the cache on ``Fraction`` values,
    and the cache is all that is kept.  Every walk and every sum runs on
    the stepper :meth:`_steps`, which keeps the values a step reads and a
    running sum as numerators over one denominator: :meth:`eval` past the
    cache (and past the index just after it) walks it on integers from
    the cache's end, :meth:`partial_sum` sums numer(n)/denom(n) * F(n)
    exactly on it from ``start_index``, and a numeric check without a
    tail certificate runs the same sum from an ``mpf`` state; none keeps
    anything of the walk.  :meth:`series_terms` gives the exact summands
    one by one.  Sequences may also be oracle-only (``operator=None``):
    their eval past the cache asks the oracle at that index alone.
    Initial values, overrides and oracle values are ints or Fractions and
    the start index is an int (TypeError otherwise).
    """

    def __init__(self, operator, start_index, initial_values, name="",
                 oracle=None, overrides=None):
        if operator is None and oracle is None:
            raise ValueError("sequence needs an operator or an oracle")
        self.operator = operator
        self.start_index = _index(start_index)
        self.name = name
        self.oracle = oracle
        self.overrides = {k: Fraction(_exact(v)) for k, v in (overrides or {}).items()}
        self._initial = tuple(Fraction(_exact(v)) for v in initial_values)
        if operator is not None and len(self._initial) < operator.order:
            raise ValueError(
                f"need {operator.order} initial values, got {len(self._initial)}"
            )
        # Scaling L by a constant keeps its recurrence, so step with integers.
        self._rows = None if operator is None else integer_rows(operator.coeffs)[1]
        self._cache = list(self._initial)
        self._lock = threading.Lock()

    def eval(self, n: int) -> Fraction:
        """F(n).  The cache, and the index just after it, are read through
        :meth:`values`; a later index is reached by :meth:`_walk`, or is
        given at n alone (:meth:`_given`) on a sequence without an operator."""
        with self._lock:
            if n > self.start_index + len(self._cache):
                if self._rows is not None:
                    return self._walk(n)
                return self._given(n)
        return self.values(n, n)[0]

    def _given(self, t: int) -> Fraction:
        """F(t) as given rather than stepped: the override at t wins, else
        the oracle's value.  Asked only where there is no recurrence step,
        so without an oracle the leading coefficient has vanished."""
        if t in self.overrides:
            return self.overrides[t]
        if self.oracle is None:
            m = t - len(self._rows) + 1  # recurrence base point
            raise SingularLeadingCoefficient(
                f"a_J({m}) = 0 and no override value for index {t}"
            )
        return Fraction(_exact(self.oracle(t)))

    def _walk(self, n: int) -> Fraction:
        """F(n) past the cache on integers, by :meth:`_steps` from the
        cache's last J values (none at J = 0); the one gcd is taken at n,
        by ``Fraction(w[-1], E)``."""
        cache = self._cache
        E, w = integer_values(cache[len(cache) - len(self._rows) + 1:])
        for _, w, E, _, _ in self._steps(self.start_index + len(cache) - 1, w, E, n):
            pass
        return Fraction(w[-1], E)

    def _steps(self, t: int, w: list, E: int, upto: int, summand=None):
        """The integer stepper: from F(t-J+1..t) = w / E, the J values the
        next recurrence step reads (0 stands in before the start), yield
        ``(t, w, E, sigma, tau)`` after each index t up to ``upto``, where
        F(t-J+1..t) = w / E (F(t) alone at J = 0), sigma / E is the
        running sum and tau / E the term at t.  A recurrence step at base
        point m = t - J reads all of w for -sum a_i(m) w_i, drops w_0,
        multiplies the other J - 1 numerators, sigma and E by a_J(m) and
        appends the new numerator; a given value p/q (an initial value, an
        override, or the oracle where a_J vanishes) appends p*E and
        multiplies them by q instead.  With ``summand = (lo, numer_row,
        denom_row)``, an index t >= lo checks denom(t) before F(t), then
        sets sigma <- sigma*denom(t) + numer(t)*w_t and multiplies w and E
        by denom(t).  Every product is a big integer times a small one, and
        no gcd is taken; from an ``mpf`` E every product and sum rounds
        once."""
        rows, initial, overrides = self._rows, self._initial, self.overrides
        start = self.start_index
        first = start + len(initial)  # the first index stepped
        J = len(w)
        lo, num_row, den_row = summand or (upto + 1, (), ())
        sigma = tau = 0
        d = 1
        for t in range(t + 1, upto + 1):
            if t >= lo:
                d = _horner(den_row, t)
                if not d:
                    raise ZeroDivisionError(f"denominator vanishes at n = {t}")
            lead = 0
            if rows is not None and t >= first and t not in overrides:
                *cs, lead = [_horner(row, t - J) for row in rows]
            if lead:
                new = -sum(c * x for c, x in zip(cs, w) if c)
            else:
                v = initial[t - start] if t < first else self._given(t)
                new, lead = v.numerator * E, v.denominator
            w = w[1:]
            g = lead * d  # the factor of E at t
            if g != 1:
                w = [x * g for x in w]
                sigma *= g
                E *= g
            if t >= lo:
                tau = _horner(num_row, t) * new
                sigma += tau
                if d != 1:
                    new *= d
            w.append(new)
            yield t, w, E, sigma, tau

    def _summed(self, numer: Polynomial, denom: Polynomial, a: int, b: int,
                one=1):
        """The states of :meth:`_steps` to b from F(start-J..start-1) = J
        zeros over ``one`` (1, or an ``mpf`` 1 for a rounded walk),
        summing numer(n)/denom(n) * F(n) from n = a on, with the errors of
        :meth:`series_terms` in its order: a vanishing denom(a) before an
        index below the start, and one before a failing F(a..b)."""
        if b < a:
            return
        # numer/denom is unchanged when both are scaled by one integer
        _, (num_row, den_row) = integer_rows([numer, denom])
        if not _horner(den_row, a):
            raise ZeroDivisionError(f"denominator vanishes at n = {a}")
        if a < self.start_index:
            raise IndexBelowStart(f"{a} is below start index {self.start_index}")
        J = 0 if self._rows is None else len(self._rows) - 1
        yield from self._steps(self.start_index - 1, [0] * J, one, b,
                               (a, num_row, den_row))

    def partial_sum(self, numer: Polynomial, denom: Polynomial, a: int,
                    b: int) -> Fraction:
        """sum_{n=a..b} numer(n)/denom(n) * F(n) exactly, equal to the sum
        of :meth:`series_terms`, error for error, but summed on integers
        by :meth:`_steps` from the start index, with one gcd at b."""
        sigma, E = 0, 1
        for _, _, E, sigma, _ in self._summed(numer, denom, a, b):
            pass
        return Fraction(sigma, E)

    def values(self, a: int, b: int) -> list:
        """Exact values F(a), ..., F(b) inclusive, a slice of the cache."""
        start = self.start_index
        if b < a:
            return []
        if a < start:
            raise IndexBelowStart(f"{a} is below start index {start}")
        with self._lock:
            self._extend(b)
            return self._cache[a - start:b - start + 1]

    def series_terms(self, numer: Polynomial, denom: Polynomial, a: int, b: int):
        """Iterate over the exact terms numer(n)/denom(n) * F(n), n = a..b,
        from the shared cache in one read.  The denominators are checked
        before F is read; the terms before the first index where denom
        vanishes are yielded, then its error is raised."""
        # numer/denom is unchanged when both are scaled by one integer
        _, (num_row, den_row) = integer_rows([numer, denom])
        dens = [_horner(den_row, n) for n in range(a, b + 1)]
        stop = a + (dens.index(0) if 0 in dens else len(dens))
        for n, d, f in zip(range(a, stop), dens, self.values(a, stop - 1)):
            yield Fraction(_horner(num_row, n), d) * f
        if stop <= b:
            raise ZeroDivisionError(f"denominator vanishes at n = {stop}")

    def _extend(self, upto: int) -> None:
        """Extend the cache, which holds F(start_index), F(start_index+1),
        ..., so that it reaches F(upto), on ``Fraction`` values."""
        values, start, rows = self._cache, self.start_index, self._rows
        while len(values) < upto - start + 1:
            t = start + len(values)  # index being produced
            if rows is not None and t not in self.overrides:
                m = t - len(rows) + 1  # recurrence base point
                cs = [_horner(row, m) for row in rows]
                lead = cs.pop()
                if lead != 0:
                    # a Fraction: an int 0 would make -acc / lead a float
                    acc = Fraction(0)
                    for i, c in enumerate(cs):
                        if c:
                            acc += c * values[m + i - start]
                    values.append(-acc / lead)
                    continue
            values.append(self._given(t))


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    sequence: HolonomicSequence
    provenance: str


def domb_number(n: int) -> int:
    """sum_k C(n,k)^2 C(2k,k) C(2(n-k),n-k)."""
    return sum(
        comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
        for k in range(n + 1)
    )


def franel_number(n: int) -> int:
    """sum_k C(n,k)^3."""
    return sum(comb(n, k) ** 3 for k in range(n + 1))


def harmonic_number(n: int, m: int = 1) -> Fraction:
    """H_n^(m) = sum_{k=1..n} 1/k^m."""
    return sum((Fraction(1, k**m) for k in range(1, n + 1)), Fraction(0))


def central_trinomial_t(n: int, b: int, c: int) -> int:
    """Coefficient of x^n in (x^2 + b x + c)^n."""
    return sum(
        comb(n, 2 * i) * comb(2 * i, i) * b ** (n - 2 * i) * c**i
        for i in range(n // 2 + 1)
    )


# Recurrence operators for the catalog.  The Domb forms are related by
# geometric substitutions: scaling F by r^n multiplies a_i by r^i.
DOMB_16N_OPERATOR = ShiftOperator([
    2 * (1 + _n) ** 3,
    -(3 + 2 * _n) * (12 + 15 * _n + 5 * _n**2),
    8 * (2 + _n) ** 3,
])

DOMB_NEG32N_OPERATOR = ShiftOperator([
    (_n + 1) ** 3,
    (2 * _n + 3) * (5 * _n**2 + 15 * _n + 12),
    16 * (_n + 2) ** 3,
])

DOMB_OPERATOR = ShiftOperator([
    64 * (1 + _n) ** 3,
    -2 * (3 + 2 * _n) * (12 + 15 * _n + 5 * _n**2),
    (2 + _n) ** 3,
])

FRANEL_OPERATOR = ShiftOperator([
    8 * (_n + 1) ** 2,
    7 * _n**2 + 21 * _n + 16,
    -((_n + 2) ** 2),
])

FRANEL_SIGNED_OPERATOR = ShiftOperator([
    8 * _n * (_n**2 - 1),
    -_n * (7 * _n**2 + 21 * _n + 16),
    -((_n + 2) ** 3),
])

HARMONIC_RATIO_OPERATOR = ShiftOperator([
    _n * (_n + 1) ** 2,
    -(_n + 1) * (_n + 2) * (2 * _n + 3),
    (_n + 2) ** 2 * (_n + 3),
])

CENTRAL_BINOMIAL_OPERATOR = ShiftOperator([
    (2 * _n - 1) ** 4,
    -16 * (_n + 1) ** 4,
])


def _harmonic_operator(m: int) -> ShiftOperator:
    return ShiftOperator([
        (_n + 1) ** m,
        -((_n + 1) ** m) - (_n + 2) ** m,
        (_n + 2) ** m,
    ])


def _build_catalog() -> dict:
    entries = {}

    def add(key, seq, provenance):
        entries[key] = CatalogEntry(key=key, sequence=seq, provenance=provenance)

    add(
        "domb",
        HolonomicSequence(DOMB_OPERATOR, 0, [1, 4], name="domb",
                          oracle=domb_number),
        "Domb numbers; order-2 recurrence matching the binomial double sum",
    )
    add(
        "franel",
        HolonomicSequence(FRANEL_OPERATOR, 0, [1, 2], name="franel",
                          oracle=franel_number),
        "Franel numbers sum_k C(n,k)^3 with their classical recurrence",
    )
    add(
        "domb_over_16n",
        HolonomicSequence(DOMB_16N_OPERATOR, 0, [1, Fraction(1, 4)],
                          name="domb_over_16n",
                          oracle=lambda n: Fraction(domb_number(n), 16**n)),
        "Domb(n)/16^n; Domb recurrence conjugated by 16^-n",
    )
    add(
        "domb_over_neg32n",
        HolonomicSequence(DOMB_NEG32N_OPERATOR, 0, [1, Fraction(-1, 8)],
                          name="domb_over_neg32n",
                          oracle=lambda n: Fraction(domb_number(n), (-32) ** n)),
        "Domb(n)/(-32)^n; Domb recurrence conjugated by (-32)^-n",
    )
    add(
        "franel_example22",
        HolonomicSequence(
            FRANEL_SIGNED_OPERATOR, 2, [5, Fraction(-28, 3)],
            name="franel_example22",
            oracle=lambda n: Fraction((-1) ** n * franel_number(n), n * (n - 1)),
        ),
        "(-1)^n franel(n)/(n(n-1)) from n = 2 with its order-2 annihilator",
    )
    add(
        "harmonic_example23",
        HolonomicSequence(
            HARMONIC_RATIO_OPERATOR, 1, [Fraction(1, 2), Fraction(1, 4)],
            name="harmonic_example23",
            oracle=lambda n: harmonic_number(n) / (n * (n + 1)),
        ),
        "H_n/(n(n+1)) from n = 1 with its order-2 annihilator",
    )
    add(
        "central_binomial_example27",
        HolonomicSequence(
            CENTRAL_BINOMIAL_OPERATOR, 0, [1],
            name="central_binomial_example27",
            oracle=lambda n: Fraction(comb(2 * n, n) ** 4,
                                      (2 * n - 1) ** 4 * 256**n),
        ),
        "C(2n,n)^4/((2n-1)^4 256^n), a first-order hypergeometric ratio",
    )
    for m in (1, 2, 3):
        add(
            f"harmonic_m{m}",
            HolonomicSequence(
                _harmonic_operator(m), 0, [0, 1], name=f"harmonic_m{m}",
                oracle=lambda n, m=m: harmonic_number(n, m),
            ),
            f"harmonic numbers of order {m} via the telescoped recurrence",
        )
    add(
        "t_poly",
        HolonomicSequence(
            None, 0, [], name="t_poly",
            oracle=lambda n: central_trinomial_t(n, 62, 1),
        ),
        "coefficient of x^n in (x^2 + 62x + 1)^n, direct expansion only",
    )
    return entries


_CATALOG = None
_CATALOG_LOCK = threading.Lock()


def _catalog_map() -> dict:
    global _CATALOG
    with _CATALOG_LOCK:
        if _CATALOG is None:
            _CATALOG = _build_catalog()
        return _CATALOG


def catalog() -> list:
    """All catalog entries, in a stable order."""
    return [_catalog_map()[k] for k in sorted(_catalog_map())]


def get_sequence(key: str) -> HolonomicSequence:
    try:
        return _catalog_map()[key].sequence
    except KeyError:
        raise KeyError(f"unknown sequence {key!r}; known: {sorted(_catalog_map())}")


def _nullspace_vectors(rows, width):
    """Basis of the exact nullspace over Q of the given integer row matrix,
    by fraction-free Gauss-Jordan elimination: a pivot p in column c clears
    row i as p*row_i - row_i[c]*pivot_row, and every changed row is divided
    by its content.  Rows stay proportional to the reduced row echelon
    form, so the basis is the one over Q, read off as -row[fc]/row[pc]."""
    mat = list(rows)  # rows are replaced, never changed in place
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def guess_annihilator(terms, start_index: int, max_order: int, max_deg: int):
    """Guess a recurrence operator annihilating the supplied terms, which
    are ints or Fractions (TypeError otherwise).

    Solves the exact linear system sum_{i,d} c_{i,d} n^d F(n+i) = 0 for
    ascending (order, degree) pairs, holding out the last 10 usable
    positions; the first candidate that also annihilates the held-out
    terms is returned in primitive integer form.  Returns None when no
    candidate fits; the search needs max_order >= 1 and max_deg >= 0.
    """
    if max_order < 1 or max_deg < 0:
        raise ValueError(f"empty search: need max_order >= 1 and max_deg >= 0,"
                         f" got {max_order} and {max_deg}")
    need = (max_order + 1) * (max_deg + 2) + max_order + 10
    if len(terms) < need:
        raise InsufficientTerms(f"need at least {need} terms, got {len(terms)}")
    terms = list(map(_exact, terms))

    def annihilates(op: ShiftOperator) -> bool:
        return all(op.apply(lambda k: terms[k - start_index], m) == 0
                   for m in range(start_index, start_index + len(terms) - op.order))

    for order in range(1, max_order + 1):
        usable = len(terms) - order
        train = usable - 10
        # F(j..j+order) times the lcm of their denominators, over its content
        scaled = []
        for j in range(train):
            _, v = integer_values(terms[j: j + order + 1])
            g = gcd(*v)
            scaled.append([x // g for x in v] if g > 1 else v)
        for deg in range(0, max_deg + 1):
            width = (order + 1) * (deg + 1)
            if train < width:
                continue
            rows = [[x * m**d for x in v for d in range(deg + 1)]
                    for m, v in enumerate(scaled, start_index)]
            for vec in _nullspace_vectors(rows, width):
                coeffs = []
                for i in range(order + 1):
                    block = vec[i * (deg + 1): (i + 1) * (deg + 1)]
                    coeffs.append(Polynomial(block))
                if all(c.is_zero() for c in coeffs):
                    continue
                candidate = ShiftOperator(coeffs).primitive()
                if annihilates(candidate):
                    return candidate
    return None


def load_terms(path) -> list:
    """Read a term list: one rational per line, '#' starts a comment."""
    values = []
    for lineno, line in numbered_lines(path):
        try:
            values.append(parse_number(line, "rational"))
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"{path}:{lineno}: bad term {line!r}") from err
    return values
