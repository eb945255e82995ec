"""Turn reductions into checked mathematics.

Three verification channels:

* exact telescoping over windows of indices, compared as integers;
* high-precision floating-point partial sums against pi-linear targets;
* exact residue sums modulo p^2 for the congruence fixtures.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, prod

from .errors import (
    DomainViolation,
    MismatchedSequence,
    NonInvertibleDenominator,
    PrecisionLoss,
    PrimeFilterViolation,
)
from .exprio import numbered_lines, parse_number, parse_polynomial
from .operators import ShiftOperator
from .polynomials import (
    Polynomial,
    _horner,
    _taylor_shift,
    integer_roots,
    integer_rows,
    is_prime,
    integer_values,
)
from .reduction import RationalReductionResult, rational_reduce
from .sequences import get_sequence

PRECISION_ENV = "HOLOREDUCE_PRECISION_BITS"
DEFAULT_PRECISION_BITS = 96
# indices after the first valid one that an exact check compares
DEFAULT_WINDOW = 120


def precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV, "")
    try:
        bits = parse_number(raw)
    except ValueError:
        return DEFAULT_PRECISION_BITS
    return max(bits, 64)


@dataclass(frozen=True)
class ReductionRecipe:
    """How a fixture was generated: reduce ``source_numer`` against the
    sequence operator with (factor, side, order); the published numerator
    times ``scalar`` equals the reduction remainder."""

    source_numer: Polynomial
    factor: Polynomial
    side: str
    order: int
    scalar: Fraction


@dataclass(frozen=True)
class IdentityFixture:
    """A series sum_{n>=start} numer/denom * F(n) = r0 + r1/pi."""

    sequence_key: str
    numer: Polynomial
    denom: Polynomial
    start_index: int
    target_r0: Fraction
    target_r1: Fraction
    label: str = ""
    recipe: ReductionRecipe | None = None


@dataclass(frozen=True)
class CongruenceFixture:
    """A residue identity sum_{n=start}^{p-1} numer/denom * F(n) = target
    mod p^2, for primes p in the residue class ``prime_residue``."""

    sequence_key: str
    numer: Polynomial
    denom: Polynomial
    start_index: int
    target: Fraction
    prime_residue: tuple = (1, 3)
    modulus_power: int = 2
    label: str = ""
    recipe: ReductionRecipe | None = None


def _parse_target(text: str):
    """Parse 'r0 + r1/pi' (identity) or 'a/b mod p^2' (congruence)."""
    text = text.strip()
    if text.endswith("mod p^2"):
        residue = text[: -len("mod p^2")]
        return ("congruence", parse_number(residue, "rational", " in target"))
    if not text.endswith("/pi"):
        raise ValueError(f"unrecognized target {text!r}")
    body = text[: -len("/pi")].rstrip()
    # split off the trailing rational coefficient of 1/pi
    split = -1
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] in " 0123456789/":
            split = i
            break
    if split == -1:
        return ("identity", Fraction(0), parse_number(body, "rational", " in target"))
    r0 = parse_number(body[:split].strip() or "0", "rational", " in target")
    sign = -1 if body[split] == "-" else 1
    r1 = sign * parse_number(body[split + 1:], "rational", " in target")
    return ("identity", r0, r1)


def load_fixture(path):
    """Read a key = value fixture file; '#' starts a comment."""
    fields = {}
    for lineno, line in numbered_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        fields[key.strip()] = val.strip()

    recipe = None
    if "source_numer" in fields:
        recipe = ReductionRecipe(
            source_numer=parse_polynomial(fields["source_numer"]),
            factor=parse_polynomial(fields["factor"]),
            side=fields["side"],
            order=parse_number(fields["order"], where=" for order"),
            scalar=parse_number(fields["scalar"], "rational", " for scalar"),
        )
    common = dict(
        sequence_key=fields["sequence"],
        numer=parse_polynomial(fields["numer"]),
        denom=parse_polynomial(fields.get("denom", "1")),
        start_index=parse_number(fields.get("start", "0"), where=" for start"),
        label=fields.get("label", ""),
        recipe=recipe,
    )
    target = _parse_target(fields["target"])
    if target[0] == "congruence":
        residue = (1, 3)
        if "primes" in fields:
            lhs, _, mod = fields["primes"].partition("mod")
            residue = tuple(parse_number(v, where=" in primes") for v in (lhs, mod))
        return CongruenceFixture(target=target[1], prime_residue=residue, **common)
    return IdentityFixture(target_r0=target[1], target_r1=target[2], **common)


def _resolve(seq):
    return get_sequence(seq) if isinstance(seq, str) else seq


def check_telescoping(seq, op: ShiftOperator, x: Polynomial, window) -> bool:
    """Exact check of the boundary form of the adjoint product over
    [a, b]:  sum_{n=a}^{b-1} L*(x)(n) F(n) = U(a) - U(b)  with
    U(m) = sum_i u_i(m) F(m+i): one equality of totals, not one per index,
    so errors in F that cancel in the total pass.  F(a..b+J-1) is read once
    as w / D, and both sides are compared as integers, times D and one
    integer that clears the denominators of L*(x) and the u_i."""
    seq = _resolve(seq)
    a, b = window
    if b < a or a < seq.start_index:
        raise DomainViolation(f"window [{a}, {b}] outside domain of {seq.name}")
    us = op.certificate(x)
    _, (image, *rows) = integer_rows([op.adjoint_apply(x), *us])
    _, w = integer_values(seq.values(a, b + len(us) - 1))
    ua, ub = (sum(_horner(row, m) * w[m - a + i] for i, row in enumerate(rows))
              for m in (a, b))
    return sum(_horner(image, n) * w[n - a] for n in range(a, b)) == ua - ub


def first_valid_index(fix, rr: RationalReductionResult) -> int:
    """Smallest index >= the fixture's start past every integer root of the
    shift product SP(n) = prod_t A(n+t), t in the shifts of
    ``rr.denom_spec``: those roots are r - t for the integer roots r of
    the factor A, so SP is neither expanded nor searched."""
    spec, start = rr.denom_spec, fix.start_index
    shifts = spec.shifts
    roots = integer_roots(spec.base) if spec.base else ()
    return max((r - t for r in roots for t in shifts if r - t >= start),
               default=start - 1) + 1


def verify_identity_exact(fix, source, rr: RationalReductionResult,
                          window_length: int = DEFAULT_WINDOW) -> bool:
    """Exact windowed check that the source summand minus the reduced
    summand telescopes through the certificate, and that the fixture's
    published numerator matches the reduction remainder up to its
    recorded scalar.  The window must not be negative.  The partial sums
    agree at every index b exactly when every increment does, so each b
    is checked on its own: (numer/denom - R/SP)(b) F(b) = T(b) - T(b+1)
    for T(m) = sum_i u_i(m) F(m+i) / SP(m+i), on integers, with F read
    once as w / D and both sides times D denom(b) prod_{k<=J} SP(b+k)."""
    if window_length < 0:
        raise ValueError(f"window length must be >= 0, got {window_length}")
    if fix.sequence_key != source.sequence_key:
        raise MismatchedSequence(
            f"{fix.sequence_key} vs {source.sequence_key}")
    seq = _resolve(fix.sequence_key)
    sp = rr.denominator

    if fix.recipe is not None and (
            rr.remainder_numer != fix.recipe.scalar * fix.numer or sp != fix.denom):
        return False
    if not rr.reduction.check(source.numer * sp):
        return False

    us = rr.reduction.certificate
    J = len(us)
    a = max(first_valid_index(fix, rr), source.start_index, seq.start_index)
    last = a + window_length
    # one integer clears R, SP and the u_i, another numer and denom
    _, (rem, sp_row, *u_rows) = integer_rows([rr.remainder_numer, sp, *us])
    _, (num, den) = integer_rows([source.numer, source.denom])
    s = [_horner(sp_row, m) for m in range(a, last + J + 1)]
    if 0 in s:  # only for SP = 0: a lies past every root of a nonzero SP
        raise ZeroDivisionError(f"denominator vanishes at n = {a + s.index(0)}")
    _, w = integer_values(seq.values(a, last + J))  # F = w / D

    def t(j):  # T(a+j) times D prod_{k<J} SP(a+j+k)
        return sum(_horner(row, a + j) * w[j + i] * prod(s[j:j + i] + s[j + i + 1:j + J])
                   for i, row in enumerate(u_rows))

    t_next = t(0)
    for j, b in enumerate(range(a, last + 1)):
        d = _horner(den, b)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at n = {b}")
        t_b, t_next = t_next, t(j + 1)
        inc = (_horner(num, b) * s[j] - _horner(rem, b) * d) * w[j] \
            * prod(s[j + 1:j + J + 1])
        if inc != d * (t_b * s[j + J] - t_next * s[j]):
            return False
    return True


def rederive(fix, source) -> RationalReductionResult:
    """Re-run the rational reduction recorded in the fixture's recipe."""
    if fix.recipe is None:
        raise ValueError(f"fixture {fix.label or fix.sequence_key} has no recipe")
    seq = _resolve(fix.sequence_key)
    return rational_reduce(
        fix.recipe.source_numer,
        seq.operator,
        fix.recipe.factor,
        fix.recipe.side,
        fix.recipe.order,
    )


def _to_mpf(q):  # a Fraction or an int
    import mpmath  # only the numeric channel needs it; it slows start-up

    num, den = q.numerator, q.denominator
    return mpmath.mpf(num) / den if den != 1 else mpmath.mpf(num)


# How much |numer/denom| may grow from one index to the next in the tail.
_SIGMA = Fraction(33, 32)


def _positive_part(p: Polynomial) -> Polynomial:
    """p or -p, whichever has a positive leading coefficient."""
    return p if p.leading_coefficient > 0 else -p


def _positive_from(row, m: int) -> bool:
    """Every coefficient of p(m + x) is >= 0 and p(m) > 0, for p with the
    integer coefficients ``row``, so p > 0 on [m, oo).  Shifting by k >= 0
    keeps coefficients nonnegative, so this also holds at every index
    after m."""
    cs = _taylor_shift(row, m)
    return cs[0] > 0 and min(cs) >= 0


def _tail_certificate(seq, numer: Polynomial, denom: Polynomial, lo: int,
                      last: int):
    """The simple contracting case of Mezzarobba and Salvy, "Effective
    bounds for P-recursive sequences" (JSC 2010), for the series
    sum numer(n)/denom(n) * F(n): the least m0 in [lo, last - J] (so that
    a stop before ``last`` stays possible) such that, for every m >= m0,
    the rows a_0..a_J of the operator of F, numer and denom keep their
    signs, sum_{i<J} |a_i(m)| <= rho |a_J(m)| and |h(m+1)| <= SIGMA |h(m)|
    for h = numer/denom.  Here rho = (3L + 1)/4 for the limit L of the
    ratio, and SIGMA^J rho < 1.  Returns (m0, rho), or a string saying
    why there is no certificate."""
    if seq.operator is None:
        return "the sequence has no recurrence"
    if not numer or not denom:
        return "numer or denom is zero"
    *low, lead = (_positive_part(a) if a else a for a in seq.operator.coeffs)
    j = len(low)
    if j == 0:
        return "the recurrence has order 0"
    hi = last - j
    if any(a.degree > lead.degree for a in low if a):
        return "sum |a_i| / |a_J| is unbounded"
    limit = sum((a.leading_coefficient for a in low if a.degree == lead.degree),
                Fraction(0)) / lead.leading_coefficient
    if limit >= 1:
        return f"sum |a_i| / |a_J| tends to {limit} >= 1"
    rho = (3 * limit + 1) / 4
    if _SIGMA**j * rho >= 1:
        return f"rho = {rho} is too close to 1"
    num, den = _positive_part(numer), _positive_part(denom)
    # the two inequalities first: they fail longest, and holds() stops early
    # scaling by a positive integer keeps every sign
    _, checks = integer_rows([num * den.shift(1) * _SIGMA - num.shift(1) * den,
                              lead * rho - sum(low, Polynomial()),
                              lead, num, den, *(a for a in low if a)])

    def holds(m):
        return all(_positive_from(row, m) for row in checks)

    if hi < lo or not holds(hi):
        return f"no m0 in [{lo}, {hi}]"
    bad, good, step = lo - 1, hi, 1  # holds(good), and not holds(bad) or bad < lo
    while bad + step < good:
        if holds(bad + step):
            good = bad + step
            break
        bad, step = bad + step, 2 * step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if holds(mid) else (mid, good)
    late = [k for k in seq.overrides if k >= good]
    if late:
        return f"override at index {min(late)} >= m0 = {good}"
    return good, rho


def _certified_sum(seq, fix: IdentityFixture, last: int, accel: str,
                   bits: int, m0: int, rho: Fraction):
    """``(p, q, K)``: the exact partial sum S_K = p/q of the fixture series
    to the first index K past m0 + J - 1 whose tail is certified below
    2^-(bits+2) |S_K|, or, failing that, to ``last``, where ``average1``
    takes (S_last + S_last-1)/2.

    For n >= m0 + J the recurrence gives |F(n)| <= rho max_{i<J}
    |F(n-J+i)| (certificate of :func:`_tail_certificate`; no override or
    initial value lies there), and |h(n)| <= SIGMA^(J-i) |h(n-J+i)| for
    h = numer/denom, so each term T(n) = h(n) F(n) satisfies
    |T(n)| <= c max_{i<J} |T(n-J+i)| with c = rho SIGMA^J < 1.  With M the
    largest of the J terms up to K >= m0 + J - 1, the J terms after K are
    each at most c M, the J after those at most c^2 M, and so on, so the
    whole tail is at most B_K = J c/(1 - c) M.  The stepper keeps S_K and
    T(K) as integers sigma / E and tau / E, and x < 2^bl(x) <= 2x for an
    integer x > 0 of bit length bl(x), so |T(K)| < 2^(e_K + 1) with
    e_K = bl(tau) - bl(E), and |S_K| >= 2^(bl(sigma) - bl(E) - 1).  With
    J c/(1 - c) <= 2^g, the stop test max e + g + bits + 4 <=
    bl(sigma) - bl(E) over the last J indices implies
    B_K <= 2^-(bits+2) |S_K|: bit lengths only, no rational per index."""
    j = seq.operator.order
    c = rho * _SIGMA**j
    g = (ceil(j * c / (1 - c)) - 1).bit_length()
    first = max(m0 + j - 1, seq.start_index + len(seq._initial) - 1)
    recent = deque(maxlen=j)
    start, prev = fix.start_index, (0, 1)
    for t, _, E, sigma, tau in seq._summed(fix.numer, fix.denom, start, last):
        if t < start:
            continue
        recent.append(tau.bit_length() - E.bit_length())
        if first <= t < last and sigma and max(recent) + g + bits + 4 \
                <= sigma.bit_length() - E.bit_length():
            return sigma, E, t
        if t < last:
            prev = sigma, E
    if accel == "average1":
        s, e = prev
        return sigma * e + s * E, 2 * E * e, t
    return sigma, E, t


def numeric_series_check(fix: IdentityFixture, n_terms: int,
                         accel: str = "average1",
                         precision: int | None = None) -> dict:
    """Partial sum of the first ``n_terms`` terms of the fixture series,
    optionally averaging the last two partial sums, rounded to >= 64-bit
    binary floating point and compared against r0 + r1/pi.

    Where the tail contracts (see :func:`_tail_certificate`), the partial
    sum is exact: the integer stepper of the sequence sums the terms as
    numerators over one denominator and stops at the first index K where
    the certified bound on the whole tail is below 2^-(bits+2) |S_K|
    (see :func:`_certified_sum`), and S_K, or the average at the last
    term, is rounded once, to nearest.  An exact sum cannot cancel, so
    this path raises no PrecisionLoss.  Otherwise (no recurrence, a ratio
    limit of 1 or more, numer = 0, an override past the certified index,
    ...) the stepper sums to the last term from an ``mpf`` state instead,
    rounding at each step, and PrecisionLoss is raised where, by the
    exponents of sigma and E, a partial sum was about 2^(bits-20) times
    |value| + 1.  A debug record on the ``holoreduce.verify`` logger
    gives the terms summed and the certificate or the reason there is
    none."""
    import logging

    import mpmath
    from mpmath import libmp

    if n_terms < 100:
        raise ValueError("need at least 100 terms")
    if accel not in ("none", "average1"):
        raise ValueError(f"unknown acceleration {accel!r}")
    bits = precision if precision is not None else precision_bits()
    seq = _resolve(fix.sequence_key)
    if fix.start_index < seq.start_index:
        raise DomainViolation(
            f"fixture starts at {fix.start_index}, sequence at {seq.start_index}")
    start, last = fix.start_index, fix.start_index + n_terms - 1
    cert = _tail_certificate(seq, fix.numer, fix.denom, start, last)
    with mpmath.workprec(bits):
        lost = None  # (sigma, E) where an uncertified walk lost precision
        if isinstance(cert, str):
            note = f"no tail certificate: {cert}"
            mag, top, cur = mpmath.mag, mpmath.ninf, None
            for n, _, E, sigma, _ in seq._summed(fix.numer, fix.denom, start, last,
                                                 mpmath.mpf(1)):
                size = mag(sigma) - mag(E)  # log2 |partial sum|, to within 2
                if size > top:
                    top, top_at = size, (sigma, E)
                prev, cur = cur, (sigma, E)
            value = cur[0] / cur[1]
            if accel == "average1":
                value = (value + prev[0] / prev[1]) / 2
            if top > mag(abs(value) + 1) + bits - 20:
                lost = top_at
        else:
            m0, rho = cert
            note = f"tail certified from m0 = {m0} with rho = {rho}"
            p, q, n = _certified_sum(seq, fix, last, accel, bits, m0, rho)
            value = mpmath.mpf(libmp.from_rational(p, q, bits, libmp.round_nearest))
        logging.getLogger(__name__).debug(
            "numeric series %s: summed %d of %d terms; %s",
            fix.label or fix.sequence_key, n - start + 1, n_terms, note)
        if lost is not None:
            raise PrecisionLoss(f"partial sums reached {abs(lost[0] / lost[1])}"
                                f" against result {value}")
        target = _to_mpf(fix.target_r0) + _to_mpf(fix.target_r1) / mpmath.pi
        return {
            "value": value,
            "target": target,
            "abs_error": abs(value - target),
            "terms": n_terms,
            "precision_bits": bits,
            "accel": accel,
        }


def _residue(q: Fraction, modulus: int) -> int:
    if gcd(q.denominator, modulus) != 1:
        raise NonInvertibleDenominator(
            f"denominator {q.denominator} shares a factor with {modulus}")
    return (q.numerator * pow(q.denominator % modulus, -1, modulus)) % modulus


def _residue_sum(terms, p: int, modulus: int) -> int:
    """sum a/b mod ``modulus`` = p^k over the ``terms`` (a, b), folded into
    one fraction s/t with t prime to p, so that one inversion serves the
    whole sum.  Where p does not divide b the term is a * b^-1, since
    Z_(p) -> Z/p^k is a ring homomorphism; elsewhere the exact term
    Fraction(a, b) is reduced, which raises NonInvertibleDenominator
    when it is not p-integral."""
    s, t = 0, 1
    for a, b in terms:
        e = b % modulus
        if e % p:
            s = (s * e + a % modulus * t) % modulus
            t = t * e % modulus
        else:
            s = (s + _residue(Fraction(a, b), modulus) * t) % modulus
    return s * pow(t, -1, modulus) % modulus


def verify_congruence(fix: CongruenceFixture, primes) -> list:
    """Exact residue sums mod p^2 for each prime, against the target.

    The terms come from the exact values of F with one inversion per
    prime (see :func:`_residue_sum`).  Errors come in the order of a walk
    over each prime's window: the denominators of the new indices are
    scanned before F is read, and a vanishing denominator is raised after
    the residues of the terms before it."""
    primes = sorted(primes)
    if not primes:
        raise ValueError("no primes to check")
    reports = []
    seq = _resolve(fix.sequence_key)
    r, mod = fix.prime_residue
    start = fix.start_index
    # numer/denom is unchanged when both are scaled by one integer
    _, (num_row, den_row) = integer_rows([fix.numer, fix.denom])
    # each term numer(n)/denom(n) * F(n) as an integer pair (a, b), from
    # start on, grown as the sorted primes need them
    terms = []
    for p in primes:
        if not is_prime(p) or p % mod != r % mod:
            raise PrimeFilterViolation(
                f"{p} is not a prime with p = {r} mod {mod}")
        modulus = p**fix.modulus_power
        lo = start + len(terms)
        dens = [_horner(den_row, n) for n in range(lo, p)]
        stop = lo + (dens.index(0) if 0 in dens else len(dens))
        terms += [(_horner(num_row, n) * f.numerator, d * f.denominator)
                  for n, d, f in zip(range(lo, stop), dens,
                                     seq.values(lo, stop - 1))]
        acc = _residue_sum(terms[:max(p - start, 0)], p, modulus)
        if stop < lo + len(dens):
            raise ZeroDivisionError(f"denominator vanishes at n = {stop}")
        target = _residue(fix.target, modulus)
        reports.append({
            "prime": p,
            "modulus": modulus,
            "residue": acc,
            "target": target,
            "ok": acc == target,
        })
    return reports
