"""The `derive` workload: text in, derivation, text out.

Every pass holds the same mix of tasks, but pass k draws its operators and
polynomials from Random(f"derive-{seed}-{k}"), so no operator repeats
within a pass and few repeat within a run: a per-operator memo can only
show its within-call share here.  Program objects for the round trips are
built while generating a pass, outside the timed calls.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

import oracle as O
from harness import Task

# Tasks per pass, by kind, besides 12 classify and 12 reduce tasks (each on
# 4 catalog conjugations, 4 random and 4 hypergeometric operators).  The mix
# is tuned so that the median lands inside the parser round trips and the
# tail percentile inside the rational reductions (see README.md).
MIX = {
    "rational": 8,
    "rt_poly": 50,
    "rt_rf": 50,
    "rt_op": 50,
}
FORMATS = ("text", "latex", "structured")

# The fixtures' (side, factor, order) combinations, on the Domb operators.
RATIONAL_COMBOS = (
    ("upper", "(n+2)^2", 2),
    ("upper", "(n+2)^3", 2),
    ("lower", "(n+1)^2", 2),
    ("lower", "(n+1)^3", 2),
    ("upper", "(n+2)^2", 3),
    ("lower", "n+1", 2),
)
DOMB_KEYS = ("domb", "domb_over_16n", "domb_over_neg32n")

# The one operation that fails today: integer_roots refuses a Fujiwara
# bound above 10^7, so this valid operator cannot be classified.
FAILING_D = 5_000_000


def _ratios():
    parts = (1, 2, 3, 4, 5, 7, 8, 9, 16, 32)
    out = []
    for a in parts:
        for b in parts:
            if gcd(a, b) == 1:
                out += [Fraction(a, b), Fraction(-a, b)]
    return out


def _rand_int_poly(rng, deg, height, nonzero=True):
    cs = [rng.randint(-height, height) for _ in range(deg + 1)]
    while nonzero and cs[-1] == 0:
        cs[-1] = rng.randint(-height, height)
    return cs


def _rand_frac_poly(rng, deg, height, nonzero=False):
    def draw():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    cs = [draw() for _ in range(deg + 1)]
    while nonzero and cs[-1] == 0:
        cs[-1] = draw()
    return cs


class Derive:
    tail_q = 0.99

    def __init__(self, hr, seed):
        self.hr = hr
        self.seed = seed
        rng = random.Random(f"derive-{seed}")
        self.ratio_order = _ratios()
        rng.shuffle(self.ratio_order)
        self.hyper_d = rng.sample(range(1000, 10001), 2000)
        self.catalog_keys = sorted(O.CATALOG)

    # -- generation -------------------------------------------------------

    def _conjugation(self, key, index, seen):
        """The catalog operator `key` conjugated by F(n) r^n, with r the
        first ratio from `index` on whose operator is not in `seen`."""
        texts, start, fn = O.CATALOG[key]
        while True:
            r = self.ratio_order[index % len(self.ratio_order)]
            canon = _canonical_conjugation(key, r)
            if canon not in seen:
                seen.add(canon)
                return O.conjugate(texts, r), start, (lambda n, fn=fn, r=r: fn(n) * r ** n)
            index += 1

    def _catalog_op(self, k, slot, seen):
        key = self.catalog_keys[(slot + 3 * k) % len(self.catalog_keys)]
        return self._conjugation(key, 8 * k + slot, seen)

    def _random_op(self, rng, seen):
        while True:
            order = rng.randint(1, 3)
            polys = [_rand_int_poly(rng, 3, 5, nonzero=False) for _ in range(order)]
            polys.append(_rand_int_poly(rng, 3, 5))
            canon = _canonical_random(polys)
            if canon not in seen:
                seen.add(canon)
                return [O.poly_text(p) for p in polys]

    def _hyper_op(self, k, slot):
        d = self.hyper_d[(8 * k + slot) % len(self.hyper_d)]
        texts, start, fn = O.hypergeometric_ratio(d)
        return texts, start, fn, d

    def _operators(self, rng, k, base, seen):
        """Four catalog conjugations, four random, four hypergeometric."""
        ops = []
        for slot in range(4):
            texts, start, fn = self._catalog_op(k, base + slot, seen)
            ops.append(("catalog", texts, start, fn, None))
        for _ in range(4):
            ops.append(("random", self._random_op(rng, seen), None, None, None))
        for slot in range(4):
            texts, start, fn, d = self._hyper_op(k, base + slot)
            ops.append(("hyper", texts, start, fn, d))
        return ops

    def tasks(self, k):
        rng = random.Random(f"derive-{self.seed}-{k}")
        seen = set()
        out = []
        for i, op in enumerate(self._operators(rng, k, 0, seen)):
            out.append(self._classify_task(op, FORMATS[i % 3]))
        for i, op in enumerate(self._operators(rng, k, 4, seen)):
            p = _rand_int_poly(rng, rng.randint(3, 6), 9)
            out.append(self._reduce_task(op, p, FORMATS[(i + 1) % 3]))
        for i in range(MIX["rational"]):
            side, factor, order = RATIONAL_COMBOS[(i + k) % len(RATIONAL_COMBOS)]
            if side == "lower" and factor == "n+1":
                key = "domb_over_16n"
            else:
                key = DOMB_KEYS[rng.randrange(3)]
            texts, _, seq = self._conjugation(key, 7 * k + i, seen)
            out.append(self._rational_task(texts, seq, _rand_int_poly(rng, 6, 9), side,
                                           factor, order, FORMATS[i % 3]))
        hr = self.hr
        for _ in range(MIX["rt_poly"]):
            out.append(self._round_trip("rt_poly", hr.Polynomial(_rand_frac_poly(rng, 6, 25)),
                                        hr.parse_polynomial))
        for _ in range(MIX["rt_rf"]):
            rf = hr.RationalFunction(hr.Polynomial(_rand_frac_poly(rng, 4, 25)),
                                     hr.Polynomial(_rand_frac_poly(rng, 3, 25, True)))
            out.append(self._round_trip("rt_rf", rf, hr.parse_rational_function))
        for _ in range(MIX["rt_op"]):
            order = rng.randint(1, 2)
            cs = [_rand_frac_poly(rng, 3, 25) for _ in range(order)]
            cs.append(_rand_frac_poly(rng, 3, 25, True))
            op = hr.ShiftOperator([hr.Polynomial(c) for c in cs])
            out.append(self._round_trip("rt_op", op, hr.parse_operator))
        out.append(self._failing_task())
        random.Random(f"derive-order-{self.seed}-{k}").shuffle(out)
        return out

    # -- tasks ------------------------------------------------------------

    def _classify_task(self, op, fmt):
        source, texts, start, fn, d = op
        hr = self.hr
        text = O.operator_text(texts)

        def run():
            L = hr.parse_operator(text)
            prof = hr.degree_profile(L)
            bounds = hr.summable_degree_bounds(L)
            printed = (hr.print_value(prof.f_poly, fmt), hr.print_value(bounds.witness, fmt))
            return prof, bounds, printed

        def check(res):
            prof, bounds, printed = res
            oracle = O.OperatorOracle(texts)
            O.check_profile(oracle, prof, bounds)
            if d is not None:
                _check_hyper(prof, bounds, d)
            _check_printed(printed, (prof.f_poly.coeffs, bounds.witness.coeffs), fmt)

        return Task("classify", run, check)

    def _reduce_task(self, op, p, fmt):
        source, texts, start, fn, d = op
        hr = self.hr
        text = O.operator_text(texts)
        p_text = O.poly_text(p)

        def run():
            L = hr.parse_operator(text)
            poly = hr.parse_polynomial(p_text)
            red = hr.polynomial_reduce(poly, L)
            printed = tuple(hr.print_value(v, fmt) for v in
                            (red.remainder, red.multiplier, *red.certificate))
            return red, printed

        def check(res):
            red, printed = res
            oracle = O.OperatorOracle(texts)
            cert = [u.coeffs for u in red.certificate]
            O.check_reduction(oracle, [Fraction(c) for c in p], red.remainder.coeffs,
                              red.multiplier.coeffs, cert)
            if fn is not None:
                O.check_telescoping(oracle, fn, red.multiplier.coeffs, cert, start)
            _check_printed(printed, (red.remainder.coeffs, red.multiplier.coeffs, *cert), fmt)

        return Task("reduce", run, check)

    def _rational_task(self, texts, seq, p, side, factor, order, fmt):
        hr = self.hr
        text = O.operator_text(texts)
        p_text = O.poly_text(p)
        j_ord = len(texts) - 1

        def run():
            L = hr.parse_operator(text)
            poly = hr.parse_polynomial(p_text)
            fac = hr.parse_polynomial(factor)
            rr = hr.rational_reduce(poly, L, fac, side, order)
            printed = tuple(hr.print_value(v, fmt) for v in
                            (rr.remainder_numer, rr.denominator, rr.derived_operator))
            return rr, printed

        def check(res):
            rr, printed = res
            direction, shift = (1, -j_ord) if side == "upper" else (-1, 0)

            def sp(m):
                return O.shift_product_at(factor, direction, order, shift, m)

            O.require(O.interpolate(sp, 3 * order + 1) == O.trim(rr.denominator.coeffs),
                      "denominator != shift product")
            l1_texts = [O.poly_text(c.coeffs) for c in rr.derived_operator.coeffs]
            l1 = O.OperatorOracle(l1_texts)
            q = O.interpolate(lambda m: O.horner(p, m) * sp(m), 3 * order + 7)
            cert = [u.coeffs for u in rr.reduction.certificate]
            O.check_reduction(l1, q, rr.remainder_numer.coeffs,
                              rr.reduction.multiplier.coeffs, cert)
            lo = 3  # above every root of the shift products used here

            def g(m):
                return seq(m) / sp(m)

            for m in range(lo, lo + 8):
                O.require(l1.apply_at(g, m) == 0, f"L1 does not annihilate F/SP at {m}")
            O.check_telescoping(l1, g, rr.reduction.multiplier.coeffs, cert, lo)
            _check_printed(printed[:2], (rr.remainder_numer.coeffs, rr.denominator.coeffs), fmt)
            _check_printed_operator(printed[2], [c.coeffs for c in rr.derived_operator.coeffs],
                                    fmt)

        return Task("rational", run, check)

    def _round_trip(self, kind, value, parse):
        hr = self.hr
        expected = _coeff_key(value)

        def run():
            text = hr.to_text(value)
            parsed = parse(text)
            return text, parsed, hr.to_text(parsed)

        def check(res):
            text, parsed, again = res
            O.require(_coeff_key(parsed) == expected, f"parse(to_text(x)) != x for {text!r}")
            O.require(again == text, f"to_text not stable for {text!r}")

        return Task(kind, run, check)

    def _failing_task(self):
        hr = self.hr
        text = O.operator_text(O.hypergeometric_ratio(FAILING_D)[0])

        def run():
            L = hr.parse_operator(text)
            prof = hr.degree_profile(L)
            bounds = hr.summable_degree_bounds(L)
            return prof, bounds

        def check(res):
            _check_hyper(*res, FAILING_D)

        return Task("classify_large_d", run, check,
                    expected_error=(ValueError, "integer root bound too large"))


def _check_hyper(prof, bounds, d):
    """Hand-derived profile of (n+1)(n+d) - (n+2)(n+1) S for d >= 2."""
    O.require((prof.deg_l, prof.d_l, set(prof.r_l), prof.c_l) == (1, 2, set(), 0),
              f"hypergeometric profile wrong for d = {d}")
    O.require(O.trim(prof.f_poly.coeffs) == (Fraction(d), Fraction(1)), "f(s) != s + d")
    O.require(bounds.upper == 1 and not bounds.lower_valid, "bounds wrong")


# Domb/16^n and Domb/(-32)^n are Domb conjugated by 1/16 and -1/32.
_DOMB_SCALE = {"domb_over_16n": Fraction(1, 16), "domb_over_neg32n": Fraction(-1, 32)}


def _canonical_conjugation(key, r):
    """Catalog conjugations that give the same operator up to a constant
    factor get the same key."""
    if key in _DOMB_SCALE:
        return ("domb", r * _DOMB_SCALE[key])
    return (key, r)


def _canonical_random(polys):
    """Integer coefficient lists up to a common constant factor."""
    flat = [c for p in polys for c in p]
    g = gcd(*flat)
    if polys[-1][-1] < 0:
        g = -g
    return ("random", tuple(tuple(c // g for c in p) for p in polys))


def _coeff_key(value):
    if hasattr(value, "numer"):
        return (O.trim(value.numer.coeffs), O.trim(value.denom.coeffs))
    coeffs = value.coeffs
    if coeffs and hasattr(coeffs[0], "coeffs"):
        return tuple(O.trim(c.coeffs) for c in coeffs)
    return O.trim(coeffs)


def _check_printed(printed, coeff_lists, fmt):
    """Printed polynomials must denote the returned values."""
    for out, coeffs in zip(printed, coeff_lists):
        want = O.trim(coeffs)
        if fmt == "structured":
            body = json.loads(out)
            O.require(body["schema"] == "holoreduce-v1" and body["kind"] == "polynomial",
                      "structured output is not a holoreduce-v1 polynomial")
            got = _structured_coeffs(body)
        else:
            text = O.latex_to_text(out) if fmt == "latex" else out
            got = O.interpolate(lambda m: O.eval_poly_text(text, m), max(len(want), 1))
        O.require(got == want, f"{fmt} {out!r} does not denote the result")


def _check_printed_operator(out, coeff_lists, fmt):
    """A printed operator must denote the returned one, coefficient by
    coefficient."""
    want = [O.trim(c) for c in coeff_lists]
    if fmt == "structured":
        body = json.loads(out)
        O.require(body["schema"] == "holoreduce-v1" and body["kind"] == "shift_operator"
                  and body["order"] == len(want) - 1,
                  "structured output is not a holoreduce-v1 operator of the right order")
        got = [_structured_coeffs(c) for c in body["coefficients"]]
    else:
        text = O.latex_to_text(out) if fmt == "latex" else out
        got = O.operator_coeffs(text, max(len(c) for c in want))
    O.require(got == want, f"{fmt} {out!r} does not denote the derived operator")


def _structured_coeffs(body):
    return O.trim(Fraction(int(c["num"]), int(c["den"])) for c in body["coefficients"])
