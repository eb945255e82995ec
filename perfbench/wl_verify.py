"""The `verify` workload: the three verification channels on the shipped
fixtures, cold recurrence evaluation and annihilator guessing.

Every pass runs the same task list (the seed only shuffles it and picks
the prime of the negative congruence control), on the same catalog
sequences, whose caches set-up fills to every index a pass reads.  This
is the workload where cross-call reuse lives.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import oracle as O
from harness import Task

NUMERIC_TERMS = 4000          # far past convergence: terms shrink like 2^-n
NUMERIC_BITS = (96, 192)      # the default precision and one higher
EXACT_WINDOW = 100
PRIME_BOUND = 500
COLD_INDEX = 400
GUESS_TERMS, GUESS_HELD_OUT = 40, 30


def primes_1_mod_3(bound):
    sieve = [True] * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            for q in range(p * p, bound + 1, p):
                sieve[q] = False
            if p % 3 == 1:
                out.append(p)
    return out


class Verify:
    tail_q = 0.95

    def __init__(self, hr, seed, fixtures_dir):
        self.hr = hr
        self.seed = seed
        self.paths = {p.stem: str(p) for p in sorted(Path(fixtures_dir).glob("*.fixture"))}
        self.fields = {k: O.read_fixture(p) for k, p in self.paths.items()}
        self.primes = primes_1_mod_3(PRIME_BOUND)
        self.negative_prime = random.Random(f"verify-{seed}").choice(self.primes[:12])
        self.expect = None

    def prepare_oracles(self):
        """Independent expected values; computed once, outside set-up time."""
        domb = O.domb_table(max(PRIME_BOUND, COLD_INDEX + 2))
        exp = {"targets": {}, "residues": {}, "cold": {}, "guess": {}}
        for key, f in self.fields.items():
            if f["target"].endswith("/pi"):
                exp["targets"][key] = O.pi_target(f["target"])
            else:
                for p, want in O.congruence_residues(f, self.primes, domb).items():
                    exp["residues"][key, p] = want
        for key, (texts, start, fn) in O.CATALOG.items():
            n = start + COLD_INDEX
            exp["cold"][key] = fn(n) if "domb" not in key else (
                Fraction(domb[n]) / {"domb": 1, "domb_over_16n": 16,
                                     "domb_over_neg32n": -32}[key] ** n)
        exp["guess"]["franel"] = [O.franel(n) for n in range(GUESS_TERMS + GUESS_HELD_OUT)]
        exp["guess"]["domb"] = domb[:GUESS_TERMS + GUESS_HELD_OUT]
        self.expect = exp

    def setup(self):
        """Load fixtures, build the task list and fill the catalog caches."""
        hr = self.hr
        self.fixtures = {k: hr.load_fixture(p) for k, p in self.paths.items()}
        hr.get_sequence("domb_over_16n").eval(PRIME_BOUND)
        hr.get_sequence("domb_over_neg32n").eval(EXACT_WINDOW + 10)
        self._tasks = self._build()

    def tasks(self, k):
        return self._tasks

    def _build(self):
        hr = self.hr
        out = []
        for key, fix in self.fixtures.items():
            if isinstance(fix, hr.IdentityFixture):
                for bits in NUMERIC_BITS:
                    out.append(self._numeric(key, fix, bits))
            if fix.recipe is not None:
                out.append(self._exact(key, fix))
            if isinstance(fix, hr.CongruenceFixture):
                for p in self.primes:
                    out.append(self._congruence(key, fix, p))
        out.append(self._negative_exact())
        out.append(self._negative_congruence())
        for key in sorted(O.CATALOG):
            out.append(self._cold(key))
        for name in ("franel", "domb"):
            out.append(self._guess(name))
        random.Random(f"verify-order-{self.seed}").shuffle(out)
        return out

    def _numeric(self, key, fix, bits):
        hr = self.hr
        tol = 2.0 ** -(bits - 16)

        def run():
            return hr.numeric_series_check(fix, NUMERIC_TERMS, accel="average1",
                                           precision=bits)

        def check(report):
            err = abs(report["value"] - self.expect["targets"][key])
            O.require(err <= tol, f"{key} at {bits} bits: error {err} > {tol}")
            O.require(report["terms"] == NUMERIC_TERMS and report["precision_bits"] == bits,
                      "report does not echo its inputs")

        return Task("numeric", run, check)

    def _source(self, fix):
        hr = self.hr
        seq = hr.get_sequence(fix.sequence_key)
        return dataclasses.replace(
            fix, numer=fix.recipe.source_numer, denom=hr.Polynomial([1]),
            start_index=seq.start_index, label="source", recipe=None)

    def _exact(self, key, fix):
        hr = self.hr
        source = self._source(fix)
        fields = self.fields[key]
        seq = O.CATALOG[fix.sequence_key][2]

        def run():
            rr = hr.rederive(fix, source)
            return rr, hr.verify_identity_exact(fix, source, rr, window_length=EXACT_WINDOW)

        def check(res):
            rr, ok = res
            O.require(ok is True, f"{key}: exact verification rejected a valid fixture")
            scalar = Fraction(fields["scalar"])
            want = O.interpolate(lambda m: scalar * O.eval_poly_text(fields["numer"], m), 8)
            O.require(O.trim(rr.remainder_numer.coeffs) == want,
                      f"{key}: remainder != scalar * published numerator")
            sp = O.interpolate(lambda m: O.eval_poly_text(fields["denom"], m), 10)
            O.require(O.trim(rr.denominator.coeffs) == sp, f"{key}: denominator != fixture")
            l1 = O.OperatorOracle([O.poly_text(c.coeffs) for c in rr.derived_operator.coeffs])
            cert = [u.coeffs for u in rr.reduction.certificate]

            def g(m):
                return seq(m) / O.horner(sp, m)

            O.check_telescoping(l1, g, rr.reduction.multiplier.coeffs, cert, 3)

        return Task("exact", run, check)

    def _congruence(self, key, fix, p):
        hr = self.hr

        def run():
            return hr.verify_congruence(fix, [p])

        def check(reports):
            (rep,) = reports
            want, target = self.expect["residues"][key, p]
            O.require((rep["prime"], rep["modulus"]) == (p, p * p), "wrong prime echoed")
            O.require(rep["residue"] == want, f"{key} p={p}: residue {rep['residue']} != {want}")
            O.require(rep["target"] == target and rep["ok"] == (want == target),
                      f"{key} p={p}: verdict wrong")

        return Task("congruence", run, check)

    def _negative_exact(self):
        """A perturbed published numerator must be rejected."""
        hr = self.hr
        fix = self.fixtures["domb_neg32_upper_sq"]
        bad = dataclasses.replace(fix, numer=fix.numer + hr.Polynomial([1]))
        source = self._source(fix)
        rr = hr.rederive(fix, source)

        def run():
            return hr.verify_identity_exact(bad, source, rr, window_length=EXACT_WINDOW)

        def check(ok):
            O.require(ok is False, "perturbed numerator was accepted")

        return Task("negative", run, check)

    def _negative_congruence(self):
        """A perturbed congruence target must report not ok."""
        hr = self.hr
        key = "domb_16n_rational_cong"
        fix = self.fixtures[key]
        bad = dataclasses.replace(fix, target=fix.target + 1)
        p = self.negative_prime

        def run():
            return hr.verify_congruence(bad, [p])

        def check(reports):
            (rep,) = reports
            want, _ = self.expect["residues"][key, p]
            O.require(rep["residue"] == want and rep["ok"] is False,
                      "perturbed congruence target was accepted")

        return Task("negative", run, check)

    def _cold(self, key):
        hr = self.hr
        base = hr.get_sequence(key)
        j_ord = base.operator.order
        initial = base.values(base.start_index, base.start_index + j_ord - 1)
        n = base.start_index + COLD_INDEX

        def run():
            seq = hr.HolonomicSequence(base.operator, base.start_index, initial,
                                       name=key, oracle=base.oracle)
            return seq.eval(n)

        def check(value):
            O.require(value == self.expect["cold"][key], f"cold {key}({n}) wrong")

        return Task("cold_eval", run, check)

    def _guess(self, name):
        hr = self.hr

        def run():
            terms = self.expect["guess"][name][:GUESS_TERMS]
            return hr.guess_annihilator(terms, 0, 2, 3)

        def check(op):
            O.require(op is not None, f"no annihilator guessed for {name}")
            oracle = O.OperatorOracle([O.poly_text(c.coeffs) for c in op.coeffs])
            O.check_annihilates(oracle, self.expect["guess"][name], GUESS_TERMS - op.order)

        return Task("guess", run, check)
