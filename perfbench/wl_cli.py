"""The `cli` workload: the README's command lines, one subprocess at a time.

Each command is `python -m holoreduce.cli ...` with the working tree's
`src` on PYTHONPATH, so every operation pays interpreter start-up, import
and cold caches, as a user does.  The seed picks the order of the
commands in a pass and the scale of the guessed term list.
"""

from __future__ import annotations

import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import oracle as O
from harness import Task

CLASSIFY_OP = "n*(n+1)^2 - (n+1)*(n+2)*(2*n+3)*S + (n+2)^2*(n+3)*S^2"
REDUCE_OP = "2*(-1+n)*n*(1+n)^2 - n*(3+2*n)*(12+15*n+5*n^2)*S + 8*(2+n)^4*S^2"
REDUCE_POLY = "n*(n-1)*(3*n+1)"
NEG32_OP = "(n+1)^3 + (2*n+3)*(5*n^2+15*n+12)*S + 16*(n+2)^3*S^2"
FIX = "src/holoreduce/fixtures/"
PRIMES = "7,13,19,31,37,43"
GUESS_TERMS, GUESS_HELD_OUT = 40, 30


def commands(terms_path):
    return {
        "classify": ["classify", "--operator", CLASSIFY_OP],
        "reduce": ["reduce", "--operator", REDUCE_OP, "--poly", REDUCE_POLY],
        "rational_reduce": ["rational-reduce", "--operator", NEG32_OP, "--poly", "3*n+1",
                            "--factor", "(n+2)^2", "--side", "upper", "--order", "2"],
        "guess": ["guess", "--terms", terms_path, "--start", "0", "--max-order", "2",
                  "--max-deg", "3"],
        "verify_numeric": ["verify", "--fixture", FIX + "domb_neg32_upper_sq.fixture",
                           "--mode", "numeric", "--N", "100000"],
        "verify_exact": ["verify", "--fixture", FIX + "domb_neg32_upper_sq.fixture",
                         "--mode", "exact"],
        "verify_congruence": ["verify", "--fixture", FIX + "domb_16n_rational_cong.fixture",
                              "--mode", "congruence", "--primes", PRIMES],
        "eval": ["eval", "--sequence", "domb", "--n", "2"],
        "sum": ["sum", "--sequence", "domb_over_neg32n", "--numer", "3*n+1",
                "--from", "0", "--to", "100"],
    }


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Cli:
    tail_q = 0.75
    cpu_clock = staticmethod(children_cpu)

    def __init__(self, root, seed, out_dir, launcher=None):
        self.root = root
        self.seed = seed
        rng = random.Random(f"cli-{seed}")
        self.scale = rng.randint(1, 9)
        self.terms_path = os.path.join(out_dir, f"terms-{seed}.txt")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.launcher = launcher or [sys.executable, "-m", "holoreduce.cli"]
        self.cmds = commands(os.path.relpath(self.terms_path, root))
        self.order = sorted(self.cmds)
        rng.shuffle(self.order)
        self.expect = None

    def python(self, code):
        """Run `python -c code` in the benchmark's environment."""
        return subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, check=True).stdout

    def setup(self):
        """Write the terms file and import holoreduce.cli once in a child
        (bytecode and page cache), checking it comes from the working tree."""
        with open(self.terms_path, "w", encoding="utf-8") as fh:
            fh.write("# scaled Franel numbers\n")
            for n in range(GUESS_TERMS):
                fh.write(f"{self.scale * O.franel(n)}\n")
        where = self.python("import holoreduce.cli, holoreduce; print(holoreduce.__file__)")
        src = os.path.realpath(os.path.join(self.root, "src")) + os.sep
        if not os.path.realpath(where.strip()).startswith(src):
            raise RuntimeError(f"holoreduce imported from {where.strip()}, not {src}")

    def prepare_oracles(self):
        fields = O.read_fixture(os.path.join(self.root, FIX, "domb_neg32_upper_sq.fixture"))
        cong = O.read_fixture(os.path.join(self.root, FIX, "domb_16n_rational_cong.fixture"))
        domb = O.domb_table(101)
        self.expect = {
            "target": O.pi_target(fields["target"]),
            "fields": fields,
            "residues": O.congruence_residues(cong, map(int, PRIMES.split(",")), domb),
            "sum": sum((Fraction((3 * n + 1) * domb[n], (-32) ** n) for n in range(101)),
                       Fraction(0)),
            "franel": [self.scale * O.franel(n) for n in range(GUESS_TERMS + GUESS_HELD_OUT)],
        }

    def tasks(self, k):
        return [self._task(name) for name in self.order]

    def _task(self, name):
        argv = self.launcher + self.cmds[name]
        check = getattr(self, "_check_" + name)

        def run():
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout

        def verify(out):
            check(_fields(out), out)

        return Task(name, run, verify)

    # -- output checks ----------------------------------------------------

    def _check_classify(self, f, out):
        head = dict(kv.split("=") for kv in out.splitlines()[0].split())
        second = dict(kv.split("=") for kv in out.splitlines()[1].split())
        rl = {int(s) for s in second["RL"].strip("{}").split(",") if s}
        f_coeffs = O.interpolate(lambda m: O.eval_poly_text(f["f(s)"].replace("s", "n"), m), 8)
        witness = O.interpolate(lambda m: O.eval_poly_text(f["witness"], m), 12)
        prof = SimpleNamespace(d_l=int(second["dL"]), deg_l=int(head["degL"]),
                               c_l=int(head["CL"]), r_l=rl,
                               f_poly=SimpleNamespace(coeffs=f_coeffs))
        lower = int(head["lower"]) if "lower" in head else None
        bounds = SimpleNamespace(upper=int(head["upper"]), lower=lower,
                                 lower_valid=lower is not None,
                                 witness=SimpleNamespace(coeffs=witness))
        O.check_profile(O.OperatorOracle(O.operator_texts(CLASSIFY_OP)), prof, bounds)
        O.require((second["degenerated"] == "yes") == bool(rl), "degenerated flag wrong")

    def _check_reduce(self, f, out):
        oracle = O.OperatorOracle(O.operator_texts(REDUCE_OP))
        p = O.interpolate(lambda m: O.eval_poly_text(REDUCE_POLY, m), 6)
        O.check_reduction(oracle, p, _poly(f["remainder"]), _poly(f["multiplier"]),
                          _certificate(f))

    def _check_rational_reduce(self, f, out):
        O.require((f["side"], f["order"]) == ("upper", "2"), "side/order not echoed")

        def sp(m):
            return O.shift_product_at("(n+2)^2", 1, 2, -2, m)

        O.require(_poly(f["denominator"]) == O.interpolate(sp, 8), "denominator != SP")
        l1 = O.OperatorOracle(O.operator_texts(f["derived_operator"]))
        q = O.interpolate(lambda m: (3 * m + 1) * sp(m), 8)
        cert = _certificate(f)
        O.check_reduction(l1, q, _poly(f["remainder_numer"]), _poly(f["multiplier"]), cert)

        def g(m):
            return Fraction(O.domb(m), (-32) ** m) / sp(m)

        for m in range(0, 8):
            O.require(l1.apply_at(g, m) == 0, f"L1 does not annihilate F/SP at {m}")
        O.check_telescoping(l1, g, _poly(f["multiplier"]), cert, 0)

    def _check_guess(self, f, out):
        oracle = O.OperatorOracle(O.operator_texts(out.strip()))
        O.check_annihilates(oracle, self.expect["franel"], GUESS_TERMS - oracle.order)

    def _check_verify_numeric(self, f, out):
        import mpmath

        # value and target are printed to 15 significant digits; the error
        # is computed at the working precision and printed as its own line.
        with mpmath.workprec(384):
            target = self.expect["target"]
            for key in ("value", "target"):
                err = abs(mpmath.mpf(f[key]) - target)
                O.require(err <= 1e-14 * abs(target), f"printed {key} off by {err}")
            O.require(mpmath.mpf(f["abs_error"]) <= 1e-24, "numeric error above 1e-24")
        O.require(f["status"] == "PASS", "numeric status not PASS")

    def _check_verify_exact(self, f, out):
        scalar = Fraction(self.expect["fields"]["scalar"])
        want = O.interpolate(lambda m: scalar * O.eval_poly_text(self.expect["fields"]["numer"], m), 8)
        O.require(f["status"] == "PASS" and _poly(f["remainder_numer"]) == want,
                  "exact verification output wrong")

    def _check_verify_congruence(self, f, out):
        lines = [ln for ln in out.splitlines() if ln.startswith("p=")]
        O.require(len(lines) == len(self.expect["residues"]) and f["status"] == "PASS",
                  "congruence report incomplete")
        for ln in lines:
            m = re.fullmatch(r"p=(\d+) residue=(\d+) target=(\d+) ok", ln)
            O.require(m is not None, f"bad congruence line {ln!r}")
            p, res, tgt = map(int, m.groups())
            O.require((res, tgt) == self.expect["residues"][p] and res == tgt,
                      f"residue mod {p}^2 wrong")

    def _check_eval(self, f, out):
        O.require(Fraction(out.strip()) == O.domb(2), "eval domb 2 wrong")

    def _check_sum(self, f, out):
        O.require(Fraction(out.strip()) == self.expect["sum"], "partial sum wrong")


def _fields(out):
    fields = {}
    for line in out.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            fields[key.strip()] = val.strip()
    return fields


def _poly(text):
    return O.interpolate(lambda m: O.eval_poly_text(text, m), 14)


def _certificate(f):
    return [_poly(f[f"u{i}"]) for i in range(len([k for k in f if re.fullmatch(r"u\d+", k)]))]


def timed_python(env_holder, code, repeats=5):
    """Median wall seconds of `python -c code` children."""
    walls = []
    for _ in range(repeats):
        w0 = time.perf_counter()
        env_holder.python(code)
        walls.append(time.perf_counter() - w0)
    walls.sort()
    return walls[len(walls) // 2]
