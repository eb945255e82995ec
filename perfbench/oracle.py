"""Independent oracles for checking holoreduce outputs.

Nothing here calls into holoreduce: expressions are evaluated by a small
grammar evaluator of its own, sequence values come from binomial sums,
adjoints and certificates are evaluated pointwise from their defining
formulas, and polynomials are recovered from values by Newton forward
differences.  Only the standard library and mpmath (which the measured
process imports anyway) are used.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path

# -- expression evaluation ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(.))")


class _Eval:
    """Evaluate grammar text at n = x; values are {S-power: Fraction}."""

    def __init__(self, text, x):
        self.toks = []
        for num, ch in _TOKEN.findall(text):
            if num:
                self.toks.append(("int", int(num)))
            elif ch.strip():
                self.toks.append((ch, ch))
        self.toks.append(("end", None))
        self.i = 0
        self.x = Fraction(x)

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def run(self):
        v = self.expr()
        if self.toks[self.i][0] != "end":
            raise ValueError("trailing input")
        return v

    def expr(self):
        v = self.term()
        while self.toks[self.i][0] in "+-":
            sign = 1 if self.take()[0] == "+" else -1
            w = self.term()
            for k, c in w.items():
                v[k] = v.get(k, 0) + sign * c
        return v

    def term(self):
        v = self.factor()
        while self.toks[self.i][0] in "*/":
            op = self.take()[0]
            w = self.factor()
            if op == "*":
                out = {}
                for i, a in v.items():
                    for j, b in w.items():
                        out[i + j] = out.get(i + j, 0) + a * b
                v = out
            else:
                if set(w) - {0}:
                    raise ValueError("division by S")
                v = {k: c / w[0] for k, c in v.items()}
        return v

    def factor(self):
        sign = 1
        while self.toks[self.i][0] in "+-":
            if self.take()[0] == "-":
                sign = -sign
        v = self.power()
        return {k: sign * c for k, c in v.items()}

    def power(self):
        v = self.atom()
        if self.toks[self.i][0] == "^":
            self.take()
            kind, e = self.take()
            if kind != "int":
                raise ValueError("bad exponent")
            out = {0: Fraction(1)}
            for _ in range(e):
                nxt = {}
                for i, a in out.items():
                    for j, b in v.items():
                        nxt[i + j] = nxt.get(i + j, 0) + a * b
                out = nxt
            v = out
        return v

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return {0: Fraction(val)}
        if kind == "n":
            return {0: self.x}
        if kind == "S":
            return {1: Fraction(1)}
        if kind == "(":
            v = self.expr()
            if self.take()[0] != ")":
                raise ValueError("expected )")
            return v
        raise ValueError(f"unexpected {kind!r}")


def eval_text(text, x) -> dict:
    """{S-power: value at n = x} of a polynomial, rational or operator text."""
    return {k: c for k, c in _Eval(text, x).run().items() if c}


def eval_poly_text(text, x) -> Fraction:
    v = eval_text(text, x)
    if set(v) - {0}:
        raise ValueError(f"{text!r} contains S")
    return v.get(0, Fraction(0))


def horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


def interpolate(fn, bound) -> tuple:
    """Ascending coefficients of the polynomial of degree <= bound whose
    values at 0..bound are fn(0..bound), via Newton forward differences."""
    vals = [Fraction(fn(m)) for m in range(bound + 1)]
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    out = [Fraction(0)] * (bound + 1)
    basis = [Fraction(1)]  # x(x-1)...(x-k+1), ascending coefficients
    for k, d in enumerate(diffs):
        if d:
            scale = d / factorial(k)
            for i, c in enumerate(basis):
                out[i] += scale * c
        basis = [Fraction(0)] + basis
        for i in range(len(basis) - 1):
            basis[i] -= k * basis[i + 1]
    return trim(out)


def degree(coeffs) -> int:
    return len(coeffs) - 1  # -1 for the zero polynomial


def poly_text(coeffs) -> str:
    """Expanded text of an ascending coefficient list, in the grammar."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if not c:
            continue
        mag = abs(c)
        mag_s = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        var = "" if k == 0 else ("n" if k == 1 else f"n^{k}")
        body = mag_s if not var else (var if mag == 1 else f"{mag_s}*{var}")
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- operators given by coefficient texts ----------------------------------


class OperatorOracle:
    """Pointwise view of L = sum_i a_i(n) S^i from its coefficient texts."""

    def __init__(self, coeff_texts):
        self.texts = list(coeff_texts)
        self.order = len(self.texts) - 1
        self._cache = {}

    def a(self, i, m) -> Fraction:
        key = (i, m)
        v = self._cache.get(key)
        if v is None:
            v = eval_poly_text(self.texts[i], m)
            self._cache[key] = v
        return v

    def coeff_polys(self, bound=12) -> list:
        return [interpolate(lambda m, i=i: self.a(i, m), bound)
                for i in range(self.order + 1)]

    def adjoint_at(self, x, m) -> Fraction:
        """L*(x)(m) = sum_i a_i(m - i) x(m - i)."""
        return sum((self.a(i, m - i) * x(m - i) for i in range(self.order + 1)),
                   Fraction(0))

    def cert_at(self, x, i, m) -> Fraction:
        """u_i(m) = sum_{j=1}^{J-i} a_{i+j}(m - j) x(m - j)."""
        return sum((self.a(i + j, m - j) * x(m - j)
                    for j in range(1, self.order - i + 1)), Fraction(0))

    def apply_at(self, values, m) -> Fraction:
        """L(F)(m) for F given as a callable."""
        return sum((self.a(i, m) * values(m + i) for i in range(self.order + 1)),
                   Fraction(0))

    def adjoint_monomial(self, s, d_l) -> tuple:
        """Coefficients of L*(n^s), recovered from its values."""
        return interpolate(lambda m: self.adjoint_at(lambda t: Fraction(t) ** s, m),
                           d_l + s + 1)


def operator_coeffs(text, bound=13) -> list:
    """Ascending coefficients of each a_i of an operator text of degree at
    most `bound`, recovered from its values at 0..bound."""
    vals = {}
    for m in range(bound + 1):
        for k, c in eval_text(text, m).items():
            vals.setdefault(k, {})[m] = c
    order = max(vals)
    return [interpolate(lambda m, k=k: vals.get(k, {}).get(m, 0), bound)
            for k in range(order + 1)]


def operator_texts(text) -> list:
    """Split an operator into coefficient texts; used only to build an
    oracle from a printed operator."""
    return [poly_text(c) for c in operator_coeffs(text)]


_LATEX_FRAC = re.compile(r"\\frac\{(\d+)\}\{(\d+)\}")
_LATEX_JUXTAPOSED = re.compile(r"([\d)nS])\s+(?=[\d(nS])")


def latex_to_text(latex) -> str:
    """The grammar text of a printed LaTeX polynomial or operator:
    \\frac{a}{b} becomes (a/b), \\left( \\right) plain parentheses,
    \\sigma the shift S, ^{k} plain ^k, and juxtaposition a product.
    Anything else left over is an error."""
    text = _LATEX_FRAC.sub(r"(\1/\2)", latex)
    text = text.replace("\\left(", "(").replace("\\right)", ")")
    text = text.replace("\\sigma", "S")
    text = re.sub(r"\^\{(\d+)\}", r"^\1", text)
    text = re.sub(r"\)(?=[(nS\d])", ")*", text)
    text = _LATEX_JUXTAPOSED.sub(r"\1*", text)
    if re.search(r"[\\{}]", text):
        raise CheckFailed(f"LaTeX {latex!r} has markup the grammar lacks")
    return text


def nonneg_integer_roots(coeffs) -> set:
    """Nonnegative integer roots of a nonzero polynomial with rational
    coefficients, via divisors of the cleared trailing coefficient."""
    cs = trim(coeffs)
    roots = set()
    k = 0
    while cs[k] == 0:
        k += 1
    if k:
        roots.add(0)
    cs = cs[k:]
    if len(cs) == 1:
        return roots
    const = int(abs(cs[0] * lcm(*(c.denominator for c in cs))))
    d = 1
    while d * d <= const:
        if const % d == 0:
            for r in (d, const // d):
                if horner(cs, r) == 0:
                    roots.add(int(r))
        d += 1
    return roots


# -- closed forms ------------------------------------------------------------


def domb(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
               for k in range(n + 1))


def franel(n: int) -> int:
    return sum(comb(n, k) ** 3 for k in range(n + 1))


def harmonic(n: int, m: int = 1) -> Fraction:
    return sum((Fraction(1, k ** m) for k in range(1, n + 1)), Fraction(0))


def domb_table(upto: int) -> list:
    """Domb(0..upto) from binomial sums, sharing one Pascal row."""
    cb = [comb(2 * k, k) for k in range(upto + 1)]
    row = [1]
    out = []
    for n in range(upto + 1):
        out.append(sum(row[k] * row[k] * cb[k] * cb[n - k] for k in range(n + 1)))
        row = [1] + [row[k] + row[k + 1] for k in range(n)] + [1]
    return out


def _ratio_product(d):
    def term(n):
        v = Fraction(1)
        for k in range(n):
            v = v * (k + d) / (k + 2)
        return v
    return term


# Catalog operators written out as coefficient texts, each with its start
# index and an independent closed form for the sequence it annihilates.
CATALOG = {
    "domb": (["64*(1+n)^3", "-2*(3+2*n)*(12+15*n+5*n^2)", "(2+n)^3"], 0,
             lambda n: Fraction(domb(n))),
    "domb_over_16n": (["2*(1+n)^3", "-(3+2*n)*(12+15*n+5*n^2)", "8*(2+n)^3"], 0,
                      lambda n: Fraction(domb(n), 16 ** n)),
    "domb_over_neg32n": (["(n+1)^3", "(2*n+3)*(5*n^2+15*n+12)", "16*(n+2)^3"], 0,
                         lambda n: Fraction(domb(n), (-32) ** n)),
    "franel": (["8*(n+1)^2", "7*n^2+21*n+16", "-(n+2)^2"], 0,
               lambda n: Fraction(franel(n))),
    "franel_example22": (["8*n*(n^2-1)", "-n*(7*n^2+21*n+16)", "-(n+2)^3"], 2,
                         lambda n: Fraction((-1) ** n * franel(n), n * (n - 1))),
    "harmonic_example23": (["n*(n+1)^2", "-(n+1)*(n+2)*(2*n+3)", "(n+2)^2*(n+3)"], 1,
                           lambda n: harmonic(n) / (n * (n + 1))),
    "central_binomial_example27": (["(2*n-1)^4", "-16*(n+1)^4"], 0,
                                   lambda n: Fraction(comb(2 * n, n) ** 4,
                                                      (2 * n - 1) ** 4 * 256 ** n)),
}
for _m in (1, 2, 3):
    CATALOG[f"harmonic_m{_m}"] = (
        [f"(n+1)^{_m}", f"-(n+1)^{_m}-(n+2)^{_m}", f"(n+2)^{_m}"], 0,
        lambda n, m=_m: harmonic(n, m))


def conjugate(texts, r: Fraction) -> list:
    """Coefficient texts of the operator annihilating F(n) r^n, scaled to
    integers: a_i is multiplied by num^(J-i) den^i."""
    j_ord = len(texts) - 1
    out = []
    for i, t in enumerate(texts):
        c = r.numerator ** (j_ord - i) * r.denominator ** i
        out.append(f"{c}*({t})")
    return out


def hypergeometric_ratio(d: int):
    """Texts and closed form for (n+1)(n+d) - (n+2)(n+1) S."""
    return [f"(n+1)*(n+{d})", "-(n+2)*(n+1)"], 0, _ratio_product(d)


def operator_text(texts) -> str:
    parts = []
    for i, t in enumerate(texts):
        if i == 0:
            parts.append(f"({t})")
        elif i == 1:
            parts.append(f"({t})*S")
        else:
            parts.append(f"({t})*S^{i}")
    return " + ".join(parts)


# -- checks -------------------------------------------------------------------


class CheckFailed(AssertionError):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def check_profile(oracle: OperatorOracle, prof, bounds, d_l_bound=12):
    """Check a degree profile and summability bounds against the operator
    evaluated pointwise.  L*(n^s) is recovered by interpolation; deg L is
    the largest deg L*(n^s) - s over J + 2 consecutive s (f has at most J
    roots), its coefficient at n^(deg L + s) must equal f(s), and s lies in
    R_L exactly when that coefficient vanishes."""
    polys = oracle.coeff_polys(d_l_bound)
    d_l = max(degree(p) for p in polys)
    require(prof.d_l == d_l, f"d_L {prof.d_l} != {d_l}")
    f = trim(prof.f_poly.coeffs)
    r_l = set(prof.r_l)
    top = oracle.order + 2 + max(r_l, default=0)
    images = [oracle.adjoint_monomial(s, d_l) for s in range(top + 1)]
    deg_l = max(degree(img) - s for s, img in enumerate(images[:oracle.order + 2])
                if img)
    require(prof.deg_l == deg_l, f"deg L {prof.deg_l} != {deg_l}")
    for s, img in enumerate(images):
        lead = img[deg_l + s] if 0 <= deg_l + s < len(img) else Fraction(0)
        require(lead == horner(f, s), f"coefficient of n^(degL+{s}) != f({s})")
        require((s in r_l) == (lead == 0), f"R_L membership of {s}")
    require(r_l == nonneg_integer_roots(f), "R_L != nonnegative integer roots of f")
    c_l = next(s for s, img in enumerate(images) if img)
    require(prof.c_l == c_l, f"C_L {prof.c_l} != {c_l}")
    require(bounds.upper == deg_l + c_l, "upper != deg L + C_L")
    require(trim(bounds.witness.coeffs) == images[c_l], "witness != L*(n^C_L)")
    require(bounds.lower == (bounds.upper if bounds.lower_valid else None),
            "lower bound inconsistent with lower_valid")
    return deg_l, d_l


def check_reduction(oracle: OperatorOracle, p_coeffs, remainder, multiplier,
                    certificate, deg_l=None, d_l=None):
    """p = L*(multiplier) + remainder as polynomials (checked at more
    points than any degree involved), the certificate matches its
    defining sum, and every kept monomial of degree >= deg L sits at a
    degree the adjoint cannot reach: L*(n^(k - deg L)) drops degree."""
    r = trim(remainder)
    x = trim(multiplier)
    if d_l is None:
        d_l = max(degree(q) for q in oracle.coeff_polys())
    top = max(degree(trim(p_coeffs)), degree(r), d_l + max(degree(x), 0)) + 2

    def xf(t):
        return horner(x, t)

    for m in range(top):
        require(horner(p_coeffs, m) == oracle.adjoint_at(xf, m) + horner(r, m),
                f"p != L*(x) + r at n = {m}")
        for i, u in enumerate(certificate):
            require(horner(trim(u), m) == oracle.cert_at(xf, i, m),
                    f"certificate u{i} wrong at n = {m}")
    if deg_l is None:
        images = [oracle.adjoint_monomial(s, d_l) for s in range(oracle.order + 2)]
        deg_l = max(degree(img) - s for s, img in enumerate(images) if img)
    for k, c in enumerate(r):
        if c and k >= deg_l:
            s = k - deg_l
            img = oracle.adjoint_monomial(s, d_l)
            require(degree(img) < deg_l + s,
                    f"kept monomial n^{k} is reducible (s = {s})")
    return deg_l


def check_telescoping(oracle: OperatorOracle, seq, x_coeffs, certificate, start,
                      window=8):
    """L*(x)(n) F(n) = Delta(-sum_i u_i(n) F(n+i)) on [start, start+window)."""
    x = trim(x_coeffs)

    def boundary(m):
        return sum((horner(trim(u), m) * seq(m + i) for i, u in enumerate(certificate)),
                   Fraction(0))

    for m in range(start, start + window):
        lhs = oracle.adjoint_at(lambda t: horner(x, t), m) * seq(m)
        require(lhs == boundary(m) - boundary(m + 1), f"certificate does not telescope at {m}")


def shift_product_at(factor_text, direction, order, base_shift, m) -> Fraction:
    v = Fraction(1)
    for j in range(1, order + 1):
        v *= eval_poly_text(factor_text, m + base_shift + direction * j)
    return v


def check_annihilates(oracle: OperatorOracle, terms, first):
    """L(F)(m) = 0 for every m from `first` on that `terms` reaches."""
    for m in range(first, len(terms) - oracle.order):
        require(oracle.apply_at(lambda t: terms[t], m) == 0,
                f"guessed operator fails at {m}")


# -- fixtures -----------------------------------------------------------------


def read_fixture(path) -> dict:
    """key = value fields of a fixture file, read without holoreduce."""
    fields = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
    return fields


def pi_target(text, bits=384):
    """mpmath value, at `bits` of precision, of a target 'r0 + r1/pi'."""
    import mpmath

    m = re.fullmatch(r"(.*?)\s*([+-])\s*(\d+(?:/\d+)?)/pi", text.strip())
    r0 = Fraction(m.group(1) or "0")
    r1 = Fraction(m.group(3)) * (1 if m.group(2) == "+" else -1)
    with mpmath.workprec(bits):
        return (mpmath.mpf(r0.numerator) / r0.denominator
                + mpmath.mpf(r1.numerator) / r1.denominator / mpmath.pi)


def residue(q: Fraction, modulus: int) -> int:
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def congruence_residues(fields, primes, domb) -> dict:
    """{p: (sum_{n=start}^{p-1} numer(n)/denom(n) Domb(n)/16^n mod p^2,
    target mod p^2)} for a Domb/16^n congruence fixture's fields, with
    Domb numbers taken from `domb`."""
    target = Fraction(fields["target"][: -len("mod p^2")].strip())
    start = int(fields.get("start", "0"))
    out = {}
    for p in primes:
        mod = p * p
        acc = 0
        for n in range(start, p):
            term = (eval_poly_text(fields["numer"], n) / eval_poly_text(fields["denom"], n)
                    * Fraction(domb[n], 16 ** n))
            acc = (acc + residue(term, mod)) % mod
        out[p] = (acc, residue(target, mod))
    return out
