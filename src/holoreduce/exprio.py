"""Text grammar for polynomials, rational functions and shift operators,
plus canonical text / LaTeX / structured printers.

Grammar tokens: the variable ``n``, the shift symbol ``S``, integer
literals, ``+ - * / ^`` and parentheses.  ``^`` binds tighter than ``*``
and ``/``, which bind tighter than ``+`` and ``-``; juxtaposition is not
multiplication.  ``S`` only carries nonnegative integer exponents, and
``/`` only divides by shift-free values.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, isfinite

from .errors import NegativeShiftPower, ParseError, ZeroOperator
from .polynomials import Polynomial, RationalFunction, _poly, _reduced, _signed_sum, poly_gcd
from .operators import ShiftOperator

SCHEMA = "holoreduce-v1"

_MAX_DEGREE = 600
_MAX_SHIFT = 512
_MAX_EXPONENT = 4096
_MAX_NESTING = 128
_MAX_BITS = 1 << 20

_ZERO = Polynomial()
_ONE = Polynomial.constant(1)
_N = Polynomial.variable()
_NUMBER = re.compile(r"\s*([+-]?[0-9]+(/[0-9]+)?)\s*")
_DECIMAL = re.compile(r"\s*([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")


def parse_number(text: str, what: str = "integer", where: str = ""):
    """The int, or for ``what`` "rational" the Fraction a or a/b, written in
    ASCII digits with an optional sign and blanks around it: the tokenizer's
    rule, where ``int`` and ``Fraction`` read any Unicode digit.  Anything
    else raises ValueError("bad <what> <text><where>")."""
    match = _NUMBER.fullmatch(text)
    if not match or (match[2] and what != "rational"):
        raise ValueError(f"bad {what} {text.strip()!r}{where}")
    return Fraction(match[1]) if what == "rational" else int(match[1])


def numbered_lines(path):
    """(line number, text) for each line of the UTF-8 file ``path`` that is
    not blank once a '#' comment is cut off, the text stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if line := raw.split("#", 1)[0].strip():
                yield lineno, line


def parse_decimal(text: str) -> float:
    """A finite float >= 0 in ASCII digits, point and exponent optional, blanks
    around; float's "inf", "nan", signs and "_" raise ValueError."""
    if not _DECIMAL.fullmatch(text) or not isfinite(float(text)):
        raise ValueError(f"bad decimal {text.strip()!r}")
    return float(text)


# a token is a run of ASCII digits (str.isdigit takes superscripts too) or
# one other character; \s skips exactly the blanks str.isspace takes
_TOKEN = re.compile(r"([0-9]+)|(\S)")
_STRAY = re.compile(r"[^\s0-9nS+*/^()-]")
_KIND = {"n": "var", "S": "shift", **{c: c for c in "+-*/^()"}}


def _tokenize(text: str):
    if len(text) > 4096:
        raise ParseError("input too long", 4096)
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray[0]!r}", stray.start(),
                         expected={"integer", "n", "S", "operator", "parenthesis"})
    return [("int", int(k), m.start()) if k else (_KIND[c], c, m.start())
            for m in _TOKEN.finditer(text) for k, c in (m.groups(),)] + [("end", None, len(text))]


class _Value:
    """Sum over k of ``parts[k] / den * S^k``: nonzero polynomial numerators
    over one shared denominator, which stays the object ``_ONE`` (and is
    never multiplied) until a division by a non-constant.

    Nothing is reduced while parsing; the ``parse_*`` functions divide out
    each S-power's gcd once, at the end.  The degree limit still means the
    degree of the reduced value, so an operand whose unreduced degree
    breaks it is reduced before the limit is decided.
    """

    __slots__ = ("parts", "den")

    def __init__(self, parts, den=_ONE):
        self.parts = parts
        self.den = den

    def constant(self):
        """(a, b) when the value is the nonzero constant a/b over ``_ONE``."""
        c = self.parts.get(0)
        if c is not None and len(c._num) == 1 and len(self.parts) == 1 and self.den is _ONE:
            return c._num[0], c._den
        return None

    def scaled(self, a: int, b: int):
        """The value times a/b for nonzero ints: each numerator row times a
        over its denominator times b, so no degree grows."""
        return _Value({k: _reduced([x * a for x in v._num], v._den * b)
                       for k, v in self.parts.items()}, self.den)

    def degrees(self, reduce=False) -> tuple:
        """(numerator degree, denominator degree), each the largest over
        the S-powers: as stored, or with ``reduce`` the degrees the limit
        measures, with each S-power's coefficient in lowest terms.
        Reducing also divides the factor all coefficients share with
        ``den`` out."""
        den_deg = self.den.degree
        if not reduce or den_deg == 0:
            return max([v.degree for v in self.parts.values()], default=0), den_deg
        num_deg = den_deg = 0
        common = self.den
        for v in self.parts.values():
            g = poly_gcd(v, self.den)
            num_deg = max(num_deg, v.degree - g.degree)
            den_deg = max(den_deg, self.den.degree - g.degree)
            common = poly_gcd(common, g)
        if common.degree > 0:
            self.parts = {k: v.exact_div(common) for k, v in self.parts.items()}
            self.den = self.den.exact_div(common)
        return num_deg, den_deg

    def add(self, other, pos):
        if self.den is not other.den and self.den != other.den:
            # numerators times the other den; the check may reduce both
            _check_degree(pos, lambda x, y: max(x[0] + y[1], y[0] + x[1], x[1] + y[1]),
                          self, other)
        mine, theirs, den = self.parts, other.parts, self.den
        if den is not other.den and den != other.den:
            mine = {k: v * other.den for k, v in mine.items()}
            theirs = {k: v * den for k, v in theirs.items()}
            den = den * other.den
        total = _sum([(1, mine), (1, theirs)], den)
        _check_degree(pos, lambda x, _: max(x), total)  # no operand bounds a sum over one den
        return total

    def neg(self):
        return _Value({k: -v for k, v in self.parts.items()}, self.den)

    def mul(self, other, pos):
        """The product; ``term`` scales by constants itself."""
        _check_degree(pos, lambda x, y: max(x) + max(y), self, other)
        parts = {}
        for i, a in self.parts.items():
            for j, b in other.parts.items():
                if i + j > _MAX_SHIFT:
                    raise ParseError("shift power limit exceeded", pos)
                parts[i + j] = parts[i + j] + a * b if i + j in parts else a * b
        return _Value({k: v for k, v in parts.items() if v}, self.den * other.den)

    def div(self, other, pos):
        if any(k > 0 for k in other.parts):
            raise NegativeShiftPower("cannot divide by the shift symbol S")
        if not other.parts:
            raise ParseError("division by zero", pos)
        # the numerators times other.den, den times other's numerator
        _check_degree(pos, lambda x, y: max(x[0] + y[1], x[1] + y[0]), self, other)
        num = other.parts[0]
        parts = {k: v * other.den for k, v in self.parts.items()}
        if num.degree > 0:
            return _Value(parts, self.den * num)
        return _Value(parts, self.den).scaled(num._den, num._num[0])

    def pow(self, e, pos):
        if e > _MAX_EXPONENT:
            raise ParseError("exponent too large", pos)
        if self.parts.get(0) is _N and len(self.parts) == 1 and self.den is _ONE:
            if e > _MAX_DEGREE:  # the bare n: the general checks' result, at less cost
                raise ParseError("degree limit exceeded", pos)
            return _Value({0: _poly((0,) * e + (1,))})
        _check_degree(pos, lambda x, _: max(x) * e, self)
        if e * max(x.bit_length() for v in (self.den, *self.parts.values())
                   for x in (v._den, *v._num)) > _MAX_BITS:
            raise ParseError("bit size limit exceeded", pos)
        if len(self.parts) == 1:  # one S-power: no cross terms
            [(k, v)] = self.parts.items()
            if k * e > _MAX_SHIFT:
                raise ParseError("shift power limit exceeded", pos)
            return _Value({k * e: v ** e}, self.den if self.den is _ONE else self.den ** e)
        if not e:
            return _Value({0: _ONE})
        # right to left: left to right would check other products, and
        # the reduced degree of a power is not linear in its exponent
        result, base = None, self
        while True:
            if e & 1:  # a copy first: squaring may reduce base in place
                result = result.mul(base, pos) if result else _Value(base.parts, base.den)
            e >>= 1
            if not e:
                return result
            base = base.mul(base, pos)


def _sum(terms, den) -> _Value:
    """The sum of sign * parts over the (sign, parts) pairs ``terms``, all
    over ``den``: one ``_signed_sum`` per S-power."""
    rows = {}
    for sign, parts in terms:
        for k, v in parts.items():
            rows.setdefault(k, []).append((sign, v))
    return _Value({k: v for k, t in rows.items() if (v := _signed_sum(t))}, den)


def _check_degree(pos, degree, a, b=None) -> None:
    """Raise "degree limit exceeded" at ``pos`` when ``degree``, a bound
    on the degree of what an operation builds from the (numerator,
    denominator) degrees of its operands a and b (None for one value),
    breaks the limit with them as stored and again with them reduced."""
    if (degree(a.degrees(), b and b.degrees()) > _MAX_DEGREE
            and degree(a.degrees(True), b and b.degrees(True)) > _MAX_DEGREE):
        raise ParseError("degree limit exceeded", pos)


class _Parser:
    """Recursive descent over the token list, read by index."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0  # parentheses open around the current token

    def parse(self) -> _Value:
        value = self.expr()
        kind, _, pos = self.tokens[self.idx]
        if kind != "end":
            raise ParseError("unexpected token", pos, expected={"end of input", "operator"})
        return value

    def expr(self) -> _Value:
        """A ``+``/``-`` chain.  Operands over ``_ONE`` wait in ``terms`` for one
        ``_sum``; one over another denominator flushes them, then ``_Value.add``."""
        value = self.term()
        if self.tokens[self.idx][0] not in ("+", "-"):
            return value
        terms = [(1, value.parts)]
        while (tok := self.tokens[self.idx])[0] in ("+", "-"):
            self.idx += 1
            rhs = self.term()
            if value.den is _ONE and rhs.den is _ONE:
                terms.append((1 if tok[0] == "+" else -1, rhs.parts))
            else:
                value = _sum(terms, value.den).add(rhs if tok[0] == "+" else rhs.neg(), tok[2])
                terms = [(1, value.parts)]
        return _sum(terms, value.den)

    def term(self) -> _Value:
        """A ``*``/``/`` chain.  Nonzero constant factors gather into one
        ratio a/b, applied by one ``scaled`` at the end, which changes no
        degree a check reads; ``value`` is None while every factor was one."""
        value = self.factor()
        if self.tokens[self.idx][0] not in ("*", "/"):
            return value
        a = b = 1
        if c := value.constant():
            (a, b), value = c, None
        while (tok := self.tokens[self.idx])[0] in ("*", "/"):
            self.idx += 1
            rhs = self.factor()
            if c := rhs.constant():
                a, b = (a * c[0], b * c[1]) if tok[0] == "*" else (a * c[1], b * c[0])
                a, b = a // (g := gcd(a, b)), b // g  # so a cancelling chain stays small
            elif tok[0] == "*":
                value = rhs if value is None else value.mul(rhs, tok[2])
            else:
                value = (_Value({0: _ONE}) if value is None else value).div(rhs, tok[2])
        if value is None:
            return _Value({0: _reduced([a], b)})
        return value if a == b else value.scaled(a, b)

    def factor(self) -> _Value:
        """Signs, an atom and an optional ``^`` with its exponent."""
        tokens = self.tokens
        negate = False
        kind, val, pos = tokens[self.idx]
        while kind in ("+", "-"):
            negate ^= kind == "-"
            self.idx += 1
            kind, val, pos = tokens[self.idx]
        self.idx += 1
        if kind == "int":
            value = _Value({0: _poly((val,))} if val else {})
        elif kind == "var":
            value = _Value({0: _N})
        elif kind == "shift":
            value = _Value({1: _ONE})
        elif kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("nesting too deep", pos)
            value = self.expr()
            if tokens[self.idx][0] != ")":
                raise ParseError("expected ')'", tokens[self.idx][2], expected={")"})
            self.idx += 1
            self.depth -= 1
        else:
            raise ParseError("expected a value", pos,
                             expected={"integer", "n", "S", "("})
        if tokens[self.idx][0] == "^":
            kind, val, pos = tokens[self.idx + 1]
            if kind == "-":
                if any(k > 0 for k in value.parts):
                    raise NegativeShiftPower("S requires a nonnegative exponent")
                raise ParseError("exponent must be a nonnegative integer", pos,
                                 expected={"integer"})
            if kind != "int":
                raise ParseError("expected an integer exponent", pos,
                                 expected={"integer"})
            value = value.pow(val, tokens[self.idx][2])
            self.idx += 2
        return value.neg() if negate else value


def _polynomial(num: Polynomial, den: Polynomial, message: str) -> Polynomial:
    if den is _ONE:
        return num
    quo, rem = divmod(num, den)
    if rem:
        raise ParseError(message, 0)
    return quo


def parse_polynomial(text: str) -> Polynomial:
    value = _Parser(text).parse()
    if any(k > 0 for k in value.parts):
        raise ParseError("the shift symbol S is not allowed in a polynomial",
                         text.index("S"))
    return _polynomial(value.parts.get(0, _ZERO), value.den,
                       "expression is a rational function, not a polynomial")


def parse_rational_function(text: str) -> RationalFunction:
    value = _Parser(text).parse()
    if any(k > 0 for k in value.parts):
        raise ParseError("the shift symbol S is not allowed here",
                         text.index("S"))
    return RationalFunction(value.parts.get(0, _ZERO), value.den)


def parse_operator(text: str) -> ShiftOperator:
    value = _Parser(text).parse()
    if not value.parts:
        raise ZeroOperator("parsed operator is zero")
    return ShiftOperator([
        _polynomial(value.parts.get(i, _ZERO), value.den,
                    f"coefficient of S^{i} is not a polynomial")
        for i in range(max(value.parts) + 1)
    ])


# -- printers ---------------------------------------------------------------


def to_text(value) -> str:
    if isinstance(value, (Polynomial, RationalFunction, ShiftOperator)):
        return value.text()
    if isinstance(value, (int, Fraction)):
        a, b = value.numerator, value.denominator
        return str(a) if b == 1 else f"{a}/{b}"
    raise TypeError(f"cannot print {type(value).__name__}")


def _ratio_latex(a: int, b: int) -> str:
    """a/b, in lowest terms with b > 0, as LaTeX."""
    sign = "-" if a < 0 else ""
    return f"{sign}{abs(a)}" if b == 1 else f"{sign}\\frac{{{abs(a)}}}{{{b}}}"


def _poly_terms_latex(row) -> str:
    """Ascending-power rendering of the coprime integers ``row``."""
    parts = []
    for k, c in enumerate(row):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "n" if k == 1 else (f"n^{k}" if k < 10 else f"n^{{{k}}}")
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_latex(p: Polynomial) -> str:
    """LaTeX with the rational content factored out of a primitive part."""
    if p.is_zero():
        return "0"
    content, prim = p.rational_content()
    inner = _poly_terms_latex(prim._num)
    if content == 1:
        return inner
    if content == -1:
        return f"-\\left({inner}\\right)"
    return f"{_ratio_latex(content.numerator, content.denominator)} \\left({inner}\\right)"


def to_latex(value) -> str:
    if isinstance(value, Polynomial):
        return poly_latex(value)
    if isinstance(value, RationalFunction):
        if value.is_polynomial():
            return poly_latex(value.numer)
        return f"\\frac{{{poly_latex(value.numer)}}}{{{poly_latex(value.denom)}}}"
    if isinstance(value, ShiftOperator):
        parts = []
        for i, c in enumerate(value.coeffs):
            if c.is_zero():
                continue
            body = poly_latex(c)
            if i == 0:
                parts.append(body)
            else:
                sigma = "\\sigma" if i == 1 else f"\\sigma^{{{i}}}"
                parts.append(f"\\left({body}\\right){sigma}")
        return " + ".join(parts)
    if isinstance(value, (int, Fraction)):
        return _ratio_latex(value.numerator, value.denominator)
    raise TypeError(f"cannot print {type(value).__name__}")


def _ratio_body(a: int, b: int) -> dict:
    """a/b for b > 0, in lowest terms, as strings."""
    g = gcd(a, b)
    return {"num": str(a // g), "den": str(b // g)}


def _body(value) -> dict:
    if isinstance(value, Polynomial):
        return {
            "kind": "polynomial",
            "coefficients": [_ratio_body(c, value._den) for c in value._num],
        }
    if isinstance(value, RationalFunction):
        return {
            "kind": "rational_function",
            "numer": _body(value.numer),
            "denom": _body(value.denom),
        }
    if isinstance(value, ShiftOperator):
        return {
            "kind": "shift_operator",
            "order": value.order,
            "coefficients": [_body(c) for c in value.coeffs],
        }
    if isinstance(value, (int, Fraction)):
        return {"kind": "rational", **_ratio_body(value.numerator, value.denominator)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_structured(value) -> dict:
    return {"schema": SCHEMA, **_body(value)}


def print_value(value, fmt: str = "text") -> str:
    if fmt == "text":
        return to_text(value)
    if fmt == "latex":
        return to_latex(value)
    if fmt == "structured":
        return json.dumps(to_structured(value), sort_keys=True)
    raise ValueError(f"unknown format {fmt!r}")
