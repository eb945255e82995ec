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
from math import isfinite

from .errors import NegativeShiftPower, ParseError, ZeroOperator
from .polynomials import Polynomial, RationalFunction, poly_gcd
from .operators import ShiftOperator

SCHEMA = "holoreduce-v1"

_MAX_DEGREE = 600
_MAX_SHIFT = 512
_MAX_EXPONENT = 4096
_MAX_NESTING = 128

_ZERO = Polynomial()
_ONE = Polynomial.constant(1)
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


def parse_decimal(text: str) -> float:
    """A finite float >= 0 in ASCII digits, point and exponent optional, blanks
    around; float's "inf", "nan", signs and "_" raise ValueError."""
    if not _DECIMAL.fullmatch(text) or not isfinite(float(text)):
        raise ValueError(f"bad decimal {text.strip()!r}")
    return float(text)


# a token is a run of ASCII digits (str.isdigit takes superscripts too) or
# one other character; \s skips exactly the blanks str.isspace takes
_TOKEN = re.compile(r"[0-9]+|\S")
_KIND = {"n": "var", "S": "shift", **{c: c for c in "+-*/^()"}}


def _tokenize(text: str):
    if len(text) > 4096:
        raise ParseError("input too long", 4096)
    tokens = []
    for match in _TOKEN.finditer(text):
        tok = match[0]
        if tok in _KIND:
            tokens.append((_KIND[tok], tok, match.start()))
        elif tok[0] in "0123456789":
            tokens.append(("int", int(tok), match.start()))
        else:
            raise ParseError(
                f"unexpected character {tok!r}", match.start(),
                expected={"integer", "n", "S", "operator", "parenthesis"},
            )
    tokens.append(("end", None, len(text)))
    return tokens


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
            mine = {k: _product(v, other.den) for k, v in mine.items()}
            theirs = {k: _product(v, den) for k, v in theirs.items()}
            den = _product(den, other.den)
        parts = dict(mine)
        for k, v in theirs.items():
            parts[k] = parts[k] + v if k in parts else v
        return _Value({k: v for k, v in parts.items() if v}, den)

    def neg(self):
        return _Value({k: -v for k, v in self.parts.items()}, self.den)

    def mul(self, other, pos):
        _check_degree(pos, lambda x, y: max(x) + max(y), self, other)
        parts = {}
        for i, a in self.parts.items():
            for j, b in other.parts.items():
                if i + j > _MAX_SHIFT:
                    raise ParseError("shift power limit exceeded", pos)
                ab = _product(a, b)
                parts[i + j] = parts[i + j] + ab if i + j in parts else ab
        return _Value({k: v for k, v in parts.items() if v},
                      _product(self.den, other.den))

    def div(self, other, pos):
        if any(k > 0 for k in other.parts):
            raise NegativeShiftPower("cannot divide by the shift symbol S")
        if not other.parts:
            raise ParseError("division by zero", pos)
        if other.den is not _ONE or other.parts[0].degree > 0:
            # the numerators times other.den, den times other's numerator
            _check_degree(pos, lambda x, y: max(x[0] + y[1], x[1] + y[0]),
                          self, other)
        num = other.parts[0]
        parts = {k: _product(v, other.den) for k, v in self.parts.items()}
        if num.degree > 0:
            return _Value(parts, _product(self.den, num))
        scale = 1 / num.leading_coefficient  # a scalar: no Polynomial for 1/c
        return _Value({k: v * scale for k, v in parts.items()}, self.den)

    def pow(self, e, pos):
        if e > _MAX_EXPONENT:
            raise ParseError("exponent too large", pos)
        if (max(self.degrees()) * e > _MAX_DEGREE
                and max(self.degrees(True)) * e > _MAX_DEGREE):
            raise ParseError("degree limit exceeded", pos)
        if len(self.parts) == 1:  # one S-power: no cross terms
            [(k, v)] = self.parts.items()
            if k * e > _MAX_SHIFT:
                raise ParseError("shift power limit exceeded", pos)
            return _Value({k * e: v ** e}, self.den if self.den is _ONE else self.den ** e)
        result = _Value({0: _ONE})
        base = self
        while e:
            if e & 1:
                result = result.mul(base, pos)
            base = base.mul(base, pos) if e > 1 else base
            e >>= 1
        return result


def _check_degree(pos, degree, a, b) -> None:
    """Raise "degree limit exceeded" at ``pos`` when ``degree``, a bound
    on the degree of what an operation builds from the (numerator,
    denominator) degrees of its operands a and b, breaks the limit with
    them as stored and again with them reduced."""
    if (degree(a.degrees(), b.degrees()) > _MAX_DEGREE
            and degree(a.degrees(True), b.degrees(True)) > _MAX_DEGREE):
        raise ParseError("degree limit exceeded", pos)


def _product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, skipping a factor that is the constant ``_ONE``."""
    return b if a is _ONE else a if b is _ONE else a * b


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0  # parentheses open around the current token

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse(self) -> _Value:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected token", pos, expected={"end of input", "operator"})
        return value

    def expr(self) -> _Value:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            value = value.add(rhs if op == "+" else rhs.neg(), pos)
        return value

    def term(self) -> _Value:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.factor()
            value = value.mul(rhs, pos) if op == "*" else value.div(rhs, pos)
        return value

    def factor(self) -> _Value:
        negate = False
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                negate = not negate
        value = self.power()
        return value.neg() if negate else value

    def power(self) -> _Value:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, caret_pos = self.advance()
        kind, val, pos = self.advance()
        if kind == "-":
            if any(k > 0 for k in base.parts):
                raise NegativeShiftPower("S requires a nonnegative exponent")
            raise ParseError("exponent must be a nonnegative integer", pos,
                             expected={"integer"})
        if kind != "int":
            raise ParseError("expected an integer exponent", pos,
                             expected={"integer"})
        return base.pow(val, caret_pos)

    def atom(self) -> _Value:
        kind, val, pos = self.advance()
        if kind == "int":
            return _Value({0: Polynomial.constant(val)} if val else {})
        if kind == "var":
            return _Value({0: Polynomial.variable()})
        if kind == "shift":
            return _Value({1: _ONE})
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("nesting too deep", pos)
            value = self.expr()
            closing, _, cpos = self.advance()
            if closing != ")":
                raise ParseError("expected ')'", cpos, expected={")"})
            self.depth -= 1
            return value
        raise ParseError("expected a value", pos,
                         expected={"integer", "n", "S", "("})


def _polynomial(num: Polynomial, den: Polynomial, message: str) -> Polynomial:
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
        f = Fraction(value)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    raise TypeError(f"cannot print {type(value).__name__}")


def _fraction_latex(f: Fraction) -> str:
    sign = "-" if f < 0 else ""
    f = abs(f)
    if f.denominator == 1:
        return f"{sign}{f.numerator}"
    return f"{sign}\\frac{{{f.numerator}}}{{{f.denominator}}}"


def _poly_terms_latex(p: Polynomial) -> str:
    """Ascending-power rendering of an integer-primitive polynomial."""
    parts = []
    for k, c in enumerate(p.coeffs):
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
    inner = _poly_terms_latex(prim)
    if content == 1:
        return inner
    if content == -1:
        return f"-\\left({inner}\\right)"
    return f"{_fraction_latex(content)} \\left({inner}\\right)"


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
        return _fraction_latex(Fraction(value))
    raise TypeError(f"cannot print {type(value).__name__}")


def _fraction_body(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _body(value) -> dict:
    if isinstance(value, Polynomial):
        return {
            "kind": "polynomial",
            "coefficients": [_fraction_body(c) for c in value.coeffs],
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
        return {"kind": "rational", **_fraction_body(Fraction(value))}
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
