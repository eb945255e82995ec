import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoreduce import (
    Polynomial,
    RationalFunction,
    ShiftOperator,
    parse_operator,
    parse_polynomial,
    parse_rational_function,
    print_value,
    to_latex,
    to_structured,
    to_text,
)
from holoreduce.errors import NegativeShiftPower, ParseError, ZeroOperator
from holoreduce.exprio import (_MAX_DEGREE, _MAX_EXPONENT, _MAX_NESTING, _MAX_SHIFT,
                               _tokenize, parse_number)
from holoreduce.polynomials import poly_gcd
from holoreduce.sequences import DOMB_16N_OPERATOR, DOMB_NEG32N_OPERATOR

from conftest import N, rand_fraction, rand_polynomial


def assert_parse_error(parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


class TestParsePolynomial:
    def test_expanded_power(self):
        assert parse_polynomial("(2*n-1)^4") == Polynomial([1, -8, 24, -32, 16])

    def test_zero(self):
        assert parse_polynomial("0") == Polynomial()

    def test_linear_summand_factor(self):
        assert parse_polynomial("3*n+1") == 3 * N + 1

    def test_rational_coefficients(self):
        assert parse_polynomial("1/2*n^2 - 3/4") == N**2 / 2 - Fraction(3, 4)

    def test_whitespace_insensitive(self):
        assert parse_polynomial("  ( n + 1 ) ^ 2 ") == (N + 1) ** 2

    def test_precedence(self):
        # ^ binds tighter than *, which binds tighter than +
        assert parse_polynomial("2*n^2+1") == 2 * N**2 + 1
        assert parse_polynomial("-n^2") == -(N**2)

    def test_shift_rejected(self):
        assert_parse_error(parse_polynomial, "n + S", 4)

    def test_non_polynomial_division(self):
        assert_parse_error(parse_polynomial, "1/(n+1)", 0)

    def test_juxtaposition_rejected(self):
        assert_parse_error(parse_polynomial, "2 n", 2)

    def test_error_carries_position(self):
        assert_parse_error(parse_polynomial, "n + $", 4)

    def test_negative_exponent(self):
        assert_parse_error(parse_polynomial, "n^-2", 2)

    def test_ascii_digits_only(self):
        # str.isdigit accepts superscripts and other scripts' digits
        assert_parse_error(parse_polynomial, "n\u00b2 + 1", 1)
        assert_parse_error(parse_polynomial, "n^\u0663", 2)
        assert_parse_error(parse_polynomial, "3\u00b2", 1)
        assert_parse_error(parse_operator, "n\u00b2 - S", 1)
        assert_parse_error(parse_operator, "\uff11*S", 0)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_operator("n\u00b2 - S")


class TestParseOperator:
    def test_neg32_annihilator(self):
        text = "(n+1)^3 + (2*n+3)*(5*n^2+15*n+12)*S + 16*(n+2)^3*S^2"
        assert parse_operator(text) == DOMB_NEG32N_OPERATOR

    def test_difference_operator(self):
        assert parse_operator("S - 1") == ShiftOperator([Polynomial([-1]),
                                                         Polynomial([1])])

    def test_16n_annihilator(self):
        text = "2*(1+n)^3 - (3+2*n)*(12+15*n+5*n^2)*S + 8*(2+n)^3*S^2"
        assert parse_operator(text) == DOMB_16N_OPERATOR

    def test_missing_powers_are_zero(self):
        op = parse_operator("n + n^2*S^3")
        assert op.order == 3
        assert op.coefficient(1).is_zero()
        assert op.coefficient(2).is_zero()

    def test_negative_shift_power(self):
        with pytest.raises(NegativeShiftPower):
            parse_operator("S^-1")
        with pytest.raises(NegativeShiftPower):
            parse_operator("1/S")

    def test_zero_operator(self):
        with pytest.raises(ZeroOperator):
            parse_operator("0")

    def test_rational_function_coefficient_rejected(self):
        assert_parse_error(parse_operator, "1/(n+1)*S", 0)


class TestRoundTrip:
    def test_polynomials(self):
        rng = random.Random(11)
        for _ in range(500):
            p = rand_polynomial(rng, 6, height=30, integer=False)
            text = to_text(p)
            assert parse_polynomial(text) == p
            assert to_text(parse_polynomial(text)) == text

    def test_rational_functions(self):
        rng = random.Random(12)
        for _ in range(500):
            numer = rand_polynomial(rng, 4, height=20, integer=False)
            denom = rand_polynomial(rng, 3, height=20, nonzero=True,
                                    integer=False)
            r = RationalFunction(numer, denom)
            text = to_text(r)
            assert parse_rational_function(text) == r
            assert to_text(parse_rational_function(text)) == text

    def test_operators(self):
        rng = random.Random(13)
        for _ in range(500):
            order = rng.randint(1, 4)
            coeffs = [rand_polynomial(rng, 3, height=20, integer=False)
                      for _ in range(order)]
            coeffs.append(rand_polynomial(rng, 3, height=20, nonzero=True,
                                          integer=False))
            op = ShiftOperator(coeffs)
            text = to_text(op)
            assert parse_operator(text) == op
            assert to_text(parse_operator(text)) == text

    def test_printing_deterministic(self, rng):
        p = rand_polynomial(rng, 5, integer=False)
        assert to_text(p) == to_text(p)
        assert print_value(p, "structured") == print_value(p, "structured")


def _reference_tokenize(text: str):
    """The character-loop tokenizer the one-regex ``_tokenize`` replaced,
    kept verbatim as its oracle."""
    if len(text) > 4096:
        raise ParseError("input too long", 4096)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":  # ASCII only: str.isdigit takes superscripts too
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "n":
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch == "S":
            tokens.append(("shift", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r}", i,
            expected={"integer", "n", "S", "operator", "parenthesis"},
        )
    tokens.append(("end", None, len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return type(err), err.position, str(err), err.expected


class TestTokenizer:
    # the grammar, digits str.isdigit takes but the grammar does not, blanks
    # str.isspace takes beyond ASCII, and stray characters
    ALPHABET = ("0123456789nS+-*/^() " "\u00b2\u0663\uff17"
                "\u00a0\u3000\x1c\u2028\t\n" "xs._\\\u00e9\U0001d7d9")

    @given(text=st.text(alphabet=ALPHABET, max_size=80))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text):
        assert _tokens_or_error(_tokenize, text) == \
            _tokens_or_error(_reference_tokenize, text)

    @pytest.mark.parametrize("text", [
        "1" * 4096, " " * 4096, "1" * 4097, "\u00b2" * 4097, "",
        "12 345\u00a0n\u3000S", "007^12", "3\u0663", "n\x1cS"])
    def test_matches_reference_at_the_edges(self, text):
        assert _tokens_or_error(_tokenize, text) == \
            _tokens_or_error(_reference_tokenize, text)


class TestFuzzTotality:
    ALPHABET = "0123456789nS+-*/^() .x\\"

    def test_no_crashes(self):
        rng = random.Random(99)
        graceful = (ParseError, NegativeShiftPower, ZeroOperator)
        for trial in range(800):
            size = rng.randint(1, 120) if trial % 50 else rng.randint(3000, 4096)
            text = "".join(rng.choice(self.ALPHABET) for _ in range(size))
            for parse in (parse_polynomial, parse_rational_function,
                          parse_operator):
                try:
                    parse(text)
                except graceful as err:
                    if isinstance(err, ParseError):
                        assert isinstance(err.position, int)

    def test_oversized_input(self):
        assert_parse_error(parse_polynomial, "1+" * 4000, 4096)

    def test_pathological_powers_bounded(self):
        assert_parse_error(parse_polynomial, "n^4097", 1)
        assert_parse_error(parse_polynomial, "(n^99)^99", 6)


class TestLimits:
    """The degree limit applies to the reduced value, at the operator's
    token, however the parser stores the value before reducing it."""

    def test_cancelled_factor_does_not_count(self):
        assert parse_polynomial("(n^300+1)/(n^300+1)*n^400") == N**400

    def test_full_cancellation(self):
        assert parse_polynomial("n^600/n^600") == 1

    def test_degree_over_limit(self):
        assert_parse_error(parse_polynomial, "(n+1)^601", 5)
        assert_parse_error(parse_polynomial, "(n+1)^300*(n+2)^301", 9)

    def test_shift_power_over_limit(self):
        assert_parse_error(parse_operator, "S^513", 1)
        assert_parse_error(parse_operator, "S^300*S^300", 5)

    @pytest.mark.parametrize("parse, text, position, message", [
        (parse_operator, "(2*S)^513", 5, "shift power limit exceeded"),
        (parse_operator, "(n*S)^513", 5, "shift power limit exceeded"),
        (parse_polynomial, "(n^2)^301", 5, "degree limit exceeded"),
        # both limits broken: the degree is checked first
        (parse_operator, "(n^2*S)^513", 7, "degree limit exceeded"),
    ])
    def test_limits_of_a_one_shift_power(self, parse, text, position, message):
        # a power of one S-power is built directly, with the limits of
        # repeated squaring checked first, at the same token
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} at position {position}"

    @pytest.mark.parametrize("parse, text, position", [
        # a quotient multiplies the denominators
        (parse_rational_function, "1/(n^300)/(n^301)", 9),
        (parse_operator, "1/((n+1)^600)/((n+1)^600) - S", 13),
        # six divisions would build degree 3600 without the check
        (parse_rational_function, "1" + "/((n+1)^600)" * 6, 13),
        # a sum or difference over two denominators multiplies them, at
        # the position of its + or -
        (parse_polynomial, "1/n^400 + 1/(n+1)^400", 8),
        (parse_rational_function, "n - 1/n^300 - 1/(n+1)^301", 12),
        # and one over a shared denominator that no factor of the sum
        # cancels: the S^0 numerator n^601 + n + 2 is prime to n^300
        (parse_operator, "(n^301 + S*(n+1))/n^300*n^300 + (n+2)/n^300", 30),
    ])
    def test_quotient_and_sum_over_limit(self, parse, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"degree limit exceeded at position {position}"

    def test_quotient_and_sum_at_the_limits(self):
        assert parse_rational_function("1/(n^300)/(n^300)") == \
            RationalFunction(1, N**600)
        # operands are reduced before the limit is decided
        assert parse_polynomial("n^600/n^600 + (n+1)^300/(n+1)^300") == 2
        assert parse_polynomial("(n^400+1)/(n^400+1)/(n^300/n^300)") == 1
        # one shared denominator is not multiplied
        assert parse_rational_function("1/n^400 + 2/n^400") == \
            RationalFunction(3, N**400)

    def test_one_shift_power_at_the_limits(self):
        assert parse_operator("S^512") == ShiftOperator([0] * 512 + [1])
        assert parse_polynomial("(n^2)^300") == N**600
        assert parse_operator("(n^2*S)^256").coeffs[-1] == N**512
        assert parse_operator("(2*S)^0") == parse_operator("1")

    @pytest.mark.parametrize("parse, text, position", [
        # 18 characters for a 268-million-bit integer, stopped at its second ^
        (parse_polynomial, "((2^4096)^4096)^16", 9),
        (parse_polynomial, "(2^4096)^256", 8),
        # the bound reads the base's largest integer, whatever its degree
        (parse_polynomial, "(n+9^4096)^600", 10),
        (parse_rational_function, "(2^4096*(n+1)/(n+1))^600", 20),
        (parse_operator, "(2^4096+S)^300", 10),
    ])
    def test_bit_size_over_limit(self, parse, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"bit size limit exceeded at position {position}"

    def test_bit_size_at_the_limit(self):
        # 255 * 4097 bits is under 2^20
        assert parse_polynomial("(2^4096)^255") == 2 ** (4096 * 255)

    def test_high_power_of_rational_function(self):
        r = parse_rational_function("((n^2+1)/(n+1))^60")
        assert r.numer == (N**2 + 1) ** 60
        assert r.denom == (N + 1) ** 60

    @pytest.mark.parametrize(
        "parse", [parse_operator, parse_polynomial, parse_rational_function])
    def test_nesting_limit(self, parse):
        def nested(depth):
            return "(" * depth + "n" + ")" * depth

        assert parse(nested(128)) == parse("n")
        # sibling groups do not add up
        assert parse(nested(128) + "+" + nested(128)) == parse("2*n")
        assert_parse_error(parse, nested(129), 128)
        assert_parse_error(parse, "1 + " + nested(129), 132)
        # deep enough to exhaust the interpreter's stack without the limit
        assert_parse_error(parse, "(" * 200 + "S" + ")" * 200, 128)


# -- differential test against rational-function arithmetic ----------------
#
# Trees are ("int", k), ("n",), ("S",), ("neg", a), ("^", a, e) and
# (op, a, b) for op in "+-*/".  The oracle evaluates them as
# {S-power: RationalFunction}, reducing after every operation.

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _show(tree, context=0):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind in ("n", "S"):
        return kind
    prec = _PRECEDENCE[kind]
    if kind == "neg":
        text = "-" + _show(tree[1], 4)
    elif kind == "^":
        text = f"{_show(tree[1], 5)}^{tree[2]}"
    else:
        text = f"{_show(tree[1], prec)} {kind} {_show(tree[2], prec + 1)}"
    return f"({text})" if prec < context else text


def _product(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, RationalFunction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _evaluate(tree):
    kind = tree[0]
    if kind == "int":
        return {0: RationalFunction(tree[1])} if tree[1] else {}
    if kind == "n":
        return {0: RationalFunction(N)}
    if kind == "S":
        return {1: RationalFunction(1)}
    a = _evaluate(tree[1])
    if kind == "neg":
        return {k: -v for k, v in a.items()}
    if kind == "^":
        out = {0: RationalFunction(1)}
        for _ in range(tree[2]):
            out = _product(out, a)
        return out
    b = _evaluate(tree[2])
    if kind == "*":
        return _product(a, b)
    if kind == "/":
        if any(k > 0 for k in b):
            raise NegativeShiftPower("divisor contains S")
        if not b:
            raise ParseError("division by zero", 0)
        return {k: v / b[0] for k, v in a.items()}
    sign = 1 if kind == "+" else -1
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, RationalFunction(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def _expected(parse, parts):
    if parse is parse_operator:
        if not parts:
            raise ZeroOperator("zero")
        if not all(v.is_polynomial() for v in parts.values()):
            raise ParseError("rational coefficient", 0)
        return ShiftOperator([parts.get(i, RationalFunction(0)).as_polynomial()
                              for i in range(max(parts) + 1)])
    if any(k > 0 for k in parts):
        raise ParseError("S not allowed", 0)
    value = parts.get(0, RationalFunction(0))
    if parse is parse_rational_function:
        return value
    if not value.is_polynomial():
        raise ParseError("not a polynomial", 0)
    return value.as_polynomial()


def _trees(leaves, divisors=None, max_exponent=3):
    """Expression trees over ``leaves``; with ``divisors``, also quotients
    by a divisor tree or by any tree (which may contain S or be zero)."""
    def extend(kids):
        ops = [
            st.tuples(st.sampled_from("+-*"), kids, kids),
            st.tuples(st.just("neg"), kids),
            st.tuples(st.just("^"), kids, st.integers(0, max_exponent)),
        ]
        if divisors is not None:
            ops.append(st.tuples(st.just("/"), kids, st.one_of(divisors, kids)))
        return st.one_of(*ops)
    return st.recursive(leaves, extend, max_leaves=10)


_SHIFT_FREE = st.one_of(st.tuples(st.just("int"), st.integers(0, 12)),
                        st.just(("n",)))
_EXPRESSIONS = _trees(st.one_of(_SHIFT_FREE, st.just(("S",))),
                      divisors=_trees(_SHIFT_FREE))

# Wider trees: literal quotients a/b as leaves (a division by a constant),
# powers up to 7, and powers of a shift-free tree times one S-power (the
# direct power of a single S-power), so every arithmetic path of the
# parser's values runs against the oracle.
_QUOTIENTS = st.tuples(st.just("/"), st.tuples(st.just("int"), st.integers(0, 40)),
                       st.tuples(st.just("int"), st.integers(1, 12)))
_WIDE_SHIFT_FREE = st.one_of(_SHIFT_FREE, _QUOTIENTS)
_ONE_SHIFT_POWERS = st.tuples(
    st.just("^"),
    st.tuples(st.just("*"), _trees(_WIDE_SHIFT_FREE, max_exponent=7),
              st.one_of(st.just(("S",)),
                        st.tuples(st.just("^"), st.just(("S",)), st.integers(0, 3)))),
    st.integers(0, 7))
_WIDE_EXPRESSIONS = _trees(
    st.one_of(_WIDE_SHIFT_FREE, st.just(("S",)), _ONE_SHIFT_POWERS),
    divisors=_trees(_WIDE_SHIFT_FREE, max_exponent=7), max_exponent=7)


def _size(tree):
    """Upper bounds on the degree and the S-power of the parser's unreduced
    value of ``tree``."""
    kind = tree[0]
    if kind in ("int", "n", "S"):
        return int(kind == "n"), int(kind == "S")
    sizes = [_size(t) for t in tree[1:] if isinstance(t, tuple)]
    if kind == "^":
        return sizes[0][0] * tree[2], sizes[0][1] * tree[2]
    return sum(d for d, _ in sizes), sum(s for _, s in sizes)


def _assert_parsers_match(tree):
    text = _show(tree)
    graceful = (ParseError, NegativeShiftPower, ZeroOperator)
    for parse in (parse_polynomial, parse_rational_function,
                  parse_operator):
        try:
            want = _expected(parse, _evaluate(tree))
        except graceful as err:
            with pytest.raises(type(err)):
                parse(text)
            continue
        got = parse(text)
        assert got == want
        assert to_text(got) == to_text(want)
        assert print_value(got, "latex") == print_value(want, "latex")
        assert print_value(got, "structured") == print_value(want, "structured")


class TestDifferential:
    @given(tree=_EXPRESSIONS)
    @settings(max_examples=300, deadline=None)
    def test_parsers_match_rational_arithmetic(self, tree):
        _assert_parsers_match(tree)

    @given(tree=_WIDE_EXPRESSIONS)
    @settings(max_examples=300, deadline=None)
    def test_wide_trees_match_rational_arithmetic(self, tree):
        # far inside the limits, which the oracle does not know, and small
        # enough for its reduce-after-every-operation arithmetic
        degree, shift = _size(tree)
        assume(degree <= 40 and shift <= 24)
        _assert_parsers_match(tree)


# -- differential test against the parser on generic arithmetic ------------
#
# The parser before it worked on integer rows, kept verbatim as an oracle:
# every value and every error (class, position, message, expected set) of
# the three parse functions must match it.

_REF_ONE = Polynomial.constant(1)


class _ReferenceValue:
    """Sum over k of ``parts[k] / den * S^k`` on generic ``Polynomial``
    arithmetic, with the degree checks on every ``*``, ``/`` and sum over
    two denominators."""

    __slots__ = ("parts", "den")

    def __init__(self, parts, den=_REF_ONE):
        self.parts = parts
        self.den = den

    def degrees(self, reduce=False) -> tuple:
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
            _reference_check_degree(
                pos, lambda x, y: max(x[0] + y[1], y[0] + x[1], x[1] + y[1]), self, other)
        mine, theirs, den = self.parts, other.parts, self.den
        if den is not other.den and den != other.den:
            mine = {k: _reference_product(v, other.den) for k, v in mine.items()}
            theirs = {k: _reference_product(v, den) for k, v in theirs.items()}
            den = _reference_product(den, other.den)
        parts = dict(mine)
        for k, v in theirs.items():
            parts[k] = parts[k] + v if k in parts else v
        total = _ReferenceValue({k: v for k, v in parts.items() if v}, den)
        # over one den the sum's degree has no bound from its operands'
        if (max(total.degrees()) > _MAX_DEGREE
                and max(total.degrees(True)) > _MAX_DEGREE):
            raise ParseError("degree limit exceeded", pos)
        return total

    def neg(self):
        return _ReferenceValue({k: -v for k, v in self.parts.items()}, self.den)

    def mul(self, other, pos):
        _reference_check_degree(pos, lambda x, y: max(x) + max(y), self, other)
        parts = {}
        for i, a in self.parts.items():
            for j, b in other.parts.items():
                if i + j > _MAX_SHIFT:
                    raise ParseError("shift power limit exceeded", pos)
                ab = _reference_product(a, b)
                parts[i + j] = parts[i + j] + ab if i + j in parts else ab
        return _ReferenceValue({k: v for k, v in parts.items() if v},
                               _reference_product(self.den, other.den))

    def div(self, other, pos):
        if any(k > 0 for k in other.parts):
            raise NegativeShiftPower("cannot divide by the shift symbol S")
        if not other.parts:
            raise ParseError("division by zero", pos)
        if other.den is not _REF_ONE or other.parts[0].degree > 0:
            _reference_check_degree(pos, lambda x, y: max(x[0] + y[1], x[1] + y[0]),
                                    self, other)
        num = other.parts[0]
        parts = {k: _reference_product(v, other.den) for k, v in self.parts.items()}
        if num.degree > 0:
            return _ReferenceValue(parts, _reference_product(self.den, num))
        scale = 1 / num.leading_coefficient
        return _ReferenceValue({k: v * scale for k, v in parts.items()}, self.den)

    def pow(self, e, pos):
        if e > _MAX_EXPONENT:
            raise ParseError("exponent too large", pos)
        if (max(self.degrees()) * e > _MAX_DEGREE
                and max(self.degrees(True)) * e > _MAX_DEGREE):
            raise ParseError("degree limit exceeded", pos)
        if len(self.parts) == 1:
            [(k, v)] = self.parts.items()
            if k * e > _MAX_SHIFT:
                raise ParseError("shift power limit exceeded", pos)
            return _ReferenceValue({k * e: v ** e},
                                   self.den if self.den is _REF_ONE else self.den ** e)
        result = _ReferenceValue({0: _REF_ONE})
        base = self
        while e:
            if e & 1:
                result = result.mul(base, pos)
            base = base.mul(base, pos) if e > 1 else base
            e >>= 1
        return result


def _reference_check_degree(pos, degree, a, b) -> None:
    if (degree(a.degrees(), b.degrees()) > _MAX_DEGREE
            and degree(a.degrees(True), b.degrees(True)) > _MAX_DEGREE):
        raise ParseError("degree limit exceeded", pos)


def _reference_product(a, b):
    return b if a is _REF_ONE else a if b is _REF_ONE else a * b


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _reference_tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected token", pos, expected={"end of input", "operator"})
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            value = value.add(rhs if op == "+" else rhs.neg(), pos)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.factor()
            value = value.mul(rhs, pos) if op == "*" else value.div(rhs, pos)
        return value

    def factor(self):
        negate = False
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                negate = not negate
        value = self.power()
        return value.neg() if negate else value

    def power(self):
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

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return _ReferenceValue({0: Polynomial.constant(val)} if val else {})
        if kind == "var":
            return _ReferenceValue({0: Polynomial.variable()})
        if kind == "shift":
            return _ReferenceValue({1: _REF_ONE})
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


def _reference_polynomial(num, den, message):
    quo, rem = divmod(num, den)
    if rem:
        raise ParseError(message, 0)
    return quo


def _reference_parse(kind, text):
    """``parse_polynomial``, ``parse_rational_function`` or
    ``parse_operator`` (for ``kind`` "polynomial", "rational" or
    "operator") on the reference parser."""
    value = _ReferenceParser(text).parse()
    if kind == "operator":
        if not value.parts:
            raise ZeroOperator("parsed operator is zero")
        return ShiftOperator([
            _reference_polynomial(value.parts.get(i, Polynomial()), value.den,
                                  f"coefficient of S^{i} is not a polynomial")
            for i in range(max(value.parts) + 1)])
    if any(k > 0 for k in value.parts):
        where = "in a polynomial" if kind == "polynomial" else "here"
        raise ParseError(f"the shift symbol S is not allowed {where}", text.index("S"))
    num = value.parts.get(0, Polynomial())
    if kind == "rational":
        return RationalFunction(num, value.den)
    return _reference_polynomial(
        num, value.den, "expression is a rational function, not a polynomial")


_PARSERS = {"polynomial": parse_polynomial, "rational": parse_rational_function,
            "operator": parse_operator}


def _outcome(parse, *args):
    """The parsed value and its text, or the error's class, position,
    message and expected set."""
    try:
        value = parse(*args)
    except (ParseError, NegativeShiftPower, ZeroOperator) as err:
        return (type(err), getattr(err, "position", None), str(err),
                getattr(err, "expected", None))
    return value, to_text(value)


def _assert_matches_reference(text):
    for kind, parse in _PARSERS.items():
        assert _outcome(parse, text) == _outcome(_reference_parse, kind, text), kind


# Token soups: the grammar's tokens and one stray character in any order,
# separated by blanks so that digits never merge.  Literals stay at most 12
# and there are at most three carets, so no soup builds a constant power
# the reference would take long over.
_SOUP_TOKENS = [str(k) for k in range(13)] + list("nS+-*/^()x")


class TestAgainstReference:
    @given(tokens=st.lists(st.sampled_from(_SOUP_TOKENS), max_size=30))
    @settings(max_examples=500, deadline=None)
    def test_token_soups(self, tokens):
        assume(tokens.count("^") <= 3)
        _assert_matches_reference(" ".join(tokens))

    @given(tree=_EXPRESSIONS)
    @settings(max_examples=200, deadline=None)
    def test_trees(self, tree):
        _assert_matches_reference(_show(tree))

    @given(tree=_WIDE_EXPRESSIONS)
    @settings(max_examples=200, deadline=None)
    def test_wide_trees(self, tree):
        degree, shift = _size(tree)
        assume(degree <= 40 and shift <= 24)
        _assert_matches_reference(_show(tree))

    @pytest.mark.parametrize("text", [
        "1/(n^300)/(n^301)", "(n^300+1)/(n^300+1)*n^400", "n^600/n^600",
        "1/n^400 + 1/(n+1)^400", "(n^2*S)^513", "(2*S)^513", "n^4097",
        "(" * 129 + "n" + ")" * 129, "S^-1", "n^-1", "1/S", "1/0", "",
        "3/4*n^2 - 1/(-5)*n", "(n+1)/2/(-3)*S",
        "(n^301 + S*(n+1))/n^300*n^300 + (n+2)/n^300",
        # powers of several S-powers, up to the shift limit and past it
        *(f"(S + 1)^{e}" for e in (0, 1, 2, 3, 255, 256, 257)),
        *(f"(n*S - 2/n)^{e}" for e in (0, 1, 2, 3)),
        "(S - S)^0", "(S - S)^1", "(S - S)^7",
        "(S^64 + 1)^8", "(S^2 + 1)^256", "(S^64 + 1)^9", "(S^2 + 1)^257"])
    def test_edges(self, text):
        _assert_matches_reference(text)


# Flat chains of 20-60 operands: the parser sums a + / - chain over the
# denominator 1 in one pass and gathers the constant factors of a product
# into one scale.  A chain may hold one power of n at a limit, and S terms
# and operands over n^300 or n + 1, which stand mid-chain, so a pending sum
# is flushed before a checked +; each is drawn per chain, so that most
# chains parse as polynomials, rational functions or operators.
_CHAIN_POWERS = (0, 1, 599, 600, 601, 4096, 4097)


def _chain_operand(x, divisor, with_s):
    """The operand coded by the int x >= 0 (one draw each, which keeps
    60-operand chains cheap to generate): a signed c/d*n^k term, a chain of
    constants such as 2*3/4*n/5, or (when drawn for the chain) a term over
    the divisor or times S."""
    x, kind = divmod(x, 10)
    x, c = divmod(x, 99)
    x, d = divmod(x, 99)
    x, k = divmod(x, 9)
    sign = "-" if x % 2 else ""
    if kind < 4:
        return f"{sign}{c + 1}/{d + 1}*n^{k}"
    if kind < 7:  # up to five factors 1..12 or n, joined by * or /
        text = ""
        for _ in range(c % 5 + 1):
            d, f = divmod(d * 7 + k, 13)
            f = str(f) if f else "n"
            text += ("*" if not text else "/" if f != "n" and d % 2 else "*") + f
        return sign + text[1:]
    if kind < 8 and divisor:
        return f"{sign}{c + 1}*n^{k}/{divisor}"
    if kind < 9 and with_s:
        return f"{sign}{c + 1}*n^{k}*S^{d % 3 + 1}"
    return f"{sign}{c + 1}*n^{k}"


def _chain_factor(x, divisor, with_s):
    """``*`` or ``/`` and the factor coded by the int x >= 0: mostly
    literals (0 rarely, never as a divisor), n and n^k, and (when drawn for
    the chain) S or the divisor."""
    x, kind = divmod(x, 200)
    op = "/" if x % 3 == 2 else "*"
    if kind == 99:
        return "*0"
    if kind < 120:
        return op + str(x % 12 + 1)
    if kind < 185 or not (divisor or with_s):
        return op + (f"n^{x % 4}" if kind % 2 else "n")
    if divisor and (kind < 190 or not with_s):
        return op + divisor
    return "*" + ("S" if kind % 2 else "S^2")


@st.composite
def _flat_chains(draw):
    divisor = draw(st.sampled_from([None, "n^300", "(n+1)"]))
    with_s = draw(st.booleans())
    codes = draw(st.lists(st.integers(0, 2 ** 40), min_size=20, max_size=60))
    if draw(st.booleans()):
        parts = [_chain_factor(x, divisor, with_s) for x in codes]
    else:
        parts = [(" - " if x % 2 else " + ") + _chain_operand(x >> 1, divisor, with_s)
                 for x in codes]
    power = draw(st.none() | st.sampled_from(_CHAIN_POWERS))
    if power is not None:
        at = draw(st.integers(0, len(parts) - 1))
        parts[at] = parts[at][:-len(parts[at].lstrip(" +-*/"))] + f"n^{power}"
    return "".join(parts).lstrip(" +*/")


class TestChainsAgainstReference:
    @given(text=_flat_chains())
    @settings(max_examples=150, deadline=None)
    def test_flat_chains(self, text):
        _assert_matches_reference(text)

    @pytest.mark.parametrize("text", [
        "2*3/4*n/5", "2/n*3", "0*n^601", "3/0*n", "1/2 + n^600 - n^600/n^300",
        "n^599*n - 1 + 2/(n+1) + n^600", "n^4096 + 1", "1 + n^4097", "(n)^601",
        " + ".join(["1/2*n^3"] * 30 + ["1/(n+1)"] + ["-1/2*n^3"] * 30)])
    def test_chain_edges(self, text):
        _assert_matches_reference(text)


class TestPrinters:
    def test_latex_content_factoring(self):
        p = Polynomial([27, 103, 141, 78, 15]) / 9
        latex = to_latex(p)
        assert "15 n^4" in latex
        assert latex.startswith("\\frac{1}{9}")

    def test_latex_zero(self):
        assert to_latex(Polynomial()) == "0"

    def test_latex_negative_content(self):
        latex = to_latex(Polynomial([2, 5, -9, -21, 39]) * Fraction(-1, 9))
        assert "39 n^4" in latex
        assert latex.startswith("-\\frac{1}{9}")

    def test_latex_operator_sigma(self):
        latex = to_latex(DOMB_16N_OPERATOR)
        assert "\\sigma^{2}" in latex

    def test_structured_schema(self):
        blob = print_value(N + 1, "structured")
        data = json.loads(blob)
        assert data["schema"] == "holoreduce-v1"
        assert data["kind"] == "polynomial"
        assert data["coefficients"] == [
            {"num": "1", "den": "1"},
            {"num": "1", "den": "1"},
        ]

    def test_structured_rationals_are_strings(self):
        data = to_structured(Polynomial([Fraction(10**40, 3)]))
        assert data["coefficients"][0]["num"] == str(10**40)
        assert data["coefficients"][0]["den"] == "3"

    def test_operator_text_form(self):
        text = to_text(DOMB_16N_OPERATOR)
        assert "*S^2" in text and "*S " in text


# -- the LaTeX and structured printers against their Fraction forms ---------
#
# The printers before they worked on the integer rows, kept verbatim as the
# oracle.

def _reference_fraction_latex(f: Fraction) -> str:
    sign = "-" if f < 0 else ""
    f = abs(f)
    if f.denominator == 1:
        return f"{sign}{f.numerator}"
    return f"{sign}\\frac{{{f.numerator}}}{{{f.denominator}}}"


def _reference_poly_terms_latex(p: Polynomial) -> str:
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


def _reference_poly_latex(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    content, prim = p.rational_content()
    inner = _reference_poly_terms_latex(prim)
    if content == 1:
        return inner
    if content == -1:
        return f"-\\left({inner}\\right)"
    return f"{_reference_fraction_latex(content)} \\left({inner}\\right)"


def _reference_latex(value) -> str:
    if isinstance(value, Polynomial):
        return _reference_poly_latex(value)
    if isinstance(value, RationalFunction):
        if value.is_polynomial():
            return _reference_poly_latex(value.numer)
        return (f"\\frac{{{_reference_poly_latex(value.numer)}}}"
                f"{{{_reference_poly_latex(value.denom)}}}")
    if isinstance(value, ShiftOperator):
        parts = []
        for i, c in enumerate(value.coeffs):
            if c.is_zero():
                continue
            body = _reference_poly_latex(c)
            if i == 0:
                parts.append(body)
            else:
                sigma = "\\sigma" if i == 1 else f"\\sigma^{{{i}}}"
                parts.append(f"\\left({body}\\right){sigma}")
        return " + ".join(parts)
    return _reference_fraction_latex(Fraction(value))


def _reference_fraction_body(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _reference_body(value) -> dict:
    if isinstance(value, Polynomial):
        return {"kind": "polynomial",
                "coefficients": [_reference_fraction_body(c) for c in value.coeffs]}
    if isinstance(value, RationalFunction):
        return {"kind": "rational_function", "numer": _reference_body(value.numer),
                "denom": _reference_body(value.denom)}
    if isinstance(value, ShiftOperator):
        return {"kind": "shift_operator", "order": value.order,
                "coefficients": [_reference_body(c) for c in value.coeffs]}
    return {"kind": "rational", **_reference_fraction_body(Fraction(value))}


def _reference_fraction_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _reference_text(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = _reference_fraction_text(mag)
        else:
            var = "n" if k == 1 else f"n^{k}"
            body = var if mag == 1 else f"{_reference_fraction_text(mag)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# numerators and denominators small or of 200 digits; zero, constants and
# polynomials up to degree 12, so powers n^{10} and up are braced
_BIG = 10 ** 200
_PRINTED_RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-12, 12), st.integers(-_BIG, _BIG)),
    st.one_of(st.integers(1, 12), st.sampled_from([1, 2, 9]), st.integers(1, _BIG)))
_PRINTED_POLYS = st.lists(st.one_of(st.just(Fraction(0)), _PRINTED_RATIONALS),
                          max_size=13).map(Polynomial)
_NONZERO_POLYS = _PRINTED_POLYS.filter(bool)
_SMALL_POLYS = st.lists(_PRINTED_RATIONALS, max_size=4).map(Polynomial)
_PRINTED_VALUES = st.one_of(
    _PRINTED_POLYS,
    st.builds(RationalFunction, _SMALL_POLYS, _SMALL_POLYS.filter(bool)),
    st.builds(lambda cs, last: ShiftOperator(cs + [last]),
              st.lists(_PRINTED_POLYS, max_size=3), _NONZERO_POLYS),
    _PRINTED_RATIONALS, st.integers(-_BIG, _BIG))


class TestPrintersAgainstReference:
    @given(value=_PRINTED_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_latex_and_structured(self, value):
        assert to_latex(value) == _reference_latex(value)
        assert to_structured(value) == {"schema": "holoreduce-v1", **_reference_body(value)}

    @given(p=_PRINTED_POLYS)
    @settings(max_examples=200, deadline=None)
    def test_text(self, p):
        assert to_text(p) == _reference_text(p)

    @pytest.mark.parametrize("p", [
        Polynomial(), Polynomial([1]), Polynomial([-1]), Polynomial([Fraction(-3, 4)]),
        Polynomial([0, -2, 4]) / 6, Polynomial([_BIG + 1, -_BIG]) / (_BIG - 1),
        Polynomial([1] * 12) * Fraction(-7, 5)])
    def test_edges(self, p):
        for value in (p, RationalFunction(p, N + 2), ShiftOperator([p, N - 1])):
            assert to_latex(value) == _reference_latex(value)
            assert to_structured(value) == {"schema": "holoreduce-v1",
                                            **_reference_body(value)}
        assert to_text(p) == _reference_text(p)

class TestNumberReaders:
    """Numbers outside the expression grammar follow its rule: ASCII digits."""

    @pytest.mark.parametrize("text, value", [
        ("7", 7), (" -12 ", -12), ("+3", 3), ("007", 7)])
    def test_integers(self, text, value):
        assert parse_number(text) == value

    @pytest.mark.parametrize("text", [
        "\u0662", "1\u0663", "\uff17", "1_000", "\u00b2", "1.0", "", "+", "3/1"])
    def test_bad_integers(self, text):
        # int() reads the first four as 2, 13, 7 and 1000
        with pytest.raises(ValueError) as err:
            parse_number(text, "integer", " for start")
        assert str(err.value) == f"bad integer {text.strip()!r} for start"

    @pytest.mark.parametrize("text, value", [
        ("3/2", Fraction(3, 2)), (" -6/4 ", Fraction(-3, 2)), ("5", 5), ("+0", 0)])
    def test_rationals(self, text, value):
        assert parse_number(text, "rational") == value

    @pytest.mark.parametrize("text", [
        "\u0663/\u0662", "3/\u0662", "0.5", "1e3", "3 / 2", "/2", "3/", "inf"])
    def test_bad_rationals(self, text):
        # Fraction() reads the first four
        with pytest.raises(ValueError, match="^bad rational "):
            parse_number(text, "rational")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_number("1/0", "rational")
