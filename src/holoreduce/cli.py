"""Command-line surface for the reduction toolkit.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on usage,
parse or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from .errors import (
    HoloreduceError,
    IrreducibleAtThisI,
    PrecisionLoss,
)
from .exprio import (SCHEMA, _body, parse_decimal, parse_number, parse_operator,
                     parse_polynomial, to_latex, to_text)
from .operators import degree_profile, summable_degree_bounds
from .polynomials import Polynomial
from .reduction import polynomial_reduce, rational_reduce
from .sequences import get_sequence, guess_annihilator, load_terms
from .verify import (
    DEFAULT_WINDOW,
    CongruenceFixture,
    IdentityFixture,
    load_fixture,
    numeric_series_check,
    rederive,
    verify_congruence,
    verify_identity_exact,
)

DEFAULT_PRIMES = "7,13,19,31,37,43"


def _parse_primes(text: str) -> list:
    """The comma-separated integers of ``--primes``: ASCII digits with an
    optional sign; blanks around an item and empty items are skipped."""
    items = [item for item in map(str.strip, text.split(",")) if item]
    return [parse_number(item, "prime", " in --primes") for item in items]


# Option types named for argparse's "invalid int value: ..." message: ASCII
# integers, and a finite tolerance >= 0, so that no PASS or FAIL is vacuous.
_int, _tol = partial(parse_number), partial(parse_decimal)
_int.__name__, _tol.__name__ = "int", "float"


def _render(value, fmt):
    return to_latex(value) if fmt == "latex" else to_text(value)


def _emit(args, lines, structured):
    if args.format == "structured":
        print(json.dumps({"schema": SCHEMA, **structured}, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_classify(args) -> int:
    op = parse_operator(args.operator)
    prof = degree_profile(op)
    bounds = summable_degree_bounds(op)
    rl = "{" + ",".join(str(s) for s in sorted(prof.r_l)) + "}"
    fmt = args.format
    head = f"degL={prof.deg_l} CL={prof.c_l} upper={bounds.upper}"
    if bounds.lower_valid:
        head += f" lower={bounds.lower}"
    lines = [
        head,
        f"dL={prof.d_l} RL={rl} degenerated={'yes' if prof.degenerated else 'no'}"
        f" strongly_nondegenerated={'yes' if prof.strongly_nondegenerated else 'no'}",
        # f lives in the indicial variable s, not in n
        f"f(s) = {_render(prof.f_poly, fmt).replace('n', 's')}",
        f"witness = {_render(bounds.witness, fmt)}",
    ]
    structured = {
        "command": "classify",
        "degL": prof.deg_l,
        "dL": prof.d_l,
        "CL": prof.c_l,
        "RL": sorted(prof.r_l),
        "degenerated": prof.degenerated,
        "strongly_nondegenerated": prof.strongly_nondegenerated,
        "f": _body(prof.f_poly),
        "upper": bounds.upper,
        "lower_valid": bounds.lower_valid,
        "lower": bounds.lower,
        "witness": _body(bounds.witness),
    }
    _emit(args, lines, structured)
    return 0


def _certificate_report(red, fmt):
    """The multiplier and certificate of the reduction ``red``: their lines
    and their structured fields."""
    lines = [f"multiplier = {_render(red.multiplier, fmt)}"]
    lines += [f"u{i} = {_render(u, fmt)}" for i, u in enumerate(red.certificate)]
    return lines, {"multiplier": _body(red.multiplier),
                   "certificate": [_body(u) for u in red.certificate]}


def _cmd_reduce(args) -> int:
    op = parse_operator(args.operator)
    p = parse_polynomial(args.poly)
    red = polynomial_reduce(p, op)
    lines, fields = _certificate_report(red, args.format)
    _emit(args, [f"remainder = {_render(red.remainder, args.format)}", *lines],
          {"command": "reduce", "remainder": _body(red.remainder), **fields})
    return 0


def _cmd_rational_reduce(args) -> int:
    op = parse_operator(args.operator)
    p = parse_polynomial(args.poly)
    factor = parse_polynomial(args.factor)
    rr = rational_reduce(p, op, factor, args.side, args.order)
    fmt = args.format
    cert, fields = _certificate_report(rr.reduction, fmt)
    lines = [
        f"side = {rr.side}",
        f"order = {rr.denom_spec.order}",
        f"remainder_numer = {_render(rr.remainder_numer, fmt)}",
        f"denominator = {_render(rr.denominator, fmt)}",
        f"derived_operator = {_render(rr.derived_operator, fmt)}",
        *cert,
    ]
    structured = {
        "command": "rational-reduce",
        "side": rr.side,
        "order": rr.denom_spec.order,
        "requested_order": args.order,
        "remainder_numer": _body(rr.remainder_numer),
        "denominator": _body(rr.denominator),
        "derived_operator": _body(rr.derived_operator),
        **fields,
    }
    _emit(args, lines, structured)
    return 0


def _cmd_guess(args) -> int:
    terms = load_terms(args.terms)
    op = guess_annihilator(terms, args.start, args.max_order, args.max_deg)
    if op is None:
        _emit(args, ["none"], {"command": "guess", "operator": None})
        return 1
    _emit(args, [_render(op, args.format)],
          {"command": "guess", "operator": _body(op)})
    return 0


def _cmd_verify(args) -> int:
    fix = load_fixture(args.fixture)
    fmt = args.format
    if args.mode == "numeric":
        if not isinstance(fix, IdentityFixture):
            raise ValueError("numeric mode needs an identity fixture")
        report = numeric_series_check(fix, args.n_terms, accel=args.accel)
        from mpmath import libmp, nstr  # only this command needs mpmath

        ok = report["abs_error"] <= args.tol
        # enough digits to read value and target back at the working precision
        digits = libmp.repr_dps(report["precision_bits"])
        value, target = (nstr(report[k], digits) for k in ("value", "target"))
        lines = [
            f"value = {value}",
            f"target = {target}",
            f"abs_error = {report['abs_error']}",
            f"tolerance = {args.tol}",
        ]
        fields = {
            "value": value,
            "target": target,
            "abs_error": str(report["abs_error"]),
            "tolerance": args.tol,
            "terms": report["terms"],
            "precision_bits": report["precision_bits"],
        }
    elif args.mode == "congruence":
        if not isinstance(fix, CongruenceFixture):
            raise ValueError("congruence mode needs a congruence fixture")
        primes = _parse_primes(args.primes)
        reports = verify_congruence(fix, primes)
        ok = all(r["ok"] for r in reports)
        lines = [
            f"p={r['prime']} residue={r['residue']} target={r['target']} "
            f"{'ok' if r['ok'] else 'FAIL'}"
            for r in reports
        ]
        fields = {"reports": reports}
    else:  # exact: replay the recipe and check the telescoping identity
        if fix.recipe is None:
            raise ValueError("exact mode needs a fixture with reduction data")
        seq = get_sequence(fix.sequence_key)
        source = IdentityFixture(
            sequence_key=fix.sequence_key,
            numer=fix.recipe.source_numer,
            denom=Polynomial([1]),
            start_index=seq.start_index,
            target_r0=Fraction(0),
            target_r1=Fraction(0),
            label="source",
        )
        rr = rederive(fix, source)
        ok = verify_identity_exact(fix, source, rr, window_length=args.window)
        lines = [
            f"remainder_numer = {_render(rr.remainder_numer, fmt)}",
            f"scalar = {fix.recipe.scalar}",
            f"window = {args.window}",
        ]
        fields = {
            "remainder_numer": _body(rr.remainder_numer),
            "scalar": str(fix.recipe.scalar),
            "window": args.window,
        }
    lines.append(f"status = {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, {"command": "verify", "mode": args.mode, "label": fix.label,
                        "ok": ok, **fields})
    return 0 if ok else 1


def _cmd_eval(args) -> int:
    seq = get_sequence(args.sequence)
    value = seq.eval(args.n)
    _emit(args, [_render(value, args.format)],
          {"command": "eval", "sequence": args.sequence, "n": args.n,
           "value": _body(value)})
    return 0


def _cmd_sum(args) -> int:
    seq = get_sequence(args.sequence)
    numer = parse_polynomial(args.numer)
    denom = parse_polynomial(args.denom)
    if args.upper < args.lower:
        raise ValueError("--to must be at least --from")
    total = seq.partial_sum(numer, denom, args.lower, args.upper)
    _emit(args, [_render(total, args.format)],
          {"command": "sum", "sequence": args.sequence,
           "from": args.lower, "to": args.upper, "value": _body(total)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoreduce",
        description="Polynomial and rational reductions for holonomic sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "latex", "structured"),
                       default="text")
        p.set_defaults(func=func)
        return p

    p = add("classify", _cmd_classify,
            help="degree/degeneracy profile and summability bounds")
    p.add_argument("--operator", required=True)

    p = add("reduce", _cmd_reduce, help="polynomial reduction")
    p.add_argument("--operator", required=True)
    p.add_argument("--poly", required=True)

    p = add("rational-reduce", _cmd_rational_reduce,
            help="rational reduction against a shift-product denominator")
    p.add_argument("--operator", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--side", choices=("lower", "upper"), required=True)
    p.add_argument("--order", type=_int, required=True)

    p = add("guess", _cmd_guess, help="guess an annihilator from terms")
    p.add_argument("--terms", required=True)
    p.add_argument("--start", type=_int, default=0)
    p.add_argument("--max-order", type=_int, default=3, dest="max_order")
    p.add_argument("--max-deg", type=_int, default=3, dest="max_deg")

    p = add("verify", _cmd_verify, help="verify a fixture file")
    p.add_argument("--fixture", required=True)
    p.add_argument("--mode", choices=("exact", "numeric", "congruence"),
                   required=True)
    p.add_argument("--N", type=_int, default=100000, dest="n_terms")
    p.add_argument("--primes", default=DEFAULT_PRIMES)
    p.add_argument("--tol", type=_tol, default=1e-4)
    p.add_argument("--accel", choices=("none", "average1"), default="average1")
    p.add_argument("--window", type=_int, default=DEFAULT_WINDOW)

    p = add("eval", _cmd_eval, help="evaluate a catalog sequence exactly")
    p.add_argument("--sequence", required=True)
    p.add_argument("--n", type=_int, required=True)

    p = add("sum", _cmd_sum, help="exact partial sum of numer/denom * F(n)")
    p.add_argument("--sequence", required=True)
    p.add_argument("--numer", required=True)
    p.add_argument("--denom", default="1")
    p.add_argument("--from", type=_int, required=True, dest="lower")
    p.add_argument("--to", type=_int, required=True, dest="upper")

    return parser


def main(argv=None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # exact integers are read and printed past Python's 4300 digits
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (IrreducibleAtThisI, PrecisionLoss) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (HoloreduceError, ValueError, KeyError, OSError,
            ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
