"""Tracing from outside the program.

`Tracer.install` wraps the public functions and methods of every
holoreduce module and patches each name in every module that imported
it (for example `reduction.degree_profile` as well as
`operators.degree_profile`).  Spans are kept in memory as
(name, start, end, parent, operation) and written out when the run ends.
Trivial accessors (`is_zero`, `coefficient`, `text`, equality, hashing)
are left unwrapped: their time counts towards the span that called them.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import is_dataclass
import sys
import time

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__divmod__")
UNWRAPPED = {"is_zero", "coefficient", "text", "is_polynomial", "as_polynomial"}
LAYERS = ("polynomials", "operators", "reduction", "sequences", "verify", "exprio")

# Metric groups: the span names each per-layer metric adds up.
GROUPS = {
    "exprio.parse": ("exprio.parse_polynomial", "exprio.parse_rational_function",
                     "exprio.parse_operator"),
    "exprio.print": ("exprio.to_text", "exprio.to_latex", "exprio.to_structured",
                     "exprio.print_value", "exprio.poly_latex"),
    "polynomials.mul": ("polynomials.Polynomial.__mul__", "polynomials.Polynomial.__rmul__"),
    "polynomials.shift": ("polynomials.Polynomial.shift",),
    "polynomials.divmod": ("polynomials.Polynomial.__divmod__",),
    "polynomials.poly_gcd": ("polynomials.poly_gcd",),
    "polynomials.evaluate": ("polynomials.Polynomial.evaluate",),
    "polynomials.integer_roots": ("polynomials.integer_roots",),
    "polynomials.resultant": ("polynomials.resultant",),
    "operators.gcd_condition": ("operators.gcd_condition",),
    "operators.degree_profile": ("operators.degree_profile",),
    "operators.adjoint_apply": ("operators.ShiftOperator.adjoint_apply",
                                "operators.adjoint_apply"),
    "operators.certificate": ("operators.ShiftOperator.certificate",
                              "operators.certificate_polys"),
    "reduction.polynomial_reduce": ("reduction.polynomial_reduce",),
    "reduction.rational_reduce": ("reduction.rational_reduce",),
    "reduction.build_L1": ("reduction.build_L1_lower", "reduction.build_L1_upper"),
    "sequences.eval": ("sequences.HolonomicSequence.eval",),
    "sequences.guess": ("sequences.guess_annihilator",),
    "verify.numeric": ("verify.numeric_series_check",),
    "verify.exact": ("verify.verify_identity_exact",),
    "verify.congruence": ("verify.verify_congruence",),
    "verify.rederive": ("verify.rederive",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.counters = {}
        self.profiled = []        # (operation, hash of the operator profiled)
        self._highest = {}        # id(sequence) -> (sequence, highest index asked)

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- operations -------------------------------------------------------

    def begin_op(self, kind):
        self.op += 1
        self.stack.append(len(self.spans))
        self.spans.append((self._name_id("op." + kind), time.perf_counter(), None, -1, self.op))
        self.active = True

    def end_op(self):
        idx = self.stack.pop()
        nid, t0, _, parent, op = self.spans[idx]
        self.spans[idx] = (nid, t0, time.perf_counter(), parent, op)
        self.active = False

    # -- installation ---------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result, False)
                return result
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, kwargs, result, True)
            return result

        return traced

    def install(self):
        modules = {m: sys.modules[f"holoreduce.{m}"] for m in LAYERS}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replaced[obj] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not is_dataclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or meth in UNWRAPPED:
                            continue
                        if meth.startswith("_") and meth not in ARITHMETIC:
                            continue
                        name = f"{short}.{obj.__name__}.{meth}"
                        setattr(obj, meth, self.wrap(name, fn, HOOKS.get(name)))
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "holoreduce" and not modname.startswith("holoreduce."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    # -- output ---------------------------------------------------------------

    def dump(self):
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "spans": [[n, round(t0 - base, 7), round(t1 - base, 7), p, op]
                      for n, t0, t1, p, op in self.spans],
            "counters": self.counters,
            "profiled": self.profiled,
        }


# -- counters recorded at the layer boundaries ------------------------------


def _on_profile(tracer, args, kwargs, result, live):
    if live:
        tracer.profiled.append((tracer.op, hash(args[0])))


def _on_eval(tracer, args, kwargs, result, live):
    seq, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    _, highest = tracer._highest.get(id(seq), (seq, seq.start_index - 1))
    if live:
        tracer.count("sequences.eval.hits", n <= highest)
        tracer.count("sequences.eval.terms_computed", max(n - highest, 0))
    tracer._highest[id(seq)] = (seq, max(n, highest))


def _on_numeric(tracer, args, kwargs, result, live):
    if live:
        tracer.count("verify.numeric.terms", result["terms"])


def _on_exact(tracer, args, kwargs, result, live):
    if live:
        exact = sys.modules["holoreduce.verify"].verify_identity_exact
        bound = inspect.signature(exact).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count("verify.exact.window_terms", bound.arguments["window_length"] + 1)


def _on_congruence(tracer, args, kwargs, result, live):
    if live:
        start = args[0].start_index
        tracer.count("verify.congruence.terms", sum(r["prime"] - start for r in result))


HOOKS = {
    "operators.degree_profile": _on_profile,
    "sequences.HolonomicSequence.eval": _on_eval,
    "verify.numeric_series_check": _on_numeric,
    "verify.verify_identity_exact": _on_exact,
    "verify.verify_congruence": _on_congruence,
}


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(dumps, passes, ops_per_pass):
    """Per-pass calls, self time and ratios from one or more span dumps.
    Operation ids count from 0 in each dump; dump i starts at operation
    d.get("first_op", 0)."""
    calls, self_s, layer_self = {}, {}, {}
    counters, profiled = {}, set()
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, _, _) in enumerate(spans):
            name = names[nid]
            own = (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                layer_self[layer] = layer_self.get(layer, 0.0) + own
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
        first = d.get("first_op", 0)
        profiled.update(((first + op) // ops_per_pass, h) for op, h in d["profiled"])
    out = {}
    for group, members in GROUPS.items():
        out[f"{group}.calls"] = sum(calls.get(m, 0) for m in members) / passes
        out[f"{group}.self_ms"] = sum(self_s.get(m, 0.0) for m in members) * 1e3 / passes
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) * 1e3 / passes
    # distinct within each pass, so that repeats across passes do not count
    profiles = sum(calls.get(m, 0) for m in GROUPS["operators.degree_profile"])
    out["operators.degree_profile.distinct_ratio"] = len(profiled) / profiles if profiles else 0.0
    evals = sum(calls.get(m, 0) for m in GROUPS["sequences.eval"])
    out["sequences.eval.cache_hit_ratio"] = \
        counters.get("sequences.eval.hits", 0) / evals if evals else 0.0
    for key in ("sequences.eval.terms_computed", "verify.numeric.terms",
                "verify.exact.window_terms", "verify.congruence.terms"):
        out[key] = counters.get(key, 0) / passes
    return out
