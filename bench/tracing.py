"""Spans around the calls edgeboot's modules make into each other.

The traced run patches, from outside the package, the names each module
imported from another one (``edgeboot.edgeworth.differentiate`` is the
``differentiate`` that ``edgeworth`` calls), plus the few same-module entry
points the per-layer metrics need (``NormalForm.canonical``,
``moments.cross_moment``, ``harness.simulate_statistic_values``, the
``bootstrap`` stages).  Each call records a span: name, layer (the module
that defines the function), start, end, parent span and benchmark operation.
Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module holding the name, attribute, layer).  The span is named
# "<layer>.<attribute>"; a class attribute is given as "Class.method".
WRAPPED = [
    ("cli", "main", "cli"),
    ("cli", "load_config", "config"),
    ("cli", "model_from_config", "config"),
    ("cli", "pretty_print", "expr"),
    ("cli", "cumulant_coeffs", "edgeworth"),
    ("cli", "edgeworth_polys", "edgeworth"),
    ("cli", "cornish_fisher_polys", "edgeworth"),
    ("cli", "accel_constant", "edgeworth"),
    ("cli", "compare_and_emit", "harness"),
    ("cli", "parse_grid", "harness"),
    ("cli", "bca_interval", "bootstrap"),
    ("cli", "emit_assignments", "codegen"),
    ("cli", "_read_column", "moments"),
    ("config", "parse", "expr"),
    ("config", "spec_from_config", "moments"),
    ("config", "build_model", "edgeworth"),
    ("edgeworth", "differentiate", "algebra"),
    ("edgeworth", "substitute", "algebra"),
    ("edgeworth", "eval_numeric", "algebra"),
    ("edgeworth", "_to_nf", "algebra"),
    ("edgeworth", "raw_moment", "moments"),
    ("edgeworth", "_model_ring", "edgeworth"),
    ("moments", "cross_moment", "moments"),
    ("algebra", "NormalForm.canonical", "algebra"),
] + [
    # normal-form arithmetic that edgeworth's contraction runs through operators
    ("algebra", f"NormalForm.{m}", "algebra")
    for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "pow")
] + [
    ("codegen", "pretty_print", "expr"),
    ("codegen", "parse", "expr"),
    ("harness", "simulate_statistic_values", "harness"),
    ("harness", "eval_numeric", "algebra"),
    ("harness", "cdf_eval", "edgeworth"),
    ("harness", "rearrange_increasing", "rearrange"),
    ("harness", "clip01", "rearrange"),
    ("harness", "is_nondecreasing", "rearrange"),
    ("bootstrap", "resample_distribution", "bootstrap"),
    ("bootstrap", "accel_plugin", "bootstrap"),
    ("bootstrap", "bca_from_replicates", "bootstrap"),
    ("bootstrap", "eval_numeric", "algebra"),
    ("bootstrap", "differentiate", "algebra"),
]

# Entry points the benchmark itself calls through the module attribute, so
# that the exact workload's library calls are spanned as well.
BENCH_CALLS = [
    ("expr", "parse", "expr"),
    ("edgeworth", "build_model", "edgeworth"),
    ("edgeworth", "cumulant_coeffs", "edgeworth"),
    ("edgeworth", "edgeworth_polys", "edgeworth"),
    ("edgeworth", "cornish_fisher_polys", "edgeworth"),
    ("edgeworth", "accel_constant", "edgeworth"),
    ("codegen", "emit_assignments", "codegen"),
    ("codegen", "reimport_check", "codegen"),
    ("config", "load_config", "config"),
    ("config", "model_from_config", "config"),
]

LAYERS = ("bench", "cli", "config", "expr", "algebra", "moments", "edgeworth",
          "codegen", "harness", "rearrange", "bootstrap")


def expr_sizes(e, seen: dict) -> int:
    """Tree size of ``e``; ``seen`` collects the distinct DAG nodes (by id)."""
    from edgeboot.expr import Add, Exp, Mul, NormCdf, NormPdf, Pow

    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        key = id(node)
        if key in seen and not done:
            continue
        if isinstance(node, (Add, Mul)):
            kids = node.terms if isinstance(node, Add) else node.factors
        elif isinstance(node, Pow):
            kids = (node.base,)
        elif isinstance(node, (Exp, NormCdf, NormPdf)):
            kids = (node.arg,)
        else:
            kids = ()
        if done:
            seen[key] = 1 + sum(seen[id(k)] for k in kids)
        else:
            seen[key] = None
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in seen)
    return seen[id(e)]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, outer, attrs]
        self._stack: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.op_name = ""
        self.rings: dict[str, set] = defaultdict(set)  # operation -> value rings used
        self.origin = time.perf_counter()
        self.printed_dag = 0
        self.printed_tree = 0

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = self._open_names[name] == 0
        self._open_names[name] += 1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, outer, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._open_names[span[0]] -= 1
        self._stack.pop()

    def note(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[7] = {**(span[7] or {}), **attrs}

    # -- patching ------------------------------------------------------------
    def install(self, modules: dict) -> None:
        for mod, attr, layer in WRAPPED + BENCH_CALLS:
            owner = modules[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._wrap(owner, attr, f"{layer}.{attr}", layer)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, name: str, layer: str) -> None:
        original = getattr(owner, attr)
        tracer = self
        post = _POST.get(name)
        pre = _PRE.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            idx = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, idx, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- results -------------------------------------------------------------
    def summary(self) -> dict:
        """Self time and span count per layer, inclusive time of outermost
        spans per name, call counts per name and the summed numeric span
        attributes."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        self_time: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            dur = s[3] - s[2]
            self_time[s[1]] += dur - child[i]
            calls[s[0]] += 1
            layer_calls[s[1]] += 1
            if s[6]:
                inclusive[s[0]] += dur
            for k, v in (s[7] or {}).items():
                if not isinstance(v, str):
                    attrs[k] += v
        return {"self": self_time, "inclusive": inclusive, "calls": calls,
                "layer_calls": layer_calls, "attrs": attrs}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[0], "layer": s[1],
                       "start": round(s[2] - self.origin, 9),
                       "end": round(s[3] - self.origin, 9),
                       "parent": s[4], "op": s[5]}
                if s[7]:
                    rec.update(s[7])
                fh.write(json.dumps(rec) + "\n")


def _count_printed(tracer: Tracer, args) -> None:
    seen: dict = {}
    tracer.printed_tree += expr_sizes(args[0], seen)
    tracer.printed_dag += len(seen)


def _note_ring(tracer, idx, result):
    tracer.note(idx, ring=result[0].kind)
    tracer.rings[tracer.op_name].add(result[0].kind)


def _note_nf_terms(tracer, idx, result):
    tracer.note(idx, nf_terms=len(result.num.terms) + len(result.den.terms))


def _note_excluded(tracer, idx, result):
    tracer.note(idx, excluded_draws=result[1])


def _note_nan(tracer, idx, result):
    tracer.note(idx, nan_replicates=result[1])


# Called with the arguments before a span opens, so their cost stays out of
# the span (it is still inside the traced wall time).
_PRE = {
    "expr.pretty_print": _count_printed,
}

_POST = {
    "edgeworth._model_ring": _note_ring,
    "algebra.canonical": _note_nf_terms,
    "harness.simulate_statistic_values": _note_excluded,
    "bootstrap.resample_distribution": _note_nan,
}
