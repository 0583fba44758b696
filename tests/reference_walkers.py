"""The three expression walkers ``algebra`` had before one ``evaluate`` served
every value ring, kept verbatim as a test reference: ``substitute``'s
closure, ``_eval``/``_eval_node`` and ``_to_nf``.

Test-only: the tests compare ``evaluate`` in each ring against them.
"""

from __future__ import annotations

import math
from typing import Mapping

from edgeboot.algebra import (
    AlgebraError,
    Bindings,
    DomainError,
    EvalError,
    NormalForm,
    Number,
    TranscendentalResidueError,
    _is_array,
    norm_cdf,
    norm_pdf,
)
from edgeboot.expr import (
    Add,
    Const,
    Exp,
    Expr,
    KernelRegistry,
    Mul,
    NormCdf,
    NormPdf,
    Pow,
    Sym,
    Var,
    add,
    mul,
    pow_,
)


def substitute(e: Expr, mapping: Mapping[Expr, Expr],
               kernels: KernelRegistry | None = None) -> Expr:
    """Simultaneous substitution of Sym/Var nodes; rebuilds canonically."""
    if not mapping:
        return e
    memo: dict[int, Expr] = {}

    def walk(node: Expr) -> Expr:
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, (Sym, Var)):
            out = mapping.get(node, node)
        elif isinstance(node, Add):
            out = add(*[walk(t) for t in node.terms])
        elif isinstance(node, Mul):
            out = mul(*[walk(f) for f in node.factors])
        elif isinstance(node, Pow):
            new_base = walk(node.base)
            if node.exponent.denominator == 2 and kernels is not None:
                # the original base passed the positivity gate; substitution
                # is mechanical, so its image stays a valid kernel
                kernels.register(new_base)
            out = pow_(new_base, node.exponent, kernels)
        elif isinstance(node, Exp):
            out = Exp(walk(node.arg))
        elif isinstance(node, NormCdf):
            out = NormCdf(walk(node.arg))
        elif isinstance(node, NormPdf):
            out = NormPdf(walk(node.arg))
        else:
            out = node
        memo[key] = out
        return out

    return walk(e)


def eval_numeric(e: Expr, b: Bindings) -> Number:
    """Evaluate to double precision.  Raises :class:`EvalError` for unbound
    symbols; :class:`DomainError` for scalar domain violations.  Equal
    subtrees are one interned node and are evaluated once per call
    (memoised by structure)."""
    return _eval(e, b, {})


def _eval(e: Expr, b: Bindings, memo: dict[int, Number]) -> Number:
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    out = _eval_node(e, b, memo)
    memo[id(e)] = out
    return out


def _eval_node(e: Expr, b: Bindings, memo: dict[int, Number]) -> Number:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return b.syms[e.name]
        except KeyError:
            if e.name == "pi":
                return math.pi
            raise EvalError(f"unbound symbol {e.name!r}") from None
    if isinstance(e, Var):
        try:
            return b.vars[e.index]
        except KeyError:
            raise EvalError(f"unbound variable x{e.index}") from None
    if isinstance(e, Add):
        total = _eval(e.terms[0], b, memo)
        for t in e.terms[1:]:
            total = total + _eval(t, b, memo)
        return total
    if isinstance(e, Mul):
        prod = _eval(e.factors[0], b, memo)
        for f in e.factors[1:]:
            prod = prod * _eval(f, b, memo)
        return prod
    if isinstance(e, Pow):
        base = _eval(e.base, b, memo)
        q = e.exponent
        if _is_array(base):
            import numpy as np

            with np.errstate(invalid="ignore", divide="ignore"):
                return np.power(base, float(q))
        if q.denominator == 2 and base < 0:
            raise DomainError(f"negative base {base} under fractional power {q}")
        if base == 0 and q < 0:
            raise DomainError("division by zero")
        try:
            return float(base) ** float(q) if q.denominator == 2 else float(base) ** q.numerator
        except OverflowError:
            raise DomainError(f"{base} ^ ({q}) overflows a double") from None
    if isinstance(e, Exp):
        u = _eval(e.arg, b, memo)
        if _is_array(u):
            import numpy as np

            return np.exp(u)
        try:
            return math.exp(u)
        except OverflowError:
            raise DomainError(f"exp({u}) overflows a double") from None
    if isinstance(e, NormCdf):
        return norm_cdf(_eval(e.arg, b, memo))
    if isinstance(e, NormPdf):
        return norm_pdf(_eval(e.arg, b, memo))
    raise AlgebraError(f"unsupported primitive for evaluation: {e!r}")


def _to_nf(e: Expr, memo: dict[int, NormalForm] | None = None) -> NormalForm:
    """Lightly reduced normal form; equal subtrees are converted once.

    ``memo`` is keyed by the id of the interned node, so it is memoised by
    structure; a memo kept across calls may only hold nodes that outlive it."""
    if memo is None:
        memo = {}
    out = memo.get(id(e))
    if out is not None:
        return out
    if isinstance(e, Const):
        out = NormalForm.from_fraction(e.value)
    elif isinstance(e, Sym):
        out = NormalForm.sym(e.name)
    elif isinstance(e, Var):
        out = NormalForm.var(e.index)
    elif isinstance(e, Add):
        out = _to_nf(e.terms[0], memo)
        for t in e.terms[1:]:
            out = out + _to_nf(t, memo)
    elif isinstance(e, Mul):
        out = _to_nf(e.factors[0], memo)
        for f in e.factors[1:]:
            out = out * _to_nf(f, memo)
    elif isinstance(e, Pow):
        out = _to_nf(e.base, memo).pow(e.exponent)
    else:
        raise TranscendentalResidueError(
            f"transcendental residue: {type(e).__name__} node cannot be normalized"
        )
    memo[id(e)] = out
    return out
