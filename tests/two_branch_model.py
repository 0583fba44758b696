"""The two-branch build_model (separate numeric and symbolic point dicts and
derivative loops) that the one-evaluator version replaced, kept verbatim as
its reference.  The two edits are in the constructor call of the StatModel
it returns: the ``g_at_mu`` and ``h2_expr`` keywords are dropped with their
fields, and the ``h`` field, added later, is ``g``, the statistic the
reference differentiates."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from edgeboot.algebra import (
    Bindings,
    TranscendentalResidueError,
    _to_nf,
    differentiate,
    eval_numeric,
    substitute,
)
from edgeboot.edgeworth import Mode, ModelError, StatModel, Value, _sorted_tuples
from edgeboot.expr import (
    Const,
    Expr,
    KernelRegistry,
    Var,
    ZERO,
    add as expr_add,
    arity,
    mul,
    pow_,
    sqrt,
    sub,
)
from edgeboot.moments import MomentOrderError, MomentSpec, raw_moment


def build_model_two_branch(
    g: Expr,
    mode: Mode,
    spec: MomentSpec,
    d: int | None = None,
    params: Mapping[str, float] | None = None,
    kernels: KernelRegistry | None = None,
) -> StatModel:
    """Construct the normalized statistic and its derivative table.

    ``d`` may exceed arity(g) to embed the statistic in a higher-dimensional
    power basis (unused slots get zero derivatives).
    """
    params = dict(params or {})
    kernels = kernels or KernelRegistry()
    d0 = arity(g)
    if d0 < 1 and d is None:
        raise ModelError("statistic must depend on at least x1")
    d = d if d is not None else d0
    if d < max(d0, 1):
        raise ModelError(f"dimension override {d} below arity {d0}")
    dims = d if mode is Mode.NONSTUDENTIZED else 2 * d
    needed_K = max(2 * d, 4 * dims)
    if spec.K < needed_K:
        raise MomentOrderError(
            f"moment spec provides K={spec.K} but the model needs {needed_K}"
        )

    numeric = not spec.is_symbolic
    point_exprs: dict[int, Expr] = {}
    point_vals: dict[int, float] = {}
    for i in range(1, 2 * d + 1):
        r = raw_moment(spec, i)
        if numeric:
            point_vals[i] = float(r)  # type: ignore[arg-type]
        else:
            point_exprs[i] = r  # type: ignore[assignment]

    gi = {i: differentiate(g, i, kernels) for i in range(1, d + 1)}
    h2_terms = []
    for i in range(1, d + 1):
        if gi[i] == ZERO:
            continue
        for j in range(1, d + 1):
            if gi[j] == ZERO:
                continue
            h2_terms.append(
                mul(gi[i], gi[j], sub(Var(i + j), mul(Var(i), Var(j))))
            )
    if not h2_terms:
        raise ModelError("zero asymptotic variance: statistic has no slope")
    h2 = expr_add(*h2_terms)
    kernels.register(h2)

    env = Bindings(params, point_vals)
    if numeric:
        g_at_mu: Value = eval_numeric(g, env)
        h2_at_mu = eval_numeric(h2, env)
        if not (math.isfinite(h2_at_mu) and h2_at_mu > 0):
            raise ModelError(f"zero or invalid asymptotic variance {h2_at_mu}")
        sigma_a: Value = math.sqrt(h2_at_mu)
        g_mu_expr: Expr = Const(Fraction(float(g_at_mu)))
        h2_mu_expr: Expr | None = None  # numeric path divides by 1/sigma directly
    else:
        subs_map = {Var(i): point_exprs[i] for i in point_exprs}
        g_at_mu = substitute(g, subs_map, kernels)
        h2_at_mu = substitute(h2, subs_map, kernels)
        try:
            g_at_mu = _to_nf(g_at_mu).canonical().to_expr()
        except TranscendentalResidueError:
            pass
        try:
            nf_h2 = _to_nf(h2_at_mu).canonical()
            if nf_h2.is_zero:
                raise ModelError("zero asymptotic variance at the moment point")
            h2_at_mu = nf_h2.to_expr()
        except TranscendentalResidueError:
            pass  # transcendental variance: positivity is checked numerically
        kernels.register(h2_at_mu)
        sigma_a = sqrt(h2_at_mu, kernels)
        g_mu_expr = g_at_mu
        h2_mu_expr = h2_at_mu

    centered = sub(g, g_mu_expr)
    if mode is Mode.NONSTUDENTIZED:
        if numeric:
            a_expr = mul(centered, Const(Fraction(1.0 / sigma_a)))
        else:
            a_expr = mul(centered, pow_(h2_mu_expr, Fraction(-1, 2), kernels))
    else:
        a_expr = mul(centered, pow_(h2, Fraction(-1, 2), kernels))

    deriv_exprs: dict[tuple[int, ...], Expr] = {(): a_expr}
    for order in (1, 2, 3):
        for t in _sorted_tuples(dims, order):
            deriv_exprs[t] = differentiate(deriv_exprs[t[:-1]], t[-1], kernels)

    deriv: dict[tuple[int, ...], Value] = {}
    if numeric:
        for t, e in deriv_exprs.items():
            if t:
                deriv[t] = eval_numeric(e, env)
    else:
        subs_map = {Var(i): point_exprs[i] for i in point_exprs}
        for t, e in deriv_exprs.items():
            if t:
                deriv[t] = substitute(e, subs_map, kernels)

    return StatModel(
        g=g,
        h=g,
        d=d,
        mode=mode,
        dims=dims,
        sigma_a=sigma_a,
        a_expr=a_expr,
        deriv=deriv,
        spec=spec,
        params=params,
        kernels=kernels,
    )
