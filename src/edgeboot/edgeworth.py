"""Second-order expansion machinery for smooth functions of power-means.

Given a statistic ``g`` over power-mean slots ``x1..xd``, this module builds
the normalized statistic (plain or studentized), its partial-derivative
table at the moment point, the four cumulant coefficients k12, k22, k31,
k41, the Edgeworth polynomials p1/p2, the Cornish-Fisher polynomials
p11/p21, the normalizing-constant adjustment, and the acceleration constant
for bias-corrected-accelerated bootstrap intervals.

The studentizing denominator is derived automatically from ``g``:
``h^2 = sum_{i,j<=d} dg/dx_i dg/dx_j (x_{i+j} - x_i x_j)``, the plug-in
covariance of the estimated influence components.  At the moment point this
equals the asymptotic variance, so the normalized statistic always has unit
first-order variance.

Coefficient evaluation runs in one of three value rings, which one rule
(``_ring_of``) picks from the values themselves: double precision for
numeric specs, exact normal forms for polynomial statistics over symbolic
specs, and plain expression arithmetic when transcendental primitives (Phi,
phi, exp) make normal forms unavailable (equality checks there are
numeric-only).  The Edgeworth and Cornish-Fisher polynomials are closed
forms in the coefficients, computed in the same rings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Union

from .algebra import (
    Bindings,
    NormalForm,
    Ring,
    TranscendentalResidueError,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    _to_nf,
    differentiate,
    eval_numeric,
    substitute,
)
from .expr import (
    Const,
    Expr,
    KernelRegistry,
    Sym,
    Var,
    ZERO,
    add as expr_add,
    arity,
    mul,
    pow_,
    sqrt,
    sub,
)
from . import moments
from .moments import MomentSpec, MomentOrderError, raw_moment

Value = Union[Expr, float]


class ModelError(Exception):
    """Invalid statistic model (zero variance, insufficient moments, ...)."""


class Mode(enum.Enum):
    NONSTUDENTIZED = "plain"
    STUDENTIZED = "studentized"

    @staticmethod
    def parse(text: str) -> "Mode":
        t = text.strip().lower()
        if t in ("plain", "nonstudentized", "non-studentized", "0"):
            return Mode.NONSTUDENTIZED
        if t in ("studentized", "s"):
            return Mode.STUDENTIZED
        raise ModelError(f"unknown mode {text!r}")


@dataclass
class StatModel:
    """A statistic g over d power-means plus its normalized function."""

    g: Expr
    d: int
    mode: Mode
    dims: int
    h2_expr: Expr  # squared studentizing function, over x1..x_{2d}
    sigma_a: Value  # h at the moment point
    a_expr: Expr  # the normalized statistic over x1..x_dims
    deriv: dict[tuple[int, ...], Value]
    spec: MomentSpec
    params: dict[str, float]
    kernels: KernelRegistry
    # what cumulant_coeffs and accel_constant share, filled by the first _first_order call
    first_order: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_numeric(self) -> bool:
        return not self.spec.is_symbolic


@dataclass(frozen=True)
class Statistic:
    """All the bootstrap reads of a statistic: g, its parameter values and
    its square-root kernels.  A :class:`StatModel` serves as well."""

    g: Expr
    params: Mapping[str, float]
    kernels: KernelRegistry


def _sorted_tuples(dims: int, order: int):
    return combinations_with_replacement(range(1, dims + 1), order)


def _multiplicity(t: tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted index tuple."""
    from collections import Counter

    out = math.factorial(len(t))
    for c in Counter(t).values():
        out //= math.factorial(c)
    return out


def model_shape(g: Expr, mode: Mode, d: int | None = None) -> tuple[int, int, int]:
    """(d, dims, K): the power-mean count, the slots of the normalized
    statistic and the moment order its expansion needs.

    ``d`` may exceed arity(g) to embed the statistic in a higher-dimensional
    power basis (unused slots get zero derivatives).
    """
    d0 = arity(g)
    if d0 < 1 and d is None:
        raise ModelError("statistic must depend on at least x1")
    d = d if d is not None else d0
    if d < max(d0, 1):
        raise ModelError(f"dimension override {d} below arity {d0}")
    dims = d if mode is Mode.NONSTUDENTIZED else 2 * d
    return d, dims, max(2 * d, 4 * dims)


def as_expr(v: Value) -> Expr:
    """An Expr as is; a float as the exact rational of its double."""
    return v if isinstance(v, Expr) else Const(Fraction(float(v)))


def build_model(
    g: Expr,
    mode: Mode,
    spec: MomentSpec,
    d: int | None = None,
    params: Mapping[str, float] | None = None,
    kernels: KernelRegistry | None = None,
) -> StatModel:
    """Construct the normalized statistic and its derivative table at the
    moment point (see :func:`model_shape` for ``d``)."""
    params = dict(params or {})
    kernels = kernels or KernelRegistry()
    d, dims, needed_K = model_shape(g, mode, d)
    if spec.K < needed_K:
        raise MomentOrderError(
            f"moment spec provides K={spec.K} but the model needs {needed_K}"
        )

    numeric = not spec.is_symbolic
    point = {Var(i): raw_moment(spec, i) for i in range(1, 2 * d + 1)}
    if numeric:
        env = Bindings(params, {v.index: float(r) for v, r in point.items()})

        def at(e: Expr) -> Value:
            return eval_numeric(e, env)
    else:
        def at(e: Expr) -> Value:
            return substitute(e, point, kernels)

    gi = {i: differentiate(g, i, kernels) for i in range(1, d + 1)}
    slopes = [(i, gi[i]) for i in gi if gi[i] != ZERO]
    h2_terms = [mul(g_i, g_j, sub(Var(i + j), mul(Var(i), Var(j))))
                for i, g_i in slopes for j, g_j in slopes]
    if not h2_terms:
        raise ModelError("zero asymptotic variance: statistic has no slope")
    h2 = expr_add(*h2_terms)
    kernels.register(h2)

    g_at_mu, h2_at_mu = at(g), at(h2)
    plain = mode is Mode.NONSTUDENTIZED
    if numeric:
        if not (math.isfinite(h2_at_mu) and h2_at_mu > 0):
            raise ModelError(f"zero or invalid asymptotic variance {h2_at_mu}")
        sigma_a: Value = math.sqrt(h2_at_mu)
        g_at_mu = as_expr(g_at_mu)
        normalizer = as_expr(1.0 / sigma_a) if plain else None
    else:
        # one ring per value, so an algebraic variance is canonical even when
        # g(mu) is transcendental; a transcendental variance stays as is, and
        # its positivity is checked numerically
        def canonical(e: Expr) -> Expr:
            ring, (v,) = _ring_of((e,), kernels)
            return ring.finish(v)

        g_at_mu, h2_at_mu = canonical(g_at_mu), canonical(h2_at_mu)
        if h2_at_mu == ZERO:
            raise ModelError("zero asymptotic variance at the moment point")
        kernels.register(h2_at_mu)
        sigma_a = sqrt(h2_at_mu, kernels)
        normalizer = pow_(h2_at_mu, Fraction(-1, 2), kernels) if plain else None
    if not plain:
        normalizer = pow_(h2, Fraction(-1, 2), kernels)
    a_expr = mul(sub(g, g_at_mu), normalizer)

    deriv_exprs: dict[tuple[int, ...], Expr] = {(): a_expr}
    deriv: dict[tuple[int, ...], Value] = {}
    for order in (1, 2, 3):
        for t in _sorted_tuples(dims, order):
            deriv_exprs[t] = differentiate(deriv_exprs[t[:-1]], t[-1], kernels)
            deriv[t] = at(deriv_exprs[t])

    return StatModel(
        g=g,
        d=d,
        mode=mode,
        dims=dims,
        h2_expr=h2,
        sigma_a=sigma_a,
        a_expr=a_expr,
        deriv=deriv,
        spec=spec,
        params=params,
        kernels=kernels,
    )


# ---------------------------------------------------------------------------
# Value rings
# ---------------------------------------------------------------------------

def _convert(ring: Ring, v, memo: dict):
    """``v`` (an Expr, or a float for the float ring) as a ring value;
    ``memo`` shares the normal forms of subtrees by node id.  Normal forms go
    through this module's ``_to_nf`` name, which ``bench/tracing.py`` times."""
    if ring.kind == "nf":
        return _to_nf(v, memo)
    return float(v) if ring.kind == "float" else v


def _ring_of(values, kernels: KernelRegistry | None = None) -> tuple[Ring, list]:
    """The one value-ring rule, and ``values`` converted into the ring it
    picks: floats when no value is an Expr, else exact normal forms, else
    (a value is transcendental) plain expressions carrying ``kernels``."""
    values = list(values)
    ring = Ring("nf" if any(isinstance(v, Expr) for v in values) else "float")
    memo: dict[int, NormalForm] = {}  # by node id: ``values`` keeps the nodes alive
    try:
        return ring, [_convert(ring, v, memo) for v in values]
    except TranscendentalResidueError:
        return Ring("expr", kernels=kernels), values


def _model_ring(model: StatModel) -> tuple[Ring, dict]:
    """The value ring of the derivative table and the table converted into
    it (a function of its own: ``bench/tracing.py`` records its ring)."""
    ring, values = _ring_of(model.deriv.values(), model.kernels)
    return ring, dict(zip(model.deriv, values))


class _MomentView:
    """Ring-converted, memoized access to the cross moments of ``spec``."""

    def __init__(self, spec: MomentSpec, ring: Ring):
        self.spec = spec
        self.ring = ring
        self._cache: dict[tuple[int, ...], object] = {}
        self._memo: dict[int, NormalForm] = {}
        # the view lives on the model, which may outlive cross_moment's cache:
        # holding each converted moment keeps the node ids _memo keys alive
        self._moments: list = []

    def __call__(self, *indices: int):
        key = tuple(sorted(indices))
        got = self._cache.get(key)
        if got is None:
            # through the module: bench/tracing.py times moments.cross_moment
            moment = moments.cross_moment(self.spec, key)
            self._moments.append(moment)
            got = self._cache[key] = _convert(self.ring, moment, self._memo)
        return got


def _first_order(model: StatModel):
    """What both contractions start from: the ring, the converted derivative
    table, the moment view, the indices of the nonzero first derivatives,
    S2 = sum a_i a_j mu_ij and A = sum a_i a_j a_k mu_ijk (k31's first term).
    Each runs over sorted index tuples weighted by their multiplicity.  Built
    once per model and kept on ``model.first_order``."""
    if model.first_order is not None:
        return model.first_order
    ring, a = _model_ring(model)
    M = _MomentView(model.spec, ring)
    D = model.dims
    nonzero1 = [i for i in range(1, D + 1) if not ring.is_zero(a[(i,)])]
    S2 = ring.sum(
        Fraction(_multiplicity(t)) * (a[(t[0],)] * a[(t[1],)] * M(*t))
        for t in _sorted_tuples(D, 2)
        if t[0] in nonzero1 and t[1] in nonzero1
    )
    A = ring.sum(
        Fraction(_multiplicity(t)) * (a[(t[0],)] * a[(t[1],)] * a[(t[2],)] * M(*t))
        for t in _sorted_tuples(D, 3)
        if all(i in nonzero1 for i in t)
    )
    model.first_order = ring, a, M, nonzero1, S2, A
    return model.first_order


@dataclass
class CumulantCoeffs:
    k12: Value
    k22: Value
    k31: Value
    k41: Value


def cumulant_coeffs(model: StatModel) -> CumulantCoeffs:
    """Symmetry-reduced evaluation of the four expansion coefficients.

    Derivative and moment symmetry are exploited through sorted-tuple
    lookups and vector/matrix contractions of the nested sums.  Cost in
    ring products, for D = ``model.dims``: S2, k12 and k31_t2 run over the
    D^2/2 sorted pairs, k31_t1 = A and k41_t4 over the D^3/6 sorted triples,
    and k41_t1 over the D^4/24 sorted quadruples.  The vectors B = mu2 . a1
    and C = a2 . B cost D^2 each, T costs D^3/2, and k22_t1, k22_t3 and the
    matrix N of k22_t2 cost D^3.  Given C,
    k41_t2 = 12 C . T costs D and k41_t3 = 12 C' mu2 C costs D^2/2.
    """
    ring, a, M, nonzero1, S2, A = _first_order(model)
    D = model.dims
    rng1 = range(1, D + 1)
    _sum = ring.sum

    def a1(i):
        return a[(i,)]

    # B_j = sum_i a_i mu_ij
    B = {
        j: _sum(a1(i) * M(i, j) for i in nonzero1)
        for j in rng1
    }

    pairs = [(t, _multiplicity(t)) for t in _sorted_tuples(D, 2)]
    triples = [(t, _multiplicity(t)) for t in _sorted_tuples(D, 3)]
    quads = [(t, _multiplicity(t)) for t in _sorted_tuples(D, 4)]

    k12 = Fraction(1, 2) * _sum(
        Fraction(m) * (a[t] * M(*t)) for t, m in pairs if not ring.is_zero(a[t])
    )

    k31_t2 = _sum(
        Fraction(3 * m) * (a[t] * B[t[0]] * B[t[1]])
        for t, m in pairs
        if not ring.is_zero(a[t])
    )
    k31 = A + k31_t2

    k22_t1 = _sum(
        a1(i) * _sum(
            Fraction(m) * (a[t] * M(i, t[0], t[1]))
            for t, m in pairs
            if not ring.is_zero(a[t])
        )
        for i in nonzero1
    )
    # N = a2 . M  (matrix product over pair lookups)
    N = {}
    for i in rng1:
        for j in rng1:
            N[(i, j)] = _sum(
                a[tuple(sorted((i, k)))] * M(k, j)
                for k in rng1
                if not ring.is_zero(a[tuple(sorted((i, k)))])
            )
    k22_t2 = Fraction(1, 2) * _sum(N[(i, j)] * N[(j, i)] for i in rng1 for j in rng1)
    k22_t3 = _sum(
        B[j] * _sum(
            Fraction(m) * (a[tuple(sorted((j,) + t))] * M(*t))
            for t, m in pairs
            if not ring.is_zero(a[tuple(sorted((j,) + t))])
        )
        for j in rng1
    )
    k22 = k22_t1 + k22_t2 + k22_t3

    k41_t1 = _sum(
        Fraction(m) * (a1(i) * a1(j) * a1(k) * a1(l) * M(i, j, k, l))
        for (i, j, k, l), m in quads
        if i in nonzero1 and j in nonzero1 and k in nonzero1 and l in nonzero1
    ) - Fraction(3) * (S2 * S2)
    T = {
        m_idx: _sum(
            Fraction(m) * (a1(j) * a1(k) * M(j, k, m_idx))
            for (j, k), m in pairs
            if j in nonzero1 and k in nonzero1
        )
        for m_idx in rng1
    }
    # C = a2 . B; both D^4 sums over a2 a2 (or a2 B T) factor through it
    C = {
        l: _sum(
            a[tuple(sorted((k, l)))] * B[k]
            for k in rng1
            if not ring.is_zero(a[tuple(sorted((k, l)))])
        )
        for l in rng1
    }
    nonzero_c = [l for l in rng1 if not ring.is_zero(C[l])]
    k41_t2 = Fraction(12) * _sum(C[m_idx] * T[m_idx] for m_idx in nonzero_c)
    k41_t3 = Fraction(12) * _sum(
        Fraction(m) * (C[l] * C[o] * M(l, o))
        for (l, o), m in pairs
        if l in nonzero_c and o in nonzero_c
    )
    k41_t4 = Fraction(4) * _sum(
        Fraction(m) * (a[t] * B[t[0]] * B[t[1]] * B[t[2]])
        for t, m in triples
        if not ring.is_zero(a[t])
    )
    k41 = k41_t1 + k41_t2 + k41_t3 + k41_t4

    return CumulantCoeffs(
        k12=ring.finish(k12),
        k22=ring.finish(k22),
        k31=ring.finish(k31),
        k41=ring.finish(k41),
    )


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Univariate polynomial with Expr or float coefficients, degree <= 5."""

    coeffs: tuple[Value, ...]  # coeffs[k] multiplies x^k

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: float, bindings: Bindings | None = None) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            cv = c if isinstance(c, float) else float(
                eval_numeric(c, bindings or Bindings())
            )
            acc = acc * x + cv
        return acc

    def to_expr(self, variable: Expr | None = None) -> Expr:
        x = variable if variable is not None else Sym("x")
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            ce = as_expr(self.coeffs[k])
            if ce == ZERO:
                continue
            terms.append(mul(ce, pow_(x, Fraction(k))))
        return expr_add(*terms) if terms else ZERO


def _finished(ring: Ring, coeffs) -> Poly:
    return Poly(tuple(ring.finish(c) for c in coeffs))


def edgeworth_polys(k: CumulantCoeffs) -> tuple[Poly, Poly]:
    """p1(x) = -(k12 + k31 (x^2-1)/6);
    p2(x) = -x ((k22+k12^2)/2 + (k41+4 k12 k31)(x^2-3)/24
            + k31^2 (x^4-10x^2+15)/72)."""
    ring, (k12, k22, k31, k41) = _ring_of((k.k12, k.k22, k.k31, k.k41))
    c_a = Fraction(1, 2) * (k22 + k12 * k12)
    c_b = Fraction(1, 24) * (k41 + Fraction(4) * (k12 * k31))
    c_c = Fraction(1, 72) * (k31 * k31)
    zero = ring.zero
    p1 = (-(k12 - Fraction(1, 6) * k31), zero, -(Fraction(1, 6) * k31))
    p2 = (zero, -(c_a - Fraction(3) * c_b + Fraction(15) * c_c), zero,
          -(c_b - Fraction(10) * c_c), zero, -c_c)
    return _finished(ring, p1), _finished(ring, p2)


def cornish_fisher_polys(p1: Poly, p2: Poly) -> tuple[Poly, Poly]:
    """p11 = -p1;  p21 = p1 p1' - x p1^2 / 2 - p2 (Hall 1992, sec. 2.5), for
    p1 = a0 + a2 x^2 and p2 = b1 x + b3 x^3 + b5 x^5 as :func:`edgeworth_polys`
    gives them.  p21's x^5 coefficient -a2^2/2 - b5 is identically zero
    (b5 = -k31^2/72 = -a2^2/2), so p21 is odd with degree 3."""
    ring, (a0, a2, b1, b3) = _ring_of(
        (p1.coeffs[0], p1.coeffs[2], p2.coeffs[1], p2.coeffs[3]))
    zero = ring.zero
    p11 = (-a0, zero, -a2)
    p21 = (zero, a0 * (Fraction(2) * a2) - Fraction(1, 2) * (a0 * a0) - b1,
           zero, a2 * (Fraction(2) * a2) - a0 * a2 - b3)
    return _finished(ring, p11), _finished(ring, p21)


def scale_adjust(p1: Poly, p2: Poly, gamma: Fraction) -> tuple[Poly, Poly]:
    """Expansion of the statistic rescaled by (1 - gamma/n): p2 gains gamma*x."""
    ring, coeffs = _ring_of(p2.coeffs)
    coeffs[1] = coeffs[1] + Fraction(gamma)
    return p1, _finished(ring, coeffs)


# ---------------------------------------------------------------------------
# Acceleration constant
# ---------------------------------------------------------------------------

@dataclass
class AccelResult:
    A_value: Value
    sigma3: Value
    a_over_sqrtn: Value  # divide by sqrt(n) at use time


def accel_constant(model: StatModel) -> AccelResult:
    """A = sum a_i a_j a_k mu_ijk over first derivatives; a = A/(6 sigma^3 sqrt(n))
    with sigma^2 = sum a_i a_j mu_ij from the same derivative set."""
    ring, _, _, nonzero1, S2, A = _first_order(model)
    if not nonzero1 or (ring.kind == "float" and (not math.isfinite(S2) or S2 <= 0)):
        raise ModelError("zero asymptotic variance in acceleration constant")
    sigma3 = ring.pow(S2, Fraction(3, 2))
    a_over = A / (Fraction(6) * sigma3)
    return AccelResult(
        A_value=ring.finish(A),
        sigma3=ring.finish(sigma3),
        a_over_sqrtn=ring.finish(a_over),
    )


# ---------------------------------------------------------------------------
# CDF / quantile evaluation
# ---------------------------------------------------------------------------

def cdf_eval(
    p1: Poly,
    p2: Poly,
    bindings: Bindings | None,
    n: int,
    x: float,
    order: int = 2,
) -> float:
    """Phi(x) + n^{-1/2} p1(x) phi(x) + n^{-1} p2(x) phi(x), truncated at
    ``order``.  Raw value: not clipped or monotonized."""
    if n < 2:
        raise ModelError("n must be >= 2")
    if order not in (0, 1, 2):
        raise ModelError("order must be 0, 1 or 2")
    out = norm_cdf(float(x))
    if order >= 1:
        out += p1.eval(x, bindings) * norm_pdf(float(x)) / math.sqrt(n)
    if order >= 2:
        out += p2.eval(x, bindings) * norm_pdf(float(x)) / n
    return float(out)


def quantile_eval(
    p11: Poly,
    p21: Poly,
    bindings: Bindings | None,
    n: int,
    alpha: float,
) -> float:
    """Cornish-Fisher quantile w_alpha = z + n^{-1/2} p11(z) + n^{-1} p21(z)."""
    if not 0.0 < alpha < 1.0:
        raise ModelError("alpha must lie in (0, 1)")
    if n < 2:
        raise ModelError("n must be >= 2")
    z = norm_ppf(alpha)
    return z + p11.eval(z, bindings) / math.sqrt(n) + p21.eval(z, bindings) / n
