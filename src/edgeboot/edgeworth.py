"""Second-order expansion machinery for smooth functions of power-means.

Given a statistic ``g`` over power-mean slots ``x1..xd``, this module builds
the normalized statistic (plain or studentized), its partial-derivative
table at the moment point, the four cumulant coefficients k12, k22, k31,
k41, the Edgeworth polynomials p1/p2, the Cornish-Fisher polynomials
p11/p21, the normalizing-constant adjustment, and the acceleration constant
for bias-corrected-accelerated bootstrap intervals.

The studentizing denominator is derived automatically from the statistic:
``h^2 = sum_{i,j<=d} dh/dy_i dh/dy_j (y_{i+j} - y_i y_j)``, the plug-in
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

The model lives in the centered power means ``y_j = mean((W - mu)^j)``, an
invertible linear map of the raw ones that leaves every coefficient
unchanged: ``h`` is ``g`` over them, and the normalized statistic and its
table are taken in them.  No cross moment carries ``mu``, and a
location-invariant ``g`` (a variance, b1, b2) sheds it altogether,
symbolically and in floats alike; Monte Carlo draws evaluate the same
statistic over ``W - mu``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
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
    _registered_pow,
    _to_nf,
    differentiate,
    eval_numeric,
    substitute,
)
from .expr import (
    Add,
    Const,
    Expr,
    KernelRegistry,
    Mul,
    Pow,
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
        try:
            return Mode(text.strip().lower())
        except ValueError:
            raise ModelError(f"unknown mode {text!r}") from None


@dataclass
class StatModel:
    """A statistic g over d power-means plus its normalized function."""

    g: Expr
    h: Expr  # g over y_j = mean((W - mu)^j), mu = spec.mean; g itself at mu = 0
    d: int
    mode: Mode
    dims: int
    sigma_a: Value  # the asymptotic standard deviation, at the moment point
    # the normalized h over y1..y_dims; deriv is its table at the moment point
    a_expr: Expr
    deriv: dict[tuple[int, ...], Value]
    spec: MomentSpec  # the caller's spec: deriv is taken at _at_mean_zero(spec)
    params: dict[str, float]
    kernels: KernelRegistry
    # what cumulant_coeffs and accel_constant share, filled by the first _first_order call
    first_order: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Statistic:
    """What a bootstrap interval reads of a statistic to fit its model: g, its
    parameter values and its square-root kernels.  A :class:`StatModel` serves as well."""

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


def model_shape(g: Expr, mode: Mode) -> tuple[int, int, int]:
    """(d, dims, K): the power-mean count, the slots of the normalized
    statistic and the moment order its expansion needs."""
    d = arity(g)
    if d < 1:
        raise ModelError("statistic must depend on at least x1")
    dims = d if mode is Mode.NONSTUDENTIZED else 2 * d
    return d, dims, max(2 * d, 4 * dims)


def as_expr(v: Value) -> Expr:
    """An Expr as is; a float as the exact rational of its double."""
    return v if isinstance(v, Expr) else Const(Fraction(float(v)))


def _centered(g: Expr, mu: Expr, kernels: KernelRegistry) -> Expr:
    """``g`` over the centered power means ``y_j = mean((W - mu)^j)``, by ``x_k =
    sum_j C(k, j) mu^(k-j) y_j``: each maximal rational subtree canonical, and the
    half powers and exp/Phi/phi rebuilt around them (new radicands in ``kernels``)."""
    to_y = {Var(k): expr_add(pow_(mu, k), *(mul(Const(math.comb(k, j)), pow_(mu, k - j), Var(j))
                                             for j in range(1, k + 1)))
            for k in range(1, arity(g) + 1)}

    def canonical(image: Expr, rational: bool) -> Expr:
        return _to_nf(image).canonical().to_expr() if rational else image

    def walk(e: Expr) -> tuple[Expr, bool]:  # (the image of e, whether e is rational)
        if isinstance(e, (Const, Sym, Var)):
            return to_y.get(e, e), True
        if isinstance(e, Pow):
            base, rational = walk(e.base)
            if rational and e.exponent.denominator == 1:
                return pow_(base, e.exponent), True
            return _registered_pow(kernels, canonical(base, rational), e.exponent), False
        if not isinstance(e, (Add, Mul)):  # exp, Phi, phi
            return type(e)(canonical(*walk(e.arg))), False
        build = expr_add if isinstance(e, Add) else mul
        kids = [walk(c) for c in (e.terms if isinstance(e, Add) else e.factors)]
        if all(rational for _, rational in kids):
            return build(*(image for image, _ in kids)), True
        return build(*(canonical(*kid) for kid in kids)), False

    return canonical(*walk(g))


def _at_mean_zero(spec: MomentSpec) -> MomentSpec:
    """``spec`` shifted to its mean: the moments of ``W - mu``, the point of the
    derivative table and the spec of its cross moments."""
    return replace(spec, mean=ZERO if spec.is_symbolic else 0.0)


def build_model(
    g: Expr,
    mode: Mode,
    spec: MomentSpec,
    params: Mapping[str, float] | None = None,
    kernels: KernelRegistry | None = None,
) -> StatModel:
    """Construct the normalized statistic and its derivative table at the
    moment point, both over the centered power means."""
    params = dict(params or {})
    kernels = kernels or KernelRegistry()
    d, dims, needed_K = model_shape(g, mode)
    if spec.K < needed_K:
        raise MomentOrderError(
            f"moment spec provides K={spec.K} but the model needs {needed_K}"
        )

    numeric = not spec.is_symbolic
    # over the centered power means no moment carries mu (see _centered): h is
    # the statistic over the slots the derivative table is taken in
    mu = as_expr(spec.mean)
    h = g if mu == ZERO else _centered(g, mu, kernels)
    point = {Var(i): raw_moment(_at_mean_zero(spec), i) for i in range(1, 2 * d + 1)}
    env = Bindings(params, {v.index: float(r) for v, r in point.items()}) if numeric else None

    def at(e: Expr, memo: dict | None = None) -> Value:
        return eval_numeric(e, env, memo) if numeric else substitute(e, point, kernels, memo)

    slopes = [(i, hi) for i in range(1, d + 1) if (hi := differentiate(h, i, kernels)) != ZERO]
    if not slopes:
        raise ModelError("zero asymptotic variance: statistic has no slope")
    h2 = expr_add(*[mul(hi, hj, sub(Var(i + j), mul(Var(i), Var(j))))
                    for i, hi in slopes for j, hj in slopes])
    kernels.register(h2)
    h_at_mu, h2_at_mu = at(h), at(h2)
    plain = mode is Mode.NONSTUDENTIZED
    if numeric:
        if not (math.isfinite(h2_at_mu) and h2_at_mu > 0):
            raise ModelError(f"zero or invalid asymptotic variance {h2_at_mu}")
        sigma_a: Value = math.sqrt(h2_at_mu)
        h_at_mu = as_expr(h_at_mu)
        normalizer = as_expr(1.0 / sigma_a) if plain else None
    else:
        # one ring per value, so an algebraic variance is canonical even when
        # h(mu) is transcendental; a transcendental variance stays as is, and
        # its positivity is checked numerically
        def canonical(e: Expr) -> Expr:
            ring, (v,) = _ring_of((e,), kernels)
            return ring.finish(v)

        h_at_mu, h2_at_mu = canonical(h_at_mu), canonical(h2_at_mu)
        if h2_at_mu == ZERO:
            raise ModelError("zero asymptotic variance at the moment point")
        kernels.register(h2_at_mu)
        sigma_a = sqrt(h2_at_mu, kernels)
        normalizer = pow_(h2_at_mu, Fraction(-1, 2), kernels) if plain else None

    a_expr = mul(sub(h, h_at_mu), normalizer if plain else pow_(h2, Fraction(-1, 2), kernels))
    deriv_exprs: dict[tuple[int, ...], Expr] = {(): a_expr}
    deriv: dict[tuple[int, ...], Value] = {}
    # memos shared by every entry, made after the last register
    memos, at_memo = {i: {} for i in range(1, dims + 1)}, {}
    for order in (1, 2, 3):
        for t in _sorted_tuples(dims, order):
            deriv_exprs[t] = differentiate(deriv_exprs[t[:-1]], t[-1], kernels, memos[t[-1]])
            deriv[t] = at(deriv_exprs[t], at_memo)

    return StatModel(
        g=g,
        h=h,
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


# ---------------------------------------------------------------------------
# Value rings
# ---------------------------------------------------------------------------

def _convert(ring: Ring, v, memo: dict):
    """``v`` (an Expr, or a float for the float ring) as a ring value;
    ``memo`` shares the normal forms of subtrees by node.  Normal forms go
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
    memo: dict[Expr, NormalForm] = {}
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
        self._memo: dict[Expr, NormalForm] = {}

    def __call__(self, *indices: int):
        key = tuple(sorted(indices))
        got = self._cache.get(key)
        if got is None:
            # through the module: bench/tracing.py times moments.cross_moment
            moment = moments.cross_moment(self.spec, key)
            got = self._cache[key] = _convert(self.ring, moment, self._memo)
        return got


def _first_order(model: StatModel):
    """What both contractions start from: the ring, the converted derivative
    table, the moment view, the indices of the nonzero first derivatives and
    A = sum a_i a_j a_k mu_ijk (k31's first term) over sorted triples weighted
    by their multiplicity; built once per model, kept on ``model.first_order``.
    The variance sum a_i a_j mu_ij is not formed: it is h2(mu)/h2(mu) = 1 in
    both modes (when studentized, the slots above ``d`` have zero first
    derivative, as ``h - h(mu)`` vanishes at the point)."""
    if model.first_order is not None:
        return model.first_order
    ring, a = _model_ring(model)
    M = _MomentView(_at_mean_zero(model.spec), ring)
    D = model.dims
    nonzero1 = [i for i in range(1, D + 1) if not ring.is_zero(a[(i,)])]
    A = ring.sum(
        Fraction(_multiplicity(t)) * (a[(t[0],)] * a[(t[1],)] * a[(t[2],)] * M(*t))
        for t in _sorted_tuples(D, 3)
        if all(i in nonzero1 for i in t)
    )
    model.first_order = ring, a, M, nonzero1, A
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
    ring products, for D = ``model.dims``: k12 and k31_t2 run over the
    D^2/2 sorted pairs, k31_t1 = A and k41_t4 over the D^3/6 sorted triples,
    and k41_t1 over the D^4/24 sorted quadruples.  The vectors B = mu2 . a1
    and C = a2 . B cost D^2 each, T costs D^3/2, and k22_t1, k22_t3 and the
    matrix N of k22_t2 cost D^3.  Given C,
    k41_t2 = 12 C . T costs D and k41_t3 = 12 C' mu2 C costs D^2/2.
    """
    ring, a, M, nonzero1, A = _first_order(model)
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
    ) - Fraction(3)  # 3 (sum a_i a_j mu_ij)^2, which is 1
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

    def eval(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            cv = c if isinstance(c, float) else float(eval_numeric(c, Bindings()))
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
    a_over_sqrtn: Value  # divide by sqrt(n) at use time


def accel_constant(model: StatModel) -> AccelResult:
    """A = sum a_i a_j a_k mu_ijk over first derivatives; Efron's
    a = A/(6 sigma^3 sqrt(n)) is A/(6 sqrt(n)), as the normalized statistic
    has sigma = 1 (see :func:`_first_order`)."""
    ring, _, _, _, A = _first_order(model)
    return AccelResult(A_value=ring.finish(A), a_over_sqrtn=ring.finish(A / Fraction(6)))


# ---------------------------------------------------------------------------
# CDF / quantile evaluation
# ---------------------------------------------------------------------------

def cdf_eval(p1: Poly, p2: Poly, n: int, x: float, order: int = 2) -> float:
    """Phi(x) + n^{-1/2} p1(x) phi(x) + n^{-1} p2(x) phi(x), truncated at
    ``order``.  Raw value: not clipped or monotonized."""
    if n < 2:
        raise ModelError("n must be >= 2")
    if order not in (0, 1, 2):
        raise ModelError("order must be 0, 1 or 2")
    if not math.isfinite(x):
        raise ModelError("x must be finite")
    out = norm_cdf(float(x))
    if order >= 1:
        out += p1.eval(x) * norm_pdf(float(x)) / math.sqrt(n)
    if order >= 2:
        out += p2.eval(x) * norm_pdf(float(x)) / n
    return float(out)


def quantile_eval(p11: Poly, p21: Poly, n: int, alpha: float) -> float:
    """Cornish-Fisher quantile w_alpha = z + n^{-1/2} p11(z) + n^{-1} p21(z)."""
    if not 0.0 < alpha < 1.0:
        raise ModelError("alpha must lie in (0, 1)")
    if n < 2:
        raise ModelError("n must be >= 2")
    z = norm_ppf(alpha)
    return z + p11.eval(z) / math.sqrt(n) + p21.eval(z) / n
