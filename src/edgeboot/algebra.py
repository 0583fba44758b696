"""Symbolic calculus and canonical forms on the expression language.

Provides exact differentiation (with built-in rules for ``exp``, ``Phi``,
``phi``), a canonical :class:`NormalForm` for the
rational-with-square-root-kernels subclass, and one memoised evaluator,
:func:`evaluate`, over three value rings (:class:`Ring`): simultaneous
substitution is evaluation in the ``expr`` ring, double precision (scalar or
numpy-array bindings) in the ``float`` ring and normal forms in the ``nf``
ring.

A normal form is a fraction of two multivariate polynomials with exact
rational coefficients.  Square roots are adjoined as kernel generators
``s`` with the rewrite rule ``s^2 -> radicand``; denominators are kept
kernel-free (rationalized) and monic under a graded-lexicographic monomial
order with variables < symbols < kernels.  Radicand canonicalization pulls
out rational squares, even powers of positive atoms and fourth powers of
any atom; it does not detect perfect squares of general polynomials.

Expressions still containing ``exp``/``Phi``/``phi`` after substitution do
not normalize; equality checking for those falls back to comparison at
deterministic pseudo-random bindings and is reported as numeric.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

from .expr import (
    Add,
    Const,
    Exp,
    Expr,
    KernelRegistry,
    Mul,
    NormCdf,
    NormPdf,
    POSITIVE_SYMBOLS,
    Pow,
    Sym,
    Var,
    ZERO,
    ONE,
    add,
    arity,
    free_symbols,
    mul,
    neg,
    pow_,
    pretty_print,
    rational_sqrt,
    sub,
)

if TYPE_CHECKING:
    import numpy as np


class AlgebraError(Exception):
    """Base error for the algebra layer."""


class TranscendentalResidueError(AlgebraError):
    """normalize() hit an exp/Phi/phi node: transcendental residue."""


class EvalError(AlgebraError):
    """Numeric evaluation failed (unbound symbol, domain violation)."""


class DomainError(EvalError):
    """Negative base under fractional power, division by zero, or overflow."""


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, index: int, kernels: KernelRegistry | None = None,
                  memo: dict[Expr, Expr] | None = None) -> Expr:
    """Exact partial derivative with respect to ``x<index>``.

    Chain rules: d Phi(u) = phi(u) du, d phi(u) = -u phi(u) du,
    d exp(u) = exp(u) du.  Equal subtrees are differentiated once per ``memo``
    (one per index and registry).
    """
    if memo is None:
        memo = {}
    out = memo.get(e)
    if out is None:
        out = memo[e] = _differentiate_node(e, index, kernels, memo)
    return out


def _differentiate_node(e: Expr, index: int, kernels, memo) -> Expr:
    if isinstance(e, (Const, Sym)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == index else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, index, kernels, memo) for t in e.terms])
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, index, kernels, memo)
            if df != ZERO:
                pieces.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*pieces)
    if isinstance(e, Pow):
        db = differentiate(e.base, index, kernels, memo)
        if db == ZERO:
            return ZERO
        return mul(Const(e.exponent), pow_(e.base, e.exponent - 1, kernels), db)
    if isinstance(e, Exp):
        du = differentiate(e.arg, index, kernels, memo)
        return ZERO if du == ZERO else mul(e, du)
    if isinstance(e, NormCdf):
        du = differentiate(e.arg, index, kernels, memo)
        return ZERO if du == ZERO else mul(NormPdf(e.arg), du)
    if isinstance(e, NormPdf):
        du = differentiate(e.arg, index, kernels, memo)
        return ZERO if du == ZERO else mul(neg(e.arg), e, du)
    raise AlgebraError(f"unsupported primitive for differentiation: {e!r}")


# ---------------------------------------------------------------------------
# Substitution and numeric evaluation (both through :func:`evaluate`)
# ---------------------------------------------------------------------------

def substitute(e: Expr, mapping: Mapping[Expr, Expr],
               kernels: KernelRegistry | None = None, memo: dict | None = None) -> Expr:
    """Simultaneous substitution of Sym/Var nodes; rebuilds canonically, each subtree
    once per ``memo`` (one per mapping and registry)."""
    ring = Ring("expr", mapping, kernels)
    return evaluate(e, ring, {} if memo is None else memo) if mapping else e


Number = Union[float, "np.ndarray"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Bindings:
    """Values for symbols (by name) and variables (by index).

    ``pi`` is bound automatically.  Values may be floats or numpy arrays;
    with array values, domain violations propagate as NaN instead of
    raising, so callers can count undefined draws.
    """

    syms: Mapping[str, Number] = field(default_factory=dict)
    vars: Mapping[int, Number] = field(default_factory=dict)


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array, without importing numpy: no array can
    exist before numpy has been imported."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


# numpy and scipy load on the first array or quantile, so the symbolic
# commands never pay for them
def norm_cdf(u: Number) -> Number:
    if _is_array(u):
        from scipy.special import ndtr

        return ndtr(u)
    return 0.5 * math.erfc(-u / _SQRT2)


def norm_pdf(u: Number) -> Number:
    if _is_array(u):
        import numpy as np

        return _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return _INV_SQRT_2PI * math.exp(-0.5 * u * u)


def norm_ppf(p: float) -> float:
    """The standard normal quantile Phi^{-1}(p)."""
    from scipy.special import ndtri

    return float(ndtri(p))


def eval_numeric(e: Expr, b: Bindings, memo: dict | None = None) -> Number:
    """Evaluate to double precision.  Raises :class:`EvalError` for unbound
    symbols; :class:`DomainError` for scalar domain violations.  Equal
    subtrees are one interned node and are evaluated once per ``memo`` (one
    per bindings)."""
    return evaluate(e, Ring("float", b), {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Multivariate polynomials over Q with square-root kernels
#
# Generators are tagged tuples:  (0, i) variable x_i, (1, name) symbol,
# (2, radicand_key) kernel.  A monomial is a tuple of (gen, exp) pairs
# sorted by generator; a polynomial maps monomials to rational coefficients,
# each an int when integral and a Fraction otherwise (see MPoly).
# ---------------------------------------------------------------------------

Gen = tuple
Monomial = tuple
EMPTY_MONO: Monomial = ()
Coeff = Union[int, Fraction]


def _norm(c: Coeff) -> Coeff:
    """An integral coefficient as an int; any other stays a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _mono_key(m: Monomial):
    # total degree first, then the sorted (gen, exp) sequence; not a monomial
    # order (x2 > x1 but x1*x1 > x1*x2), so it fixes only monic scaling and
    # print order
    return (sum(e for _, e in m), m)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted((g, e) for g, e in d.items() if e != 0))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial | None:
    d = dict(m1)
    for g, e in m2:
        r = d.get(g, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(g, None)
        else:
            d[g] = r
    return tuple(sorted(d.items()))


class MPoly:
    """Sparse multivariate polynomial with rational coefficients.

    Each coefficient is nonzero, an ``int`` when it is integral and a
    ``Fraction`` otherwise, so integer products skip Fraction arithmetic.
    ``int`` and ``Fraction`` compare and hash equal, so keys and lookups see
    no difference; coefficient division goes through ``Fraction``, since
    ``int / int`` is a float.

    A product accumulates its term products into one dict, so it costs one
    pass over the |a|*|b| term pairs.  Those with a squared or a second
    kernel are grouped by their kernel part, and each group goes through
    :func:`_reduce_kernels` once.  Division by a monomial is termwise; any
    other division, and every gcd, runs in sympy's sparse ring
    (:func:`_in_ring`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Coeff] | None = None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def constant(c: Coeff) -> "MPoly":
        return MPoly({EMPTY_MONO: _norm(c)}) if c != 0 else MPoly()

    @staticmethod
    def gen(g: Gen) -> "MPoly":
        return MPoly({((g, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Canonical hashable form (used as kernel radicand identity)."""
        return tuple(
            sorted((m, (c.numerator, c.denominator)) for m, c in self.terms.items())
        )

    @staticmethod
    def from_key(key: tuple) -> "MPoly":
        return MPoly({m: n if d == 1 else Fraction(n, d) for m, (n, d) in key})

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = _norm(s)
        return MPoly(out)

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def scale(self, c: Coeff) -> "MPoly":
        if c == 0:
            return MPoly()
        return MPoly({m: _norm(v * c) for m, v in self.terms.items()})

    def mono_scale(self, mono: Monomial, c: Coeff) -> "MPoly":
        out: dict[Monomial, Coeff] = {}
        for m, v in self.terms.items():
            out[_mono_mul(m, mono)] = _norm(v * c)
        return MPoly(out)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict[Monomial, Coeff] = {}
        # term products that need _reduce_kernels, as plain parts summed per
        # kernel part; kernels sort last, so a monomial needs reduction only
        # for a squared last kernel or a kernel before the last one
        buckets: dict[Monomial, dict[Monomial, Coeff]] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m and m[-1][0][0] == 2 and (
                    m[-1][1] >= 2 or (len(m) >= 2 and m[-2][0][0] == 2)
                ):
                    k = len(m) - 1  # m[k:] is the kernel part
                    while k and m[k - 1][0][0] == 2:
                        k -= 1
                    plain = buckets.setdefault(m[k:], {})
                    pm = m[:k]
                    if pm in plain:
                        plain[pm] += c
                    else:
                        plain[pm] = c
                elif m in out:
                    out[m] += c
                else:
                    out[m] = c
        for kpart, plain in buckets.items():
            group = MPoly({m: c for m, c in plain.items() if c != 0})
            if group.is_zero:
                continue
            # a kernel-free group times at most one unreduced kernel: this
            # product fills no buckets of its own
            for m, c in (group * _reduce_kernels(kpart, 1)).terms.items():
                if m in out:
                    out[m] += c
                else:
                    out[m] = c
        return MPoly({m: _norm(c) for m, c in out.items() if c != 0})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = MPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term under ``_mono_key``; the coefficient as a Fraction,
        so that callers may divide by it."""
        m = max(self.terms, key=_mono_key)
        return m, Fraction(self.terms[m])

    def content(self) -> Fraction:
        """Positive rational content; sign carried by the leading coefficient."""
        if self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def divexact(self, g: "MPoly") -> "MPoly | None":
        """Exact quotient self/g, or None when g does not divide self.

        A one-term divisor divides termwise, in time linear in ``self``; any
        other divisor goes through sympy's ``PolyElement.div``, with kernels
        as plain generators, and divides exactly when the remainder is zero.
        """
        if g.is_zero:
            raise AlgebraError("division by zero polynomial")
        if self.is_zero:
            return MPoly()
        if len(g.terms) == 1:
            (gm, gc), = g.terms.items()
            inv = _norm(1 / Fraction(gc))
            q: dict[Monomial, Coeff] = {}
            for m, c in self.terms.items():
                mq = _mono_div(m, gm)
                if mq is None:
                    return None
                q[mq] = _norm(c * inv)
            return MPoly(q)
        (f, h), back = _in_ring([self, g])
        q, r = f.div(h)
        return None if r else back(q)

    def has_kernels(self) -> bool:
        return any(g[0] == 2 for m in self.terms for g, _ in m)

    def gens(self) -> set[Gen]:
        return {g for m in self.terms for g, _ in m}


def _reduce_kernels(m: Monomial, c: Coeff) -> MPoly:
    """Rewrite kernel powers: s^2 -> radicand; merge distinct kernels."""
    c = _norm(c)
    kernel_items = [(g, e) for g, e in m if g[0] == 2]
    if not (any(e >= 2 for _, e in kernel_items) or len(kernel_items) >= 2):
        return MPoly({m: c})
    plain = tuple((g, e) for g, e in m if g[0] != 2)
    out = MPoly({plain: c})
    odd_gens: list[Gen] = []
    for g, e in kernel_items:
        half, odd = divmod(e, 2)
        if half:
            out = out * MPoly.from_key(g[1]) ** half  # radicands are kernel-free
        if odd:
            odd_gens.append(g)
    if len(odd_gens) == 1:
        out = out.mono_scale(((odd_gens[0], 1),), 1)
    elif len(odd_gens) > 1:
        rad = MPoly.from_key(odd_gens[0][1])
        for g in odd_gens[1:]:
            rad = rad * MPoly.from_key(g[1])
        coeff, mono, kern = _sqrt_poly(rad)
        out = out.mono_scale(_mono_mul(mono, kern), coeff)
    return out


def _gen_is_positive(g: Gen) -> bool:
    if g[0] == 0:
        return g[1] % 2 == 0  # even power-mean slots are positive
    if g[0] == 1:
        return g[1] in POSITIVE_SYMBOLS
    return True  # kernels denote the nonnegative root


def _evidently_positive(p: MPoly) -> bool:
    """Whether ``p`` is positive wherever it is nonzero: each term is a
    positive coefficient times even powers and powers of positive generators."""
    return all(c > 0 and all(e % 2 == 0 or _gen_is_positive(g) for g, e in m)
               for m, c in p.terms.items())


def _sqrt_poly(p: MPoly) -> tuple[Fraction, Monomial, Monomial]:
    """sqrt of a kernel-free polynomial as (coeff, monomial, kernel-monomial).

    The value is ``coeff * monomial * sqrt(radicand)`` where the radicand is
    the content-times-primitive residual after extracting rational squares,
    even powers of positive generators and fourth powers of any generator.
    """
    if p.is_zero:
        raise AlgebraError("sqrt of zero polynomial")
    if p.has_kernels():
        raise AlgebraError("nested radical: sqrt of an expression already containing one")
    cont = p.content()
    prim = p.scale(1 / cont)  # integer coefficients, gcd 1
    coeff, rad_const = rational_sqrt(cont)
    # the power of each generator present in every monomial: sqrt(g^2) = g
    # for a positive g, and sqrt(g^4) = g^2 for any g
    extracted: list[tuple[Gen, int]] = []
    for g in sorted(prim.gens()):
        step = 2 if _gen_is_positive(g) else 4
        e_min = min(dict(m).get(g, 0) for m in prim.terms)
        if e_min >= step:
            extracted.append((g, e_min // step * step // 2))
    if extracted:
        divisor = MPoly({tuple((g, 2 * h) for g, h in extracted): 1})
        q = prim.divexact(divisor)
        assert q is not None
        prim = q
    mono = tuple(extracted)
    radicand = prim.scale(rad_const)
    if radicand == MPoly.constant(1):
        return coeff, mono, EMPTY_MONO
    kernel_gen: Gen = (2, radicand.key())
    return coeff, mono, ((kernel_gen, 1),)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

_UNIT = {EMPTY_MONO: 1}  # terms of the constant polynomial 1


class NormalForm:
    """Fraction of multivariate polynomials, kernel-free monic denominator.

    Arithmetic keeps forms lightly reduced (content/monomial cancellation,
    denominator-divisibility detection); :meth:`canonical` additionally
    cancels the full polynomial gcd so that equal expressions have identical
    normal forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None, *, reduce: bool = True):
        if den is None:
            den = MPoly.constant(1)
        if den.is_zero:
            raise AlgebraError("zero denominator")
        if den.has_kernels():
            num, den = _rationalize(num, den)
        self.num = num
        self.den = den
        if reduce:
            self._light_reduce()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_fraction(c: Fraction) -> "NormalForm":
        return NormalForm(MPoly.constant(Fraction(c)))

    @staticmethod
    def sym(name: str) -> "NormalForm":
        return NormalForm(MPoly.gen((1, name)))

    @staticmethod
    def var(index: int) -> "NormalForm":
        return NormalForm(MPoly.gen((0, index)))

    # -- reductions --------------------------------------------------------

    def _light_reduce(self) -> None:
        num, den = self.num, self.den
        if num.is_zero:
            self.den = MPoly.constant(1)
            return
        if den.terms == _UNIT:
            return  # no monomial to share, already monic
        # common monomial factor
        shared: dict[Gen, int] = {}
        first = True
        for poly in (num, den):
            for m in poly.terms:
                d = dict(m)
                if first:
                    shared = d
                    first = False
                else:
                    shared = {g: min(e, d.get(g, 0)) for g, e in shared.items() if d.get(g, 0) > 0}
                if not shared:
                    break
        if shared:
            mono = tuple(sorted(shared.items()))
            divisor = MPoly({mono: 1})
            num = num.divexact(divisor) or num
            den = den.divexact(divisor) or den
        # monic denominator
        _, lc = den.leading()
        if lc != 1:
            den = den.scale(1 / lc)
            num = num.scale(1 / lc)
        self.num, self.den = num, den

    def canonical(self) -> "NormalForm":
        """Fully cancelled form: ``num`` and ``den`` over their gcd.

        ``PolyElement.cofactors`` returns the gcd with both quotients.
        Kernels are plain generators there, which is enough because ``den``
        has none: a factor of ``den`` divides ``num`` exactly when it
        divides every kernel part of ``num``.
        """
        if self.num.is_zero:
            return NormalForm(MPoly(), MPoly.constant(1), reduce=False)
        if self.den.terms == _UNIT:
            return self
        (num, den), back = _in_ring([self.num, self.den])
        g, qn, qd = num.cofactors(den)
        if g.is_ground:
            return NormalForm(self.num, self.den)
        return NormalForm(back(qn), back(qd))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        c = self.canonical()
        return hash((c.num.key(), c.den.key()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "NormalForm":
        other = _as_nf(other)
        if self.den == other.den:
            return NormalForm(self.num + other.num, self.den)
        q = other.den.divexact(self.den)
        if q is not None:
            return NormalForm(self.num * q + other.num, other.den)
        q = self.den.divexact(other.den)
        if q is not None:
            return NormalForm(self.num + other.num * q, self.den)
        # neither divides the other: sum over their lcm, self.den * (other.den / gcd)
        (da, db), back = _in_ring([self.den, other.den])
        _, qa, qb = da.cofactors(db)
        qa, qb = back(qa), back(qb)
        return NormalForm(self.num * qb + other.num * qa, self.den * qb)

    __radd__ = __add__

    def __neg__(self) -> "NormalForm":
        return NormalForm(-self.num, self.den, reduce=False)

    def __sub__(self, other) -> "NormalForm":
        return self + (-_as_nf(other))

    def __rsub__(self, other) -> "NormalForm":
        return _as_nf(other) + (-self)

    def __mul__(self, other) -> "NormalForm":
        other = _as_nf(other)
        return NormalForm(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "NormalForm":
        return self * _as_nf(other).inverse()

    def __rtruediv__(self, other) -> "NormalForm":
        return _as_nf(other) * self.inverse()

    def inverse(self) -> "NormalForm":
        if self.num.is_zero:
            raise AlgebraError("division by zero normal form")
        return NormalForm(self.den, self.num)

    def pow(self, q: Fraction) -> "NormalForm":
        q = Fraction(q)
        if q.denominator == 1:
            n = q.numerator
            base = self if n >= 0 else self.inverse()
            n = abs(n)
            return NormalForm(base.num ** n, base.den ** n)
        if q.denominator != 2:
            raise AlgebraError(f"unsupported normal-form exponent {q}")
        k = (q.numerator - 1) // 2  # q = k + 1/2
        return self.pow(Fraction(k)) * self.sqrt()

    def sqrt(self) -> "NormalForm":
        # sqrt(N/D) = sqrt(N*D)/D over the canonical form, so equal quotients
        # get the same radicand.  That needs D > 0, and a monic D may be negative
        # (x2 - x1^2 becomes x1^2 - x2): unless D is evidently positive, the
        # form is first written (N*D)/D^2, and the root is sqrt(N*D^3)/D^2
        c = self.canonical()
        num, den = c.num, c.den
        if not _evidently_positive(den):
            num, den = num * den, den * den
        coeff, mono, kern = _sqrt_poly(num * den)
        return NormalForm(MPoly({_mono_mul(mono, kern): _norm(coeff)}), den)

    # -- conversion --------------------------------------------------------

    def to_expr(self) -> Expr:
        num = _poly_to_expr(self.num)
        if self.den == MPoly.constant(1):
            return num
        return num / _poly_to_expr(self.den)

    def __repr__(self):
        return f"NormalForm({pretty_print(self.to_expr())})"


def _as_nf(v) -> NormalForm:
    if isinstance(v, NormalForm):
        return v
    if isinstance(v, (int, Fraction)):
        return NormalForm.from_fraction(Fraction(v))
    raise TypeError(f"cannot mix {v!r} with NormalForm")


def _rationalize(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Clear kernel generators from the denominator (multiply by the odd part)."""
    kernel_gens = sorted({g for m in den.terms for g, e in m if g[0] == 2 and e % 2})
    if not kernel_gens:
        # only even kernel powers: reduction during multiplication clears them
        clear = MPoly.constant(1)
    else:
        clear = MPoly({tuple((g, 1) for g in kernel_gens): 1})
    num2 = num * clear
    den2 = den * clear
    if den2.has_kernels():
        raise AlgebraError("could not rationalize denominator")
    return num2, den2


# -- sympy's sparse ring: gcd and multi-term division ------------------------

@lru_cache(maxsize=None)
def _sparse_ring(n: int):
    """sympy's sparse polynomial ring over QQ in ``n`` generators, built once
    per count: every caller maps its own generators onto g0..g{n-1}."""
    from sympy import QQ
    from sympy.polys.rings import ring

    return ring(",".join(f"g{i}" for i in range(n)), QQ)[0]


def _in_ring(polys: list[MPoly]):
    """``polys`` as elements of one sympy sparse ring over QQ, and the map
    back to MPoly.

    The ring has one generator per distinct MPoly generator, kernels
    included, so there is no expression layer; ``polys`` must have at least
    one generator between them."""
    from sympy import QQ

    gens = sorted({g for p in polys for g in p.gens()})
    R = _sparse_ring(len(gens))
    index = {g: i for i, g in enumerate(gens)}
    zeros = [0] * len(gens)

    def to_ring(p: MPoly):
        terms = {}
        for m, c in p.terms.items():
            exps = zeros.copy()
            for g, e in m:
                exps[index[g]] = e
            terms[tuple(exps)] = QQ(c.numerator, c.denominator)
        return R.from_dict(terms)

    def back(f) -> MPoly:
        return MPoly({
            tuple((g, e) for g, e in zip(gens, exps) if e):
                _norm(Fraction(int(c.numerator), int(c.denominator)))
            for exps, c in f.terms()
        })

    return [to_ring(p) for p in polys], back


def _poly_to_expr(p: MPoly) -> Expr:
    if p.is_zero:
        return ZERO
    terms = []
    for m, c in sorted(p.terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True):
        factors: list[Expr] = [Const(c)]
        for g, e in m:
            factors.append(pow_(_gen_to_expr(g), Fraction(e)))
        terms.append(mul(*factors))
    return add(*terms)


def _gen_to_expr(g: Gen) -> Expr:
    if g[0] == 0:
        return Var(g[1])
    if g[0] == 1:
        return Sym(g[1])
    radicand = _poly_to_expr(MPoly.from_key(g[1]))
    return Pow(radicand, Fraction(1, 2))


# ---------------------------------------------------------------------------
# One evaluator over three value rings
# ---------------------------------------------------------------------------

def _float_leaf(b: Bindings, e: Expr) -> Number:
    try:
        return b.vars[e.index] if type(e) is Var else b.syms[e.name]
    except KeyError:
        if type(e) is Var:
            raise EvalError(f"unbound variable x{e.index}") from None
        if e.name == "pi":
            return math.pi
        raise EvalError(f"unbound symbol {e.name!r}") from None


def _float_pow(base: Number, q: Fraction) -> Number:
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


def _float_atom(cls: type, u: Number) -> Number:
    if cls is NormCdf:
        return norm_cdf(u)
    if cls is NormPdf:
        return norm_pdf(u)
    if _is_array(u):
        import numpy as np

        return np.exp(u)
    try:
        return math.exp(u)
    except OverflowError:
        raise DomainError(f"exp({u}) overflows a double") from None


def _registered_pow(kernels: KernelRegistry | None, base: Expr, q: Fraction) -> Expr:
    if q.denominator == 2 and kernels is not None:
        # the original base passed the positivity gate; substitution is
        # mechanical, so its image stays a valid kernel
        kernels.register(base)
    return pow_(base, q, kernels)


# sums and products fold in term order, so float bits match a plain loop
_FOLD_ADD = partial(reduce, operator.add)
_FOLD_MUL = partial(reduce, operator.mul)


class Ring:
    """A value ring: ``float`` (double precision under the :class:`Bindings`
    ``leaves``), ``nf`` (exact :class:`NormalForm`) or ``expr`` (expressions
    rebuilt canonically under the substitution mapping ``leaves``, with
    half-power bases registered in ``kernels``).

    :func:`evaluate` maps nodes through ``const``, ``leaf``, ``pow``,
    ``atom`` (exp/Phi/phi; ``None`` in the ``nf`` ring, where they have no
    value), ``add`` and ``mul``; the coefficient contraction also uses
    ``zero`` (a value), ``is_zero``, :meth:`sum` and ``finish`` (symbolic
    values as Exprs for results).  All are plain functions picked once per
    ring, so a node costs no test of ``kind``; they hold the leaves or the
    kernels but never the ring, so no reference cycle keeps a call's arrays
    alive until the cyclic GC runs.
    """

    __slots__ = ("kind", "leaves", "kernels", "const", "leaf", "pow", "atom", "add", "mul",
                 "zero", "is_zero", "finish")

    def __init__(self, kind: str, leaves=None, kernels: KernelRegistry | None = None):
        self.kind, self.leaves, self.kernels = kind, leaves, kernels
        self.add, self.mul, self.finish = _FOLD_ADD, _FOLD_MUL, lambda v: v
        if kind == "float":
            self.const = lambda e: float(e.value)
            self.leaf, self.pow, self.atom = partial(_float_leaf, leaves), _float_pow, _float_atom
            self.zero, self.is_zero = 0.0, operator.not_
        elif kind == "nf":
            self.const = lambda e: NormalForm.from_fraction(e.value)
            self.leaf = lambda e: (NormalForm.var(e.index) if type(e) is Var
                                   else NormalForm.sym(e.name))
            self.pow, self.atom = NormalForm.pow, None
            self.zero = NormalForm.from_fraction(Fraction(0))
            self.is_zero = operator.attrgetter("is_zero")
            self.finish = lambda v: v.canonical().to_expr()
        else:
            mapping = leaves or {}
            self.const = lambda e: e
            self.leaf = lambda e: mapping.get(e, e)
            self.pow = partial(_registered_pow, kernels)
            self.atom = lambda cls, u: cls(u)
            self.add = lambda vals: add(*vals)
            self.mul = lambda vals: mul(*vals)
            self.zero, self.is_zero = ZERO, partial(operator.is_, ZERO)

    def sum(self, terms):
        terms = list(terms)
        return self.add(terms) if terms else self.zero


def evaluate(e: Expr, ring: Ring, memo: dict[Expr, object]):
    """``e`` as a value of ``ring``; equal subtrees are one interned node and
    are mapped once per ``memo``, which is keyed by that node.

    The ``nf`` ring raises :class:`TranscendentalResidueError` at an
    exp/Phi/phi node before it maps the argument."""
    out = memo.get(e)
    if out is not None:
        return out
    cls = type(e)
    if cls is Mul:
        out = ring.mul([evaluate(f, ring, memo) for f in e.factors])
    elif cls is Add:
        out = ring.add([evaluate(t, ring, memo) for t in e.terms])
    elif cls is Const:
        out = ring.const(e)
    elif cls is Pow:
        out = ring.pow(evaluate(e.base, ring, memo), e.exponent)
    elif cls is Sym or cls is Var:
        out = ring.leaf(e)
    elif ring.atom is None:
        raise TranscendentalResidueError(
            f"transcendental residue: {cls.__name__} node cannot be normalized"
        )
    else:
        out = ring.atom(cls, evaluate(e.arg, ring, memo))
    memo[e] = out
    return out


_NF = Ring("nf")


def _to_nf(e: Expr, memo: dict[Expr, NormalForm] | None = None) -> NormalForm:
    """Lightly reduced normal form (``evaluate`` in the ``nf`` ring)."""
    return evaluate(e, _NF, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# normalize / sym_equal
# ---------------------------------------------------------------------------

def normalize(e: Expr) -> NormalForm:
    """Canonical normal form; raises :class:`TranscendentalResidueError`
    when exp/Phi/phi nodes remain."""
    return _to_nf(e).canonical()


@dataclass(frozen=True)
class Comparison:
    equal: bool
    method: str  # "symbolic" | "numeric"


_NUMERIC_EQ_SEED = 20130415
_NUMERIC_EQ_TRIALS = 50
_NUMERIC_EQ_RTOL = 1e-9


def sym_compare(a: Expr, b: Expr) -> Comparison:
    """Symbolic equality when both sides normalize, else agreement at 50
    deterministic pseudo-random bindings (reported as numeric)."""
    try:
        return Comparison(_to_nf(sub(a, b)).is_zero, "symbolic")
    except AlgebraError:  # a side with no normal form compares numerically
        pass
    return Comparison(_numeric_agree(a, b), "numeric")


def sym_equal(a: Expr, b: Expr) -> bool:
    return sym_compare(a, b).equal


def random_bindings(e: Expr, rng: np.random.Generator) -> Bindings:
    """One random binding consistent with positivity flags."""
    return _draw_bindings(sorted(free_symbols(e)), arity(e), rng)


def _draw_bindings(names: list[str], d: int, rng: np.random.Generator) -> Bindings:
    """Values for the symbols ``names``, in order, then for x1..xd."""
    syms = {}
    for name in names:
        if name == "pi":
            continue  # reserved constant, bound automatically
        if name in POSITIVE_SYMBOLS:
            syms[name] = float(rng.uniform(0.5, 2.0))
        else:
            syms[name] = float(rng.uniform(-2.0, 2.0))
    vars_ = {}
    for i in range(1, d + 1):
        if i % 2 == 0:
            vars_[i] = float(rng.uniform(0.5, 3.0))
        else:
            vars_[i] = float(rng.uniform(-1.5, 1.5))
    return Bindings(syms, vars_)


def _numeric_agree(a: Expr, b: Expr) -> bool:
    import numpy as np

    rng = np.random.default_rng(_NUMERIC_EQ_SEED)
    both = sub(a, b)
    names, d = sorted(free_symbols(both)), arity(both)
    hits = 0
    attempts = 0
    while hits < _NUMERIC_EQ_TRIALS and attempts < 40 * _NUMERIC_EQ_TRIALS:
        attempts += 1
        bind = _draw_bindings(names, d, rng)
        try:
            va = eval_numeric(a, bind)
            vb = eval_numeric(b, bind)
        except DomainError:
            continue
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        hits += 1
        if abs(va - vb) > _NUMERIC_EQ_RTOL * max(1.0, abs(va), abs(vb)):
            return False
    if hits == 0:
        raise AlgebraError("could not find valid bindings for numeric comparison")
    return True
