"""Moment algebra for the power-basis model X = (W, W^2, ..., W^D).

All cross-moments of the power components reduce to univariate moments of W,
parameterized by the mean ``mu``, the scale ``sigma`` and the standardized
central moments ``m[k]`` (``m[3]`` is the skewness Gamma1, ``m[4]`` the
excess kurtosis kappa1 plus 3, higher orders are ``mu5``, ``mu6``, ...).
Specs are either symbolic (Expr-valued) or numeric (float-valued); the same
conversion formulas serve both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, Union

from .expr import Expr, ZERO, add, const, sym

if TYPE_CHECKING:
    import numpy as np

Value = Union[Expr, float]


class MomentError(Exception):
    """Base error for moment computations."""


class MomentOrderError(MomentError):
    """Requested order exceeds the spec's available order K."""


class DegenerateSampleError(MomentError):
    """Sample has zero variance; no empirical spec exists."""


@dataclass(frozen=True)
class MomentSpec:
    """Univariate distribution moment model.

    ``std_moments[k]`` holds m[k] for k = 0..K with m[0]=1, m[1]=0, m[2]=1.
    """

    mean: Value
    scale: Value
    std_moments: tuple[Value, ...]
    K: int

    def __post_init__(self):
        if self.K < 2 or len(self.std_moments) != self.K + 1:
            raise MomentError("std_moments must cover orders 0..K with K >= 2")

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.mean, Expr) or isinstance(self.scale, Expr) or any(
            isinstance(m, Expr) for m in self.std_moments
        )

    def m(self, k: int) -> Value:
        if k > self.K:
            raise MomentOrderError(f"moment order {k} exceeds K={self.K}")
        return self.std_moments[k]


def symbolic_spec(K: int) -> MomentSpec:
    """Fully symbolic spec: skewness Gamma1, excess kurtosis kappa1,
    higher standardized moments mu5..muK."""
    ms: list[Value] = [const(1), ZERO, const(1)]
    if K >= 3:
        ms.append(sym("Gamma1"))
    if K >= 4:
        ms.append(add(sym("kappa1"), const(3)))
    for k in range(5, K + 1):
        ms.append(sym(f"mu{k}"))
    return MomentSpec(sym("mu"), sym("sigma"), tuple(ms[: K + 1]), K)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_spec(mu: Value = 0.0, sigma: Value = 1.0, K: int = 8) -> MomentSpec:
    """Gaussian standardized moments: 0 for odd k, (k-1)!! for even k."""
    if K > 64:
        raise MomentError("gaussian spec capped at K=64")
    symbolic = isinstance(mu, Expr) or isinstance(sigma, Expr)
    ms: list[Value] = []
    for k in range(K + 1):
        v = 0 if k % 2 else _double_factorial(k - 1)
        ms.append(const(v) if symbolic else float(v))
    return MomentSpec(mu, sigma, tuple(ms), K)


def _subfactorial(k: int) -> int:
    # derangement recursion: !k = k*!(k-1) + (-1)^k
    out = 1
    for i in range(1, k + 1):
        out = i * out + (-1) ** i
    return out


def exponential_spec(scale: float = 1.0, K: int = 8) -> MomentSpec:
    """Unit-rate exponential (scaled): m[k] is the k-th derangement number.

    The centered exponential has E(W-1)^k = !k exactly, so Gamma1=2 and
    kappa1=6.
    """
    if scale <= 0:
        raise MomentError("exponential scale must be positive")
    ms = tuple(float(_subfactorial(k)) for k in range(K + 1))
    return MomentSpec(float(scale), float(scale), ms, K)


def empirical_spec(sample: Sequence[float], K: int) -> MomentSpec:
    """Plug-in moments: divisor-n variance, standardized central moments."""
    import numpy as np

    w = np.asarray(sample, dtype=float)
    n = w.size
    if n < 2:
        raise MomentError("need at least two observations")
    mean = float(w.mean())
    centered = w - mean
    var = float(np.mean(centered**2))
    if var <= 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    sd = math.sqrt(var)
    z = centered / sd
    ms = [1.0, 0.0, 1.0]
    zp = z * z
    for k in range(3, K + 1):
        zp = zp * z
        ms.append(float(zp.mean()))
    return MomentSpec(mean, sd, tuple(ms[: K + 1]), K)


# ---------------------------------------------------------------------------
# Raw and central cross-moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ring_values(spec: MomentSpec) -> tuple[Value, Value, list[Value], Value]:
    """mean, scale, m[0..K] and zero: all Exprs for a symbolic spec, all
    floats otherwise (converted once per spec)."""
    if spec.is_symbolic:
        def conv(v: Value) -> Value:
            return v if isinstance(v, Expr) else const(Fraction(v))

        zero: Value = ZERO
    else:
        conv, zero = float, 0.0
    return conv(spec.mean), conv(spec.scale), [conv(m) for m in spec.std_moments], zero


@lru_cache(maxsize=None)
def raw_moment(spec: MomentSpec, i: int) -> Value:
    """E[W^i] = sum_j C(i,j) m_j sigma^j mu^(i-j).  A float moment that
    leaves the double range raises :class:`MomentError`."""
    if i < 0:
        raise MomentError("raw moment order must be >= 0")
    if i > spec.K:
        raise MomentOrderError(f"raw moment order {i} exceeds K={spec.K}")
    mu, sigma, m, total = _ring_values(spec)
    try:
        for j in range(i + 1):
            total = total + math.comb(i, j) * m[j] * sigma**j * mu ** (i - j)
    except OverflowError:  # float ** int raises where float * float gives inf
        total = math.inf
    if isinstance(total, float) and not math.isfinite(total):
        raise MomentError(f"raw moment of order {i} overflows a double")
    return total


def powers(w: np.ndarray, d: int) -> Iterator[np.ndarray]:
    """w, w*w, ..., the first d powers of w by repeated products."""
    wp = None
    for _ in range(d):
        wp = w if wp is None else wp * w
        yield wp


@lru_cache(maxsize=None)
def cross_moment(spec: MomentSpec, indices: tuple[int, ...]) -> Value:
    """mu_{i1..ij} = E[prod_k (W^{i_k} - E W^{i_k})], 2 <= j <= 4.

    Expanded by inclusion-exclusion into raw moments; symmetric in the
    indices (memoized on the sorted tuple).
    """
    if not 2 <= len(indices) <= 4:
        raise MomentError("cross moments take 2 to 4 indices")
    if any(i < 1 for i in indices):
        raise MomentError("indices must be >= 1")
    key = tuple(sorted(indices))
    if key != indices:
        return cross_moment(spec, key)
    total_order = sum(key)
    if total_order > spec.K:
        raise MomentOrderError(
            f"cross moment of total order {total_order} exceeds K={spec.K}"
        )
    j = len(key)
    positions = tuple(range(j))
    *_, acc = _ring_values(spec)
    for r in range(j + 1):
        for subset in combinations(positions, r):
            term = (-1) ** (j - r) * raw_moment(spec, sum(key[p] for p in subset))
            for p in positions:
                if p not in subset:
                    term = term * raw_moment(spec, key[p])
            acc = acc + term
    return acc


class MomentTable:
    """Memoized view of the cross moments needed by the coefficient sums."""

    def __init__(self, spec: MomentSpec, dims: int):
        self.spec = spec
        self.dims = dims

    def get(self, indices: tuple[int, ...]) -> Value:
        if any(i > self.dims for i in indices):
            raise MomentError(f"index beyond model dimension {self.dims}")
        return cross_moment(self.spec, tuple(sorted(indices)))


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

# the [moments] keys some distribution reads
MOMENT_KEYS = ("distribution", "k", "mu", "sigma", "scale", "data_file", "gamma1", "kappa1",
               "moments")


def parse_number(text: str, place: str, convert=lambda t: float(Fraction(t))):
    """``convert(text)``: by default ``text`` read as an exact rational and
    rounded to a double.  A malformed number is a ValueError naming ``place``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{place}: {text!r} is not {kind}") from None


def spec_from_config(section: Mapping[str, str], required_K: int) -> MomentSpec:
    """Build a spec from a ``[moments]`` config section (lower-case keys).

    ``distribution`` is one of gaussian | symbolic | empirical | custom |
    exponential.  ``K`` defaults to the caller's requirement (4 * Dims).
    """
    def num(key: str, default: str) -> float:
        return parse_number(section.get(key, default), f"[moments] {key}")

    dist = section.get("distribution", "symbolic").strip().lower()
    K = max(parse_number(section.get("k", required_K), "[moments] k", int), required_K)
    if dist == "symbolic":
        return symbolic_spec(K)
    if dist == "gaussian":
        return gaussian_spec(num("mu", "0"), num("sigma", "1"), K)
    if dist == "exponential":
        return exponential_spec(num("scale", "1"), K)
    if dist == "empirical":
        path = section.get("data_file")
        if not path:
            raise MomentError("empirical distribution requires data_file")
        data = _read_column(path)
        return empirical_spec(data, K)
    if dist == "custom":
        mu, sigma = num("mu", "0"), num("sigma", "1")
        ms: list[float] = [1.0, 0.0, 1.0, num("gamma1", "0"), num("kappa1", "0") + 3.0]
        extra = section.get("moments", "").strip().strip("[]")
        ms.extend(parse_number(tok.strip(), "[moments] moments")
                  for tok in extra.split(",") if tok.strip())
        if len(ms) < K + 1:
            raise MomentError(
                f"custom spec provides order {len(ms) - 1} but K={K} is required"
            )
        return MomentSpec(mu, sigma, tuple(ms[: K + 1]), K)
    raise MomentError(f"unknown distribution {dist!r}")


def _read_column(path: str) -> list[float]:
    """Finite values of the first CSV column.

    Only line 1 may be a non-numeric header and blank lines are skipped;
    any other row that is not a finite number raises :class:`MomentError`
    with its 1-based line number.
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            tok = line.split(",")[0].strip()
            try:
                v = float(tok)
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise MomentError(f"{path}:{lineno}: not a number: {tok!r}") from None
            if not math.isfinite(v):
                raise MomentError(f"{path}:{lineno}: not a finite number: {tok!r}")
            values.append(v)
    if not values:
        raise MomentError(f"{path}: no values")
    return values
