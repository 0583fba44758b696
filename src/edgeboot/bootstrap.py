"""Nonparametric bootstrap with percentile and BCA intervals.

Resampling is deterministic and parallelizable: replicate indices are drawn
in fixed-size chunks, chunk ``c`` from the substream seeded by
``(seed, c)``, so the same (data, config) always yields bit-identical
replicate lists regardless of scheduling.  The replicates run through the
Monte Carlo engine, :func:`edgeboot.harness.replicate_values`: worker threads
draw row blocks of whole chunks and reduce them to power means, and each
row's replicate depends only on its own chunk, so blocking changes no value.

The bias correction is ``m = Phi^{-1}(H(theta_hat))`` with ``H`` the weak
(ties count as <=) bootstrap CDF, and quantiles use the inf-definition
``H^{-1}(p)`` = the ceil(p*B)-th order statistic.  Undefined replicates
(NaN statistic values) are never silently redrawn; they are excluded from
``H`` and reported in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Bindings, eval_numeric, differentiate, norm_cdf, norm_ppf
from .edgeworth import Statistic, StatModel
from .expr import ZERO, arity
from .harness import _BLOCK_BYTES, _EVAL_ROWS, power_means, replicate_values
from .moments import powers

_CHUNK = 256
# each replicate is held once, 8 B each, and sorted in place: 80 MB at the cap
MAX_BOOT_B = 10_000_000


class BootstrapError(ValueError):
    pass


class BiasCorrectionUndefinedError(BootstrapError):
    """H(theta_hat) is 0 or 1: the bias correction does not exist."""


@dataclass(frozen=True)
class BootConfig:
    B: int
    seed: int
    alpha: float
    exhaustive: bool = False

    def __post_init__(self):
        if self.B < 1:
            raise BootstrapError("B must be >= 1")
        if self.B > MAX_BOOT_B:
            raise BootstrapError(f"B {self.B} is more than the limit of {MAX_BOOT_B}")
        if not 0.0 < self.alpha < 1.0:
            raise BootstrapError("alpha must lie in (0, 1)")


@dataclass
class BcaResult:
    theta_hat: float
    H_hat: np.ndarray  # sorted finite replicates
    m_hat: float
    a_hat: float
    lower: float
    upper: float
    percentile_lower: float
    percentile_upper: float
    lower_rank: int  # 1-based order-statistic indices actually selected
    upper_rank: int
    percentile_lower_rank: int
    percentile_upper_rank: int
    nan_count: int


def _resample_indices(n: int, B: int, seed: int, first_chunk: int = 0) -> np.ndarray:
    """B rows of indices from the chunks starting at ``first_chunk``."""
    blocks = []
    for k in range((B + _CHUNK - 1) // _CHUNK):
        size = min(_CHUNK, B - k * _CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, first_chunk + k]))
        blocks.append(rng.integers(0, n, size=(size, n)))
    return np.vstack(blocks)


def resample_distribution(
    data: Sequence[float], cfg: BootConfig, model: StatModel | Statistic
) -> tuple[np.ndarray, int]:
    """Sorted replicate distribution and the count of undefined replicates.

    In exhaustive mode all n^n equally likely resamples are enumerated
    (testing oracle; removes Monte Carlo noise)."""
    w = np.asarray(data, dtype=float)
    n = w.size
    if n < 2:
        raise BootstrapError("need at least two observations")
    d = arity(model.g)
    if d < 1:
        raise BootstrapError("statistic must depend on at least x1")
    if cfg.exhaustive:
        total = n**n
        if total > 20_000_000:
            raise BootstrapError("exhaustive enumeration limited to n <= 8")

        def rows(lo: int, size: int) -> np.ndarray:
            return np.stack(np.unravel_index(np.arange(lo, lo + size), (n,) * n), axis=1)
    else:
        total = cfg.B

        def rows(lo: int, size: int) -> np.ndarray:
            return _resample_indices(n, size, cfg.seed, lo // _CHUNK)

    # a task is one evaluation slice, drawn in row blocks of whole chunks
    step = max(1, _BLOCK_BYTES // (8 * n) // _CHUNK) * _CHUNK

    def fill(k: int) -> dict[int, np.ndarray]:
        start = k * _EVAL_ROWS
        return power_means(lambda lo, size: w[rows(start + lo, size)],
                           min(_EVAL_ROWS, total - start), step, d)

    reps, nan_count = replicate_values(model.g, model.params, total,
                                       -(-total // _EVAL_ROWS), fill)
    if reps.size == 0:
        raise BootstrapError("all bootstrap replicates are undefined")
    reps.sort()
    return reps, nan_count


def h_value(sorted_reps: np.ndarray, x: float) -> float:
    """H(x) = P[theta* <= x | data] (weak inequality)."""
    return float(np.searchsorted(sorted_reps, x, side="right")) / sorted_reps.size


def h_inverse_rank(B: int, p: float) -> int:
    """1-based rank of H^{-1}(p) = inf{x : H(x) >= p}."""
    return min(max(int(math.ceil(p * B)), 1), B)


def accel_plugin(data: Sequence[float], model: StatModel | Statistic) -> float:
    """Plug-in acceleration: derivatives at the empirical moment point and
    empirical central cross-moments; invariant to the statistic's scaling.

    The cross-moments are averaged directly over the centered data products
    (not via raw-moment expansion), so symmetric samples give an exact zero."""
    w = np.asarray(data, dtype=float)
    n = w.size
    if n < 2:
        raise BootstrapError("need at least two observations")
    d = arity(model.g)
    point = {}
    centered = {}
    for i, wp in enumerate(powers(w, d), start=1):
        point[i] = float(wp.mean())
        centered[i] = wp - point[i]
    env = Bindings(dict(model.params), point)
    grads = {}
    for i in range(1, d + 1):
        gi = differentiate(model.g, i, model.kernels)
        grads[i] = 0.0 if gi == ZERO else float(eval_numeric(gi, env))
    # project the data onto the estimated influence direction, then take
    # the second and third moments of that single series
    proj = np.zeros_like(w)
    for i in range(1, d + 1):
        if grads[i] != 0.0:
            proj = proj + grads[i] * centered[i]
    s2 = float(np.mean(proj * proj))
    a3 = float(np.mean(proj * proj * proj))
    if not (math.isfinite(s2) and s2 > 0):
        raise BootstrapError("zero empirical variance for the acceleration constant")
    return a3 / (6.0 * s2**1.5 * math.sqrt(n))


def bca_from_replicates(
    theta_hat: float,
    sorted_reps: np.ndarray,
    a_hat: float,
    alpha: float,
    nan_count: int = 0,
) -> BcaResult:
    """Two-sided BCA and percentile endpoints from a replicate distribution."""
    B = sorted_reps.size
    h0 = h_value(sorted_reps, theta_hat)
    if h0 <= 0.0 or h0 >= 1.0:
        raise BiasCorrectionUndefinedError(
            f"H(theta_hat)={h0}: bias correction undefined"
        )
    m_hat = norm_ppf(h0)

    def bca_rank(level: float) -> int:
        if a_hat == 0.0 and m_hat == 0.0:
            return h_inverse_rank(B, level)  # formula reduces to the identity
        z = norm_ppf(level)
        denom = 1.0 - a_hat * (m_hat + z)
        if denom <= 0.0:
            raise BootstrapError("acceleration correction out of range")
        adjusted = norm_cdf(m_hat + (m_hat + z) / denom)
        return h_inverse_rank(B, float(adjusted))

    lo_rank = bca_rank(alpha / 2.0)
    hi_rank = bca_rank(1.0 - alpha / 2.0)
    p_lo_rank = h_inverse_rank(B, alpha / 2.0)
    p_hi_rank = h_inverse_rank(B, 1.0 - alpha / 2.0)
    return BcaResult(
        theta_hat=float(theta_hat),
        H_hat=sorted_reps,
        m_hat=m_hat,
        a_hat=float(a_hat),
        lower=float(sorted_reps[lo_rank - 1]),
        upper=float(sorted_reps[hi_rank - 1]),
        percentile_lower=float(sorted_reps[p_lo_rank - 1]),
        percentile_upper=float(sorted_reps[p_hi_rank - 1]),
        lower_rank=lo_rank,
        upper_rank=hi_rank,
        percentile_lower_rank=p_lo_rank,
        percentile_upper_rank=p_hi_rank,
        nan_count=nan_count,
    )


def bca_interval(
    data: Sequence[float],
    cfg: BootConfig,
    model: StatModel | Statistic,
    a_hat: float | None = None,
) -> BcaResult:
    """Nonparametric BCA interval for the statistic of ``model``.

    ``a_hat`` overrides the plug-in acceleration (useful for testing the
    a=0 reduction to the percentile interval)."""
    w = np.asarray(data, dtype=float)
    means = power_means(lambda lo, size: w[None, :], 1, 1, arity(model.g))
    theta_hat = float(np.ravel(eval_numeric(model.g, Bindings(dict(model.params), means)))[0])
    reps, nan_count = resample_distribution(data, cfg, model)
    if a_hat is None:
        a_hat = accel_plugin(data, model)
    return bca_from_replicates(theta_hat, reps, a_hat, cfg.alpha, nan_count)
