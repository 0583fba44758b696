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

An interval reads one model, the statistic fitted to the sample (over
:func:`edgeboot.moments.empirical_spec`): ``theta_hat`` and the replicates are
its centered ``h`` over the power means of ``data - mean``, and the acceleration
is its :func:`edgeboot.edgeworth.accel_constant`, the formula ``accel`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# differentiate is unused here; bench/tracing.py wraps bootstrap.differentiate
from .algebra import Bindings, differentiate, eval_numeric, norm_cdf, norm_ppf  # noqa: F401
from .edgeworth import (Mode, Statistic, StatModel, accel_constant, build_model,
                        model_shape)
from .harness import _BLOCK_BYTES, _EVAL_ROWS, power_means, replicate_values
from .moments import empirical_spec

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
    data: Sequence[float], cfg: BootConfig, model: StatModel
) -> tuple[np.ndarray, int]:
    """Sorted replicate distribution and the count of undefined replicates:
    ``model.h`` over the power means of resamples of ``data - model.spec.mean``.

    In exhaustive mode all n^n equally likely resamples are enumerated
    (testing oracle; removes Monte Carlo noise)."""
    w = np.asarray(data, dtype=float) - float(model.spec.mean)
    n = w.size
    if n < 2:
        raise BootstrapError("need at least two observations")
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
                           min(_EVAL_ROWS, total - start), step, model.d)

    reps, nan_count = replicate_values(model.h, model.params, total,
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


def accel_plugin(data: Sequence[float], model: StatModel) -> float:
    """Plug-in acceleration ``a = A / (6 sqrt(n))``: the
    :func:`~edgeboot.edgeworth.accel_constant` of ``model``, the statistic
    fitted to ``data`` (over :func:`~edgeboot.moments.empirical_spec`),
    normalized to unit variance and so invariant to the statistic's scaling.

    The model is expanded at the sample mean, where every odd central moment
    of a symmetric sample is an exact zero, and so is the mean's ``a``."""
    if model.spec.distribution != "empirical":
        raise BootstrapError("the plug-in acceleration needs the model fitted to the data "
                             f"(empirical moments), not {model.spec.distribution} ones")
    return accel_constant(model).a_over_sqrtn / math.sqrt(len(data))


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


def bca_interval(data: Sequence[float], cfg: BootConfig, stat: Statistic) -> BcaResult:
    """Nonparametric BCA interval for ``stat``: ``theta_hat``, the replicates
    and the acceleration all come from its model fitted to ``data``."""
    w = np.asarray(data, dtype=float)
    spec = empirical_spec(w, model_shape(stat.g, Mode.NONSTUDENTIZED)[2])
    model = build_model(stat.g, Mode.NONSTUDENTIZED, spec, params=stat.params,
                        kernels=stat.kernels)
    means = power_means(lambda lo, size: (w - spec.mean)[None, :], 1, 1, model.d)
    theta_hat = float(np.ravel(eval_numeric(model.h, Bindings(dict(model.params), means)))[0])
    reps, nan_count = resample_distribution(w, cfg, model)
    return bca_from_replicates(theta_hat, reps, accel_plugin(w, model), cfg.alpha,
                               nan_count)
