"""Monte Carlo validation of the expansion-based CDF approximations.

Simulates the normalized statistic sqrt(n) * A(power means) under the
distribution of the model's moment spec (gaussian or exponential): ``A`` is
the model's ``a_expr``, the statistic its expansion differentiates, read over
the centered power means ``mean((W - mu)^j)`` of the draws.  It compares
its empirical CDF on a grid against the normal, first-order and second-order
approximations, and emits one CSV row per grid point plus a trailing summary
block of sup-distances (as ``#``-prefixed lines).  Raw and rearranged
approximation columns are both written; the rearranged ones are clipped to
[0,1] and sorted.

Replications are drawn in fixed chunks from substreams seeded by
``(seed, chunk)``.  :func:`replicate_values` is the replicate engine of both
``mc`` and the bootstrap: up to :data:`MAX_WORKERS` threads draw tasks in row
blocks and reduce them to power means, and the calling thread evaluates the
statistic over slices of each task, in order.  A chunk's draws depend only on
``(seed, chunk)``, so a configuration yields a bit-identical CSV whatever the
thread count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .algebra import Bindings, eval_numeric, norm_cdf
from .edgeworth import Poly, StatModel, cdf_eval
from .moments import MomentSpec
from .rearrange import clip01, is_nondecreasing, rearrange_increasing

_CHUNK_ROWS = 65536
_BLOCK_BYTES = 2**19  # of draws per row block; a chunk's means are its only full-size arrays
_EVAL_ROWS = 16384  # per evaluation slice: a multiple of 8, so no SIMD lane offset moves
MAX_GRID_POINTS = 100_000  # each point costs a CSV row and four expansion evaluations
# every kept rep is held once, 8 B each: 0.4 GB at the cap
MAX_REPS = 50_000_000
MAX_N = _BLOCK_BYTES // 8  # a sample of n draws is one row of a row block
MAX_WORKERS = 4

CSV_HEADER = "x,empirical,normal,edge1,edge2,edge1_rearranged,edge2_rearranged"


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class McConfig:
    n: int
    reps: int
    grid: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.reps < 1:
            raise HarnessError("reps must be >= 1")
        if self.reps > MAX_REPS:
            raise HarnessError(f"reps {self.reps} is more than the limit of {MAX_REPS}")
        if self.n < 2:
            raise HarnessError("n must be >= 2")
        if self.n > MAX_N:
            raise HarnessError(f"n {self.n} is more than the limit of {MAX_N}")
        _check_grid_size(len(self.grid), "grid")
        if not np.all(np.diff(self.grid) > 0):
            raise HarnessError("grid must be strictly increasing")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" into the points ``start + k*step`` up to ``stop``
    (inclusive, up to rounding)."""
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise HarnessError(f"bad grid spec {text!r}: want start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop <= start:
        raise HarnessError(f"bad grid spec {text!r}")
    count = (stop - start) / step + 1e-9
    if math.isinf(count):  # too many points to count in a double, and no floor
        raise HarnessError(f"grid {text!r} has more points than the limit of {MAX_GRID_POINTS}")
    count = math.floor(count) + 1
    _check_grid_size(count, f"grid {text!r}")
    return tuple(start + k * step for k in range(count))


def _check_grid_size(count: int, what: str) -> None:
    if count < 2:
        raise HarnessError(f"{what} needs at least two points")
    if count > MAX_GRID_POINTS:
        raise HarnessError(
            f"{what} has {count} points, more than the limit of {MAX_GRID_POINTS}"
        )


def check_drawable(spec: MomentSpec) -> None:
    """Raise unless ``spec`` is a numeric gaussian or exponential spec, the
    distributions ``mc`` draws from."""
    kind = "symbolic" if spec.is_symbolic else spec.distribution
    if kind not in ("gaussian", "exponential"):
        raise HarnessError(f"mc draws from gaussian or exponential moments, not {kind} ones")


def _draw(spec: MomentSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with draws of ``W - mu``, the variable the statistic reads, and return
    it: the numbers of ``rng.normal(0, scale)`` or ``rng.exponential(scale) - mu``."""
    gaussian = spec.distribution == "gaussian"
    (rng.standard_normal if gaussian else rng.standard_exponential)(out=out)
    out *= spec.scale
    if not gaussian:
        out -= spec.mean
    return out


def _worker_count() -> int:
    """Threads for the draws: the CPUs this process may run on, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def power_means(draw, rows: int, step: int, d: int) -> dict[int, np.ndarray]:
    """Row means of the first ``d`` powers of ``rows`` rows, where ``draw(lo, size)``
    gives rows ``lo`` to ``lo + size``, called in order ``step`` rows at a time: the
    ``einsum`` row sums of ``w, w*w, (w*w)*w, ...`` over n, the same bits in any blocks."""
    means = {i: np.empty(rows) for i in range(1, d + 1)}
    for lo in range(0, rows, step):
        w = draw(lo, min(step, rows - lo))
        buf = np.empty_like(w) if lo == 0 else buf[:len(w)]
        wp = w
        for i, m in means.items():
            np.einsum("ij->i", wp, out=m[lo:lo + len(w)])
            if i < d:
                wp = np.multiply(wp, w, out=buf)
    for m in means.values():
        m /= w.shape[1]
    return means


def _chunk_means(cfg: McConfig, spec: MomentSpec, dims: int, c: int) -> dict[int, np.ndarray]:
    """Power means of chunk ``c``'s draws from ``spec``, drawn in row blocks from
    one generator (the same numbers as one draw of the chunk)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, c]))
    rows = min(_CHUNK_ROWS, cfg.reps - c * _CHUNK_ROWS)
    block = np.empty((min(rows, max(1, _BLOCK_BYTES // (8 * cfg.n))), cfg.n))
    return power_means(lambda lo, size: _draw(spec, rng, block[:size]), rows, len(block), dims)


def replicate_values(expr, params, total: int, tasks: int, fill,
                     scale: float = 1.0) -> tuple[np.ndarray, int]:
    """The finite values of ``scale * expr`` over the power means ``fill(k)`` of
    tasks ``k = 0 .. tasks - 1``, which hold ``total`` rows between them, and the
    count of the others.  ``fill`` runs on worker threads and may only use numpy;
    the calling thread evaluates ``expr`` in task order, so the values are the
    same for any thread count."""
    workers = _worker_count()
    values = np.empty(total)
    kept = 0
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # at most `workers` tasks in flight; results are taken in task order
        pending = deque(pool.submit(fill, k) for k in range(min(workers, tasks)))
        for k in range(tasks):
            means = pending.popleft().result()
            if k + workers < tasks:
                pending.append(pool.submit(fill, k + workers))
            for lo in range(0, len(means[1]), _EVAL_ROWS):
                part = {i: m[lo:lo + _EVAL_ROWS] for i, m in means.items()}
                with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                    vals = eval_numeric(expr, Bindings(dict(params), part))
                vals = scale * np.asarray(vals, dtype=float)
                keep = vals[np.isfinite(vals)]
                values[kept:kept + keep.size] = keep
                kept += keep.size
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return values[:kept], total - kept


def simulate_statistic_values(model: StatModel, cfg: McConfig) -> tuple[np.ndarray, int]:
    """All finite draws of the normalized statistic, and the excluded count."""
    check_drawable(model.spec)
    values, excluded = replicate_values(
        model.a_expr, model.params, cfg.reps, -(-cfg.reps // _CHUNK_ROWS),
        lambda c: _chunk_means(cfg, model.spec, model.dims, c),
        math.sqrt(cfg.n))
    if values.size == 0:
        raise HarnessError("statistic undefined on every draw")
    return values, excluded


def simulate_statistic_cdf(model: StatModel, cfg: McConfig) -> tuple[np.ndarray, int]:
    """Empirical CDF of the normalized statistic at the configured grid points,
    and the excluded count."""
    values, excluded = simulate_statistic_values(model, cfg)
    values.sort()
    ecdf = np.searchsorted(values, np.asarray(cfg.grid), side="right") / values.size
    return ecdf, excluded


@dataclass
class ComparisonSummary:
    sup_normal: float
    sup_edge1: float
    sup_edge2: float
    sup_edge1_rearranged: float
    sup_edge2_rearranged: float
    edge1_monotone: bool
    edge2_monotone: bool
    excluded: int


def compare_and_emit(model: StatModel, cfg: McConfig, p1: Poly, p2: Poly,
                     out: TextIO) -> ComparisonSummary:
    """Write the comparison CSV and return the sup-distance summary."""
    emp, excluded = simulate_statistic_cdf(model, cfg)
    grid = list(cfg.grid)
    normal = [float(norm_cdf(float(x))) for x in grid]
    edge1 = [cdf_eval(p1, p2, cfg.n, float(x), order=1) for x in grid]
    edge2 = [cdf_eval(p1, p2, cfg.n, float(x), order=2) for x in grid]
    edge1_r = rearrange_increasing(clip01(edge1))
    edge2_r = rearrange_increasing(clip01(edge2))

    def sup(col) -> float:
        return float(np.max(np.abs(np.asarray(col) - emp)))

    summary = ComparisonSummary(
        sup_normal=sup(normal),
        sup_edge1=sup(edge1),
        sup_edge2=sup(edge2),
        sup_edge1_rearranged=sup(edge1_r),
        sup_edge2_rearranged=sup(edge2_r),
        edge1_monotone=is_nondecreasing(edge1),
        edge2_monotone=is_nondecreasing(edge2),
        excluded=excluded,
    )

    out.write(CSV_HEADER + "\n")
    for i, x in enumerate(grid):
        row = (x, emp[i], normal[i], edge1[i], edge2[i], edge1_r[i], edge2_r[i])
        out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    for col in ("normal", "edge1", "edge2", "edge1_rearranged", "edge2_rearranged"):
        out.write(f"# sup_dist_{col} = {getattr(summary, 'sup_' + col):.17g}\n")
    out.write(f"# excluded_draws = {summary.excluded}\n")
    return summary
