"""Monte Carlo validation of the expansion-based CDF approximations.

Simulates the normalized statistic sqrt(n) * A(power means) under a
distribution preset, compares its empirical CDF on a grid against the
normal, first-order and second-order approximations, and emits one CSV row
per grid point plus a trailing summary block of sup-distances (as
``#``-prefixed lines).  Raw and rearranged approximation columns are both
written; the rearranged ones are clipped to [0,1] and sorted.

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
from .moments import powers
from .rearrange import Curve, clip01, is_nondecreasing, rearrange_increasing

_CHUNK_ROWS = 65536
_BLOCK_BYTES = 2**19  # of draws per row block; a chunk's means are its only full-size arrays
_EVAL_ROWS = 16384  # per evaluation slice: a multiple of 8, so no SIMD lane offset moves
MAX_GRID_POINTS = 100_000  # each point costs a CSV row and four expansion evaluations
# every kept rep is held once, 8 B each: 0.4 GB at the cap
MAX_REPS = 50_000_000
MAX_WORKERS = 4

CSV_HEADER = "x,empirical,normal,edge1,edge2,edge1_rearranged,edge2_rearranged"


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class McConfig:
    distribution: str  # "gaussian" | "exponential"
    n: int
    reps: int
    grid: tuple[float, ...]
    seed: int
    mu: float = 0.0
    sigma: float = 1.0
    scale: float = 1.0  # exponential scale parameter
    statistic_scale: float = 1.0  # e.g. sqrt((n-1)/n) to match an s_c-based statistic

    def __post_init__(self):
        if self.reps < 1:
            raise HarnessError("reps must be >= 1")
        if self.reps > MAX_REPS:
            raise HarnessError(f"reps {self.reps} is more than the limit of {MAX_REPS}")
        if self.n < 2:
            raise HarnessError("n must be >= 2")
        _check_grid_size(len(self.grid), "grid")
        g = np.asarray(self.grid)
        if g.size < 2 or not np.all(np.diff(g) > 0):
            raise HarnessError("grid must be strictly increasing")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" into an inclusive uniform grid."""
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise HarnessError(f"bad grid spec {text!r}: want start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop <= start:
        raise HarnessError(f"bad grid spec {text!r}")
    count = int(round((stop - start) / step)) + 1
    _check_grid_size(count, f"grid {text!r}")
    return tuple(start + k * step for k in range(count))


def _check_grid_size(count: int, what: str) -> None:
    if count > MAX_GRID_POINTS:
        raise HarnessError(
            f"{what} has {count} points, more than the limit of {MAX_GRID_POINTS}"
        )


def _draw(cfg: McConfig, rng: np.random.Generator, rows: int) -> np.ndarray:
    if cfg.distribution == "gaussian":
        return rng.normal(cfg.mu, cfg.sigma, size=(rows, cfg.n))
    if cfg.distribution == "exponential":
        return rng.exponential(cfg.scale, size=(rows, cfg.n))
    raise HarnessError(f"unknown distribution {cfg.distribution!r}")


def _worker_count() -> int:
    """Threads for the draws: the CPUs this process may run on, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def power_means(draw, rows: int, step: int, d: int) -> dict[int, np.ndarray]:
    """Row means of the first ``d`` powers of ``rows`` rows, where ``draw(lo, size)``
    gives rows ``lo`` to ``lo + size`` and is called in order, ``step`` rows at a
    time.  A row's means do not depend on how many rows share its block."""
    means = {i: np.empty(rows) for i in range(1, d + 1)}
    for lo in range(0, rows, step):
        w = draw(lo, min(step, rows - lo))
        for i, wp in enumerate(powers(w, d), start=1):
            wp.mean(axis=1, out=means[i][lo:lo + len(w)])
    return means


def _chunk_means(cfg: McConfig, dims: int, c: int) -> dict[int, np.ndarray]:
    """Power means of chunk ``c``'s draws, drawn in row blocks from one generator
    (the same numbers as one draw of the chunk)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, c]))
    return power_means(lambda lo, size: _draw(cfg, rng, size),
                       min(_CHUNK_ROWS, cfg.reps - c * _CHUNK_ROWS),
                       max(1, _BLOCK_BYTES // (8 * cfg.n)), dims)


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
    if not model.is_numeric:
        raise HarnessError("simulation needs a numeric moment spec")
    values, excluded = replicate_values(
        model.a_expr, model.params, cfg.reps, -(-cfg.reps // _CHUNK_ROWS),
        lambda c: _chunk_means(cfg, model.dims, c),
        math.sqrt(cfg.n) * cfg.statistic_scale)
    if values.size == 0:
        raise HarnessError("statistic undefined on every draw")
    return values, excluded


def simulate_statistic_cdf(model: StatModel, cfg: McConfig) -> tuple[Curve, int]:
    """Empirical CDF of the normalized statistic on the configured grid."""
    values, excluded = simulate_statistic_values(model, cfg)
    values.sort()
    grid = np.asarray(cfg.grid)
    ecdf = np.searchsorted(values, grid, side="right") / values.size
    return Curve.make(cfg.grid, ecdf), excluded


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


def compare_and_emit(
    model: StatModel,
    cfg: McConfig,
    p1: Poly,
    p2: Poly,
    out: TextIO,
    bindings: Bindings | None = None,
) -> ComparisonSummary:
    """Write the comparison CSV and return the sup-distance summary."""
    empirical, excluded = simulate_statistic_cdf(model, cfg)
    grid = list(cfg.grid)
    normal = [float(norm_cdf(float(x))) for x in grid]
    edge1 = [cdf_eval(p1, p2, bindings, cfg.n, float(x), order=1) for x in grid]
    edge2 = [cdf_eval(p1, p2, bindings, cfg.n, float(x), order=2) for x in grid]
    edge1_r = rearrange_increasing(clip01(Curve.make(grid, edge1))).values
    edge2_r = rearrange_increasing(clip01(Curve.make(grid, edge2))).values

    emp = np.asarray(empirical.values)

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
