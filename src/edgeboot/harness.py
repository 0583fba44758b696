"""Monte Carlo validation of the expansion-based CDF approximations.

Simulates the normalized statistic sqrt(n) * A(power means) under a
distribution preset, compares its empirical CDF on a grid against the
normal, first-order and second-order approximations, and emits one CSV row
per grid point plus a trailing summary block of sup-distances (as
``#``-prefixed lines).  Raw and rearranged approximation columns are both
written; the rearranged ones are clipped to [0,1] and sorted.

Replications are drawn in fixed chunks from substreams seeded by
``(seed, chunk)``.  The chunks are drawn and reduced to power means on up to
:data:`MAX_WORKERS` threads, and the statistic is evaluated on the calling
thread in chunk order.  A chunk's draws depend only on ``(seed, chunk)``, so
the same configuration yields a bit-identical CSV whatever the thread count.
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
MAX_GRID_POINTS = 100_000  # each point costs a CSV row and four expansion evaluations
# every kept rep is held twice while the chunks are joined, 8 B each: 0.8 GB at the cap
MAX_REPS = 50_000_000
MAX_WORKERS = 4
# the draws of the chunks in flight stay within this many bytes
_INFLIGHT_BYTES = 256 * 2**20

CSV_HEADER = "x,empirical,normal,edge1,edge2,edge1_rearranged,edge2_rearranged"


class HarnessError(Exception):
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
            raise HarnessError(f"--reps {self.reps} is more than the limit of {MAX_REPS}")
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


def _worker_count(n: int) -> int:
    """Threads for the draws: the CPUs this process may run on, at most
    MAX_WORKERS, and few enough that the chunks in flight stay within
    _INFLIGHT_BYTES (a chunk holds its draws and one live power)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    per_chunk = _CHUNK_ROWS * n * 8 * 2
    return max(1, min(cpus, MAX_WORKERS, _INFLIGHT_BYTES // per_chunk))


def _chunk_means(cfg: McConfig, dims: int, c: int) -> dict[int, np.ndarray]:
    """Row means of the first ``dims`` powers of chunk ``c``'s draws.

    Runs on a worker thread: numpy only, so no Expr is built and no
    statistic is evaluated here."""
    rows = min(_CHUNK_ROWS, cfg.reps - c * _CHUNK_ROWS)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, c]))
    w = _draw(cfg, rng, rows)
    return {i: wp.mean(axis=1) for i, wp in enumerate(powers(w, dims), start=1)}


def simulate_statistic_values(model: StatModel, cfg: McConfig) -> tuple[np.ndarray, int]:
    """All finite draws of the normalized statistic, and the excluded count."""
    if not model.is_numeric:
        raise HarnessError("simulation needs a numeric moment spec")
    sqrt_n = math.sqrt(cfg.n) * cfg.statistic_scale
    n_chunks = -(-cfg.reps // _CHUNK_ROWS)
    workers = _worker_count(cfg.n)
    chunks: list[np.ndarray] = []
    excluded = 0
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # at most `workers` chunks in flight; results are taken in chunk order
        pending = deque(pool.submit(_chunk_means, cfg, model.dims, c)
                        for c in range(min(workers, n_chunks)))
        for c in range(n_chunks):
            means = pending.popleft().result()
            if c + workers < n_chunks:
                pending.append(pool.submit(_chunk_means, cfg, model.dims, c + workers))
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                vals = eval_numeric(model.a_expr, Bindings(dict(model.params), means))
            vals = sqrt_n * np.asarray(vals, dtype=float)
            keep = vals[np.isfinite(vals)]
            excluded += vals.size - keep.size
            chunks.append(keep)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    values = np.concatenate(chunks)
    if values.size == 0:
        raise HarnessError("statistic undefined on every draw")
    return values, int(excluded)


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
    out.write(f"# sup_dist_normal = {summary.sup_normal:.17g}\n")
    out.write(f"# sup_dist_edge1 = {summary.sup_edge1:.17g}\n")
    out.write(f"# sup_dist_edge2 = {summary.sup_edge2:.17g}\n")
    out.write(f"# sup_dist_edge1_rearranged = {summary.sup_edge1_rearranged:.17g}\n")
    out.write(f"# sup_dist_edge2_rearranged = {summary.sup_edge2_rearranged:.17g}\n")
    out.write(f"# excluded_draws = {summary.excluded}\n")
    return summary
