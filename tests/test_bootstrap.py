import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from edgeboot import bootstrap, harness
from edgeboot.algebra import Bindings, eval_numeric
from edgeboot.bootstrap import (
    BiasCorrectionUndefinedError,
    BootConfig,
    BootstrapError,
    accel_plugin,
    bca_from_replicates,
    bca_interval,
    h_inverse_rank,
    h_value,
    resample_distribution,
)
from edgeboot.edgeworth import Mode, build_model
from edgeboot.expr import KernelRegistry, Var, arity, parse
from edgeboot.moments import empirical_spec, gaussian_spec, powers


def _one_shot(model, rows):
    """Oracle: the statistic at the power means of every row, in one evaluation."""
    means = {i: wp.mean(axis=1) for i, wp in enumerate(powers(rows, arity(model.g)), start=1)}
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = eval_numeric(model.g, Bindings(dict(model.params), means))
    return np.asarray(out, dtype=float).reshape(len(rows))


@pytest.fixture(scope="module")
def mean_model():
    return build_model(parse("x1"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


@pytest.fixture(scope="module")
def variance_model():
    return build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


@pytest.fixture(scope="module")
def sqrt_model():
    # undefined on resamples with a negative mean
    reg = KernelRegistry([Var(1)])
    return build_model(parse("sqrt(x1)", reg), Mode.NONSTUDENTIZED,
                       gaussian_spec(2.0, 1.0, 8), kernels=reg)


class TestResampleDistribution:
    def test_exhaustive_enumeration(self, mean_model):
        cfg = BootConfig(B=27, seed=0, alpha=0.1, exhaustive=True)
        reps, nan_count = resample_distribution([1, 2, 3], cfg, mean_model)
        assert reps.size == 27 and nan_count == 0
        sums = Counter(np.round(reps * 3).astype(int))
        assert dict(sums) == {3: 1, 4: 3, 5: 6, 6: 7, 7: 6, 8: 3, 9: 1}

    def test_constant_data(self, mean_model):
        cfg = BootConfig(B=64, seed=5, alpha=0.1)
        reps, _ = resample_distribution([2.0, 2.0, 2.0], cfg, mean_model)
        assert np.all(reps == 2.0)

    def test_seed_determinism(self, mean_model):
        data = [0.3, -1.2, 2.2, 0.7, 1.1]
        cfg = BootConfig(B=513, seed=99, alpha=0.1)
        a, _ = resample_distribution(data, cfg, mean_model)
        b, _ = resample_distribution(data, cfg, mean_model)
        assert np.array_equal(a, b)
        c, _ = resample_distribution(data, BootConfig(B=513, seed=100, alpha=0.1), mean_model)
        assert not np.array_equal(a, c)

    def test_needs_two_points(self, mean_model):
        with pytest.raises(BootstrapError):
            resample_distribution([1.0], BootConfig(B=10, seed=0, alpha=0.1), mean_model)


class TestReplicateEngine:
    """resample_distribution runs through harness.replicate_values in tasks of
    16,384 resamples; each task draws row blocks of whole 256-row chunks.  The
    result must be the one-shot resampling's, bit for bit, at any thread count."""

    B = 2 * harness._EVAL_ROWS + 300  # two full tasks and a partial one

    @staticmethod
    def _check(model, w, cfg, rows, monkeypatch):
        vals = _one_shot(model, w[rows])
        want = np.sort(vals[np.isfinite(vals)])
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "_worker_count", lambda k=workers: k)
            got, nan_count = resample_distribution(w, cfg, model)
            assert got.tobytes() == want.tobytes(), workers
            assert nan_count == vals.size - want.size, workers
        return vals

    @pytest.mark.parametrize("n", [50, 300])
    def test_blocks_equal_one_shot_resampling(self, variance_model, monkeypatch, n):
        # n = 50: 1,280-row blocks, which do not divide a task; n = 300: one
        # chunk per block
        step = max(1, harness._BLOCK_BYTES // (8 * n) // bootstrap._CHUNK) * bootstrap._CHUNK
        assert step == {50: 1280, 300: 256}[n]
        w = np.random.default_rng(8).exponential(1.0, n)
        cfg = BootConfig(B=self.B, seed=21, alpha=0.1)
        rows = bootstrap._resample_indices(n, self.B, 21)
        self._check(variance_model, w, cfg, rows, monkeypatch)

    def test_undefined_replicates_across_a_task_boundary(self, sqrt_model, monkeypatch):
        w = np.random.default_rng(10).normal(0.2, 1.0, 50)
        cfg = BootConfig(B=self.B, seed=4, alpha=0.1)
        rows = bootstrap._resample_indices(w.size, self.B, 4)
        vals = self._check(sqrt_model, w, cfg, rows, monkeypatch)
        task = harness._EVAL_ROWS
        assert np.isnan(vals[task - 256:task]).any()
        assert np.isnan(vals[task:task + 256]).any()

    def test_exhaustive_equals_one_shot_enumeration(self, sqrt_model, monkeypatch):
        # 6^6 = 46,656 resamples: two full tasks and a partial one
        w = np.array([0.3, -1.1, 2.0, 0.5, 1.7, -0.2])
        cfg = BootConfig(B=1, seed=0, alpha=0.1, exhaustive=True)
        rows = np.stack(np.unravel_index(np.arange(6**6), (6,) * 6), axis=1)
        vals = self._check(sqrt_model, w, cfg, rows, monkeypatch)
        assert 0 < np.isnan(vals).sum() < vals.size

    def test_memory_is_bounded(self, variance_model):
        # no array grows with the task size times n: one task of n = 200 once
        # held its 16,384 x 200 indices, data and powers (75 MiB)
        w = np.random.default_rng(2).normal(size=200)
        cfg = BootConfig(B=harness._EVAL_ROWS, seed=1, alpha=0.1)
        np.random.default_rng(0)  # numpy.random is imported on first use; not traced
        tracemalloc.start()
        try:
            resample_distribution(w, cfg, variance_model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestQuantileConvention:
    def test_inf_definition(self):
        # ceil(p*B)-th order statistic
        assert h_inverse_rank(27, 0.05) == 2
        assert h_inverse_rank(27, 0.95) == 26
        assert h_inverse_rank(999, 0.5) == 500
        assert h_inverse_rank(10, 1e-9) == 1
        assert h_inverse_rank(10, 1.0) == 10

    def test_weak_cdf(self):
        reps = np.asarray([1.0, 2.0, 2.0, 3.0])
        assert h_value(reps, 2.0) == 0.75  # ties count as <=
        assert h_value(reps, 1.9999) == 0.25


class TestAccelPlugin:
    def test_mean_zero_skewness(self, mean_model):
        assert abs(accel_plugin([1.0, 2.0, 3.0], mean_model)) < 1e-15

    def test_mean_matches_sample_skewness(self, mean_model):
        data = [0.0, 0.0, 0.0, 1.0]
        skew = empirical_spec(data, 3).std_moments[3]
        expected = skew / (6.0 * math.sqrt(len(data)))
        assert abs(accel_plugin(data, mean_model) - expected) < 1e-14

    def test_variance_converges_to_gaussian_value(self, variance_model):
        rng = np.random.default_rng(777)
        n = 10_000
        data = rng.normal(0.0, 1.0, size=n)
        target = math.sqrt(2.0) / (3.0 * math.sqrt(n))
        got = accel_plugin(data, variance_model)
        assert abs(got - target) <= 0.1 * abs(target)


class TestBcaInterval:
    def test_exhaustive_oracle(self, mean_model):
        # hand-derived: H(2) = 17/27, ranks from the closed formula
        cfg = BootConfig(B=27, seed=0, alpha=0.1, exhaustive=True)
        reps, _ = resample_distribution([1, 2, 3], cfg, mean_model)
        res = bca_from_replicates(2.0, reps, 0.0, 0.1)
        m_hat = ndtri(17.0 / 27.0)
        assert abs(res.m_hat - m_hat) < 1e-12
        lo_rank = math.ceil(ndtr(m_hat + (m_hat + ndtri(0.05))) * 27)
        hi_rank = math.ceil(ndtr(m_hat + (m_hat + ndtri(0.95))) * 27)
        assert (res.lower_rank, res.upper_rank) == (lo_rank, hi_rank)
        assert abs(res.lower - 5.0 / 3.0) < 1e-12
        assert res.upper == 3.0
        assert (res.percentile_lower, res.percentile_upper) == (4.0 / 3.0, 8.0 / 3.0)

    def test_zero_acceleration_zero_bias_reduces_to_percentile(self):
        reps = np.sort(np.linspace(-1.0, 1.0, 200))  # theta at the median
        theta = 0.5 * (reps[99] + reps[100])
        res = bca_from_replicates(theta, reps, 0.0, 0.1)
        assert res.m_hat == 0.0
        assert res.lower == res.percentile_lower
        assert res.upper == res.percentile_upper

    def test_median_centered_bias_is_zero(self):
        reps = np.sort(np.linspace(0.0, 1.0, 100))
        res = bca_from_replicates(0.5, reps, 0.0, 0.1)
        assert res.m_hat == 0.0

    def test_bias_correction_undefined(self):
        reps = np.sort(np.linspace(0.0, 1.0, 100))
        with pytest.raises(BiasCorrectionUndefinedError):
            bca_from_replicates(-5.0, reps, 0.0, 0.1)
        with pytest.raises(BiasCorrectionUndefinedError):
            bca_from_replicates(5.0, reps, 0.0, 0.1)

    def test_transformation_respecting(self, mean_model):
        data = [0.4, 1.9, -0.3, 2.8, 1.1, 0.6, -1.4]
        cfg = BootConfig(B=499, seed=31, alpha=0.1)
        reps, _ = resample_distribution(data, cfg, mean_model)
        theta = float(np.mean(data))
        a_hat = accel_plugin(data, mean_model)
        base = bca_from_replicates(theta, reps, a_hat, 0.1)
        mapped = bca_from_replicates(
            math.exp(theta), np.sort(np.exp(reps)), a_hat, 0.1
        )
        assert (mapped.lower_rank, mapped.upper_rank) == (base.lower_rank, base.upper_rank)
        assert abs(mapped.lower - math.exp(base.lower)) < 1e-12
        assert abs(mapped.upper - math.exp(base.upper)) < 1e-12

    def test_full_interval_deterministic(self, variance_model):
        data = list(np.random.default_rng(8).normal(size=25))
        cfg = BootConfig(B=999, seed=77, alpha=0.1)
        r1 = bca_interval(data, cfg, variance_model)
        r2 = bca_interval(data, cfg, variance_model)
        assert (r1.lower, r1.upper) == (r2.lower, r2.upper)
        assert np.array_equal(r1.H_hat, r2.H_hat)
        assert r1.lower <= r1.upper
        assert r1.nan_count == 0

    def test_config_validation(self):
        with pytest.raises(BootstrapError):
            BootConfig(B=0, seed=1, alpha=0.1)
        with pytest.raises(BootstrapError):
            BootConfig(B=10, seed=1, alpha=1.5)

    def test_undefined_replicates_reported_not_redrawn(self, sqrt_model):
        data = [4.0, 1.0, -3.5, 2.0, -2.5, 3.0]
        cfg = BootConfig(B=400, seed=13, alpha=0.1)
        reps, nan_count = resample_distribution(data, cfg, sqrt_model)
        assert nan_count > 0
        assert reps.size + nan_count == 400
        assert np.isfinite(reps).all()
        res = bca_interval(data, cfg, sqrt_model)
        assert res.nan_count == nan_count
