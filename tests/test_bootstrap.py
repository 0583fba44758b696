import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from edgeboot import bootstrap
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
    statistic_evaluator,
)
from edgeboot.edgeworth import Mode, build_model
from edgeboot.expr import parse
from edgeboot.moments import empirical_spec, gaussian_spec


@pytest.fixture(scope="module")
def mean_model():
    return build_model(parse("x1"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


@pytest.fixture(scope="module")
def variance_model():
    return build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


class TestResampleDistribution:
    def test_exhaustive_enumeration(self, mean_model):
        stat = statistic_evaluator(mean_model)
        cfg = BootConfig(B=27, seed=0, alpha=0.1, exhaustive=True)
        reps, nan_count = resample_distribution([1, 2, 3], cfg, stat)
        assert reps.size == 27 and nan_count == 0
        sums = Counter(np.round(reps * 3).astype(int))
        assert dict(sums) == {3: 1, 4: 3, 5: 6, 6: 7, 7: 6, 8: 3, 9: 1}

    def test_constant_data(self, mean_model):
        stat = statistic_evaluator(mean_model)
        cfg = BootConfig(B=64, seed=5, alpha=0.1)
        reps, _ = resample_distribution([2.0, 2.0, 2.0], cfg, stat)
        assert np.all(reps == 2.0)

    def test_seed_determinism(self, mean_model):
        stat = statistic_evaluator(mean_model)
        data = [0.3, -1.2, 2.2, 0.7, 1.1]
        cfg = BootConfig(B=513, seed=99, alpha=0.1)
        a, _ = resample_distribution(data, cfg, stat)
        b, _ = resample_distribution(data, cfg, stat)
        assert np.array_equal(a, b)
        c, _ = resample_distribution(data, BootConfig(B=513, seed=100, alpha=0.1), stat)
        assert not np.array_equal(a, c)

    def test_blocks_equal_one_shot_resampling(self, variance_model):
        # one full block of 64 chunks and a partial second one
        stat = statistic_evaluator(variance_model)
        w = np.random.default_rng(8).exponential(1.0, 50)
        B = bootstrap._BLOCK_CHUNKS * bootstrap._CHUNK + 300
        assert B == 16384 + 300
        want = np.sort(stat(w[bootstrap._resample_indices(w.size, B, 21)]))
        got, nan_count = resample_distribution(w, BootConfig(B=B, seed=21, alpha=0.1), stat)
        assert nan_count == 0
        assert np.array_equal(got, want)

    def test_needs_two_points(self, mean_model):
        with pytest.raises(BootstrapError):
            resample_distribution([1.0], BootConfig(B=10, seed=0, alpha=0.1),
                                  statistic_evaluator(mean_model))


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
        stat = statistic_evaluator(mean_model)
        cfg = BootConfig(B=27, seed=0, alpha=0.1, exhaustive=True)
        reps, _ = resample_distribution([1, 2, 3], cfg, stat)
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
        stat = statistic_evaluator(mean_model)
        reps, _ = resample_distribution(data, cfg, stat)
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

    def test_undefined_replicates_reported_not_redrawn(self):
        # statistic undefined on resamples with a negative mean
        from edgeboot.expr import KernelRegistry, Var, parse

        reg = KernelRegistry([Var(1)])
        model = build_model(parse("sqrt(x1)", reg), Mode.NONSTUDENTIZED,
                            gaussian_spec(2.0, 1.0, 8), kernels=reg)
        data = [4.0, 1.0, -3.5, 2.0, -2.5, 3.0]
        stat = statistic_evaluator(model)
        cfg = BootConfig(B=400, seed=13, alpha=0.1)
        reps, nan_count = resample_distribution(data, cfg, stat)
        assert nan_count > 0
        assert reps.size + nan_count == 400
        assert np.isfinite(reps).all()
        res = bca_interval(data, cfg, model)
        assert res.nan_count == nan_count
