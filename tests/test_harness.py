import io
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc

from edgeboot.edgeworth import Mode, build_model, cumulant_coeffs, edgeworth_polys
from edgeboot.algebra import Bindings, eval_numeric
from edgeboot.expr import parse
from edgeboot import harness
from edgeboot.cli import main
from edgeboot.config import load_config, model_from_config
from edgeboot.harness import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    MAX_WORKERS,
    HarnessError,
    McConfig,
    compare_and_emit,
    parse_grid,
    simulate_statistic_cdf,
    simulate_statistic_values,
)
from edgeboot.moments import MomentSpec, empirical_spec, exponential_spec, gaussian_spec
from edgeboot.rearrange import is_nondecreasing

from reference_means import row_power_means


@pytest.fixture(scope="module")
def plain_mean_model():
    return build_model(parse("x1"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


class TestParseGrid:
    def test_inclusive_endpoints(self):
        g = parse_grid("-4:4:0.02")
        assert len(g) == 401 and g[0] == -4.0 and abs(g[-1] - 4.0) < 1e-12

    @pytest.mark.parametrize("spec, count, start, step", [
        ("-3:3:0.01", 601, -3.0, 0.01), ("-4:4:0.02", 401, -4.0, 0.02)])
    def test_uniform_grids_keep_their_points(self, spec, count, start, step):
        assert parse_grid(spec) == tuple(start + k * step for k in range(count))

    @pytest.mark.parametrize("spec, last", [("0:1:0.6", 0.6), ("-1:1:0.3", 0.8),
                                            ("0:1:0.3", 0.9)])
    def test_grid_never_passes_stop(self, spec, last):
        g = parse_grid(spec)
        assert g[-1] <= float(spec.split(":")[1])
        assert abs(g[-1] - last) < 1e-12

    def test_one_point_grid(self):
        with pytest.raises(HarnessError, match="needs at least two points"):
            parse_grid("0:0.4:1")

    def test_bad_specs(self):
        # the last two count an infinite number of points in a double
        for bad in ("1:2", "2:1:0.1", "0:1:-1", "a:b:c", "0:inf:1", "nan:1:0.1",
                    "0:1e308:1e-308", "-1e308:1e308:1"):
            with pytest.raises(HarnessError):
                parse_grid(bad)


@pytest.fixture
def no_large_range(monkeypatch):
    """Fail, instead of allocating, if the harness builds an oversized grid."""
    def guarded(*args):
        r = range(*args)
        assert len(r) <= MAX_GRID_POINTS, f"harness asked for {len(r)} points"
        return r

    monkeypatch.setattr(harness, "range", guarded, raising=False)


class TestGridLimit:
    def test_limit_itself_is_allowed(self, no_large_range):
        assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    def test_parse_grid_rejects_before_allocating(self, no_large_range):
        with pytest.raises(HarnessError, match=r"6000000001 points.*limit of 100000"):
            parse_grid("-3:3:1e-9")
        with pytest.raises(HarnessError, match="100001 points"):
            parse_grid(f"0:{MAX_GRID_POINTS}:1")

    def test_mc_config_rejects(self):
        grid = tuple(float(k) for k in range(MAX_GRID_POINTS + 1))
        with pytest.raises(HarnessError, match="100001 points"):
            McConfig(n=10, reps=10, grid=grid, seed=1)

    def test_cli_mc_rejects(self, no_large_range, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        code = main(["mc", "--stat", "mean", "--moments", "gaussian", "--dist", "gaussian",
                     "--n", "10", "--reps", "100", "--grid", "-3:3:1e-9", "--seed", "7",
                     "--out", str(out_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert "6000000001 points" in err and "limit of 100000" in err
        assert not out_file.exists()


class TestSampleSizeLimit:
    # a sample of n draws is one row of a 512 KiB row block: n <= 65,536
    def test_limit_itself_is_allowed(self):
        assert harness.MAX_N == 65_536
        assert McConfig(n=65_536, reps=10, grid=(0.0, 1.0), seed=1).n == 65_536

    def test_one_above_the_limit_is_rejected(self):
        with pytest.raises(HarnessError, match="n 65537 is more than the limit of 65536"):
            McConfig(n=65_537, reps=10, grid=(0.0, 1.0), seed=1)


class TestSimulate:
    def test_symmetry_at_zero(self, plain_mean_model):
        cfg = McConfig(n=12, reps=40000, grid=parse_grid("-3:3:0.5"), seed=4242)
        ecdf, excluded = simulate_statistic_cdf(plain_mean_model, cfg)
        at_zero = ecdf[cfg.grid.index(0.0)]
        assert excluded == 0
        assert abs(at_zero - 0.5) <= 3.0 * math.sqrt(0.25 / cfg.reps)

    def test_empirical_cdf_is_valid(self, plain_mean_model):
        cfg = McConfig(n=10, reps=5000, grid=parse_grid("-3:3:0.1"), seed=7)
        vals, _ = simulate_statistic_cdf(plain_mean_model, cfg)
        assert vals.shape == (len(cfg.grid),)
        assert is_nondecreasing(vals)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_seed_determinism(self, plain_mean_model):
        cfg = McConfig(n=10, reps=3000, grid=parse_grid("-2:2:0.5"), seed=99)
        a, _ = simulate_statistic_cdf(plain_mean_model, cfg)
        b, _ = simulate_statistic_cdf(plain_mean_model, cfg)
        assert a.tobytes() == b.tobytes()

    def test_studentized_mean_matches_t9(self):
        # sqrt(n)(mean - mu)/sigma_hat rescaled by sqrt((n-1)/n) is exactly
        # t_{n-1} for Gaussian data, so its CDF at x is t_{n-1}'s at that multiple
        n = 10
        model = build_model(parse("x1"), Mode.STUDENTIZED, gaussian_spec(0.0, 1.0, 8))
        cfg = McConfig(n=n, reps=200000, grid=parse_grid("-3:3:0.25"), seed=1234)
        ecdf, _ = simulate_statistic_cdf(model, cfg)

        def t_cdf(x, nu):
            if x == 0:
                return 0.5
            p = 0.5 * betainc(nu / 2.0, 0.5, nu / (nu + x * x))
            return p if x < 0 else 1.0 - p

        c = math.sqrt((n - 1) / n)
        worst = max(abs(v - t_cdf(c * x, n - 1)) for x, v in zip(cfg.grid, ecdf))
        assert worst < 0.01

    def test_undefined_draws_are_counted_not_imputed(self):
        # a statistic undefined on part of the sample space: sqrt of the
        # first power-mean, which goes negative for near-zero-mean data
        from edgeboot.expr import KernelRegistry, Var, parse

        reg = KernelRegistry([Var(1)])
        model = build_model(parse("sqrt(x1)", reg), Mode.NONSTUDENTIZED,
                            gaussian_spec(0.5, 1.0, 8), kernels=reg)
        cfg = McConfig(n=4, reps=20000, grid=parse_grid("-3:3:0.5"), seed=11)
        values, excluded = simulate_statistic_values(model, cfg)
        assert excluded > 0
        assert values.size + excluded == cfg.reps
        assert np.isfinite(values).all()

    def test_exponential_mean_skewness_sanity(self):
        # skewness of sqrt(n)(mean - mu)/sigma is exactly Gamma1/sqrt(n)
        n, reps = 50, 100000
        model = build_model(parse("x1"), Mode.NONSTUDENTIZED, exponential_spec(1.0, 8))
        cfg = McConfig(n=n, reps=reps, grid=parse_grid("-3:3:1"), seed=31415)
        values, excluded = simulate_statistic_values(model, cfg)
        assert excluded == 0
        batches = np.array_split(values, 10)

        def skew(v):
            c = v - v.mean()
            return float(np.mean(c**3) / np.mean(c**2) ** 1.5)

        estimates = [skew(b) for b in batches]
        pooled = skew(values)
        se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        target = 2.0 / math.sqrt(n)
        assert abs(pooled - target) <= 3.0 * se


class TestCompareAndEmit:
    def _emit(self, seed=2024):
        model = build_model(parse("x1"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(model))
        cfg = McConfig(n=10, reps=20000, grid=parse_grid("-3:3:0.05"), seed=seed)
        buf = io.StringIO()
        summary = compare_and_emit(model, cfg, p1, p2, buf)
        return buf.getvalue(), summary

    def test_header_and_shape(self):
        text, _ = self._emit()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        data_lines = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_lines) == 121
        assert all(len(l.split(",")) == 7 for l in data_lines)

    def test_summary_block(self):
        text, summary = self._emit()
        assert "# sup_dist_normal" in text
        assert f"# excluded_draws = {summary.excluded}" in text

    def test_rearranged_column_nondecreasing(self):
        text, _ = self._emit()
        rows = [l.split(",") for l in text.strip().splitlines()[1:] if not l.startswith("#")]
        e1r = [float(r[5]) for r in rows]
        e2r = [float(r[6]) for r in rows]
        assert is_nondecreasing(e1r) and is_nondecreasing(e2r)

    def test_bit_identical_output(self):
        a, _ = self._emit(seed=555)
        b, _ = self._emit(seed=555)
        assert a == b

    def test_reps_spanning_multiple_chunks_deterministic(self):
        model = build_model(parse("x1"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))
        cfg = McConfig(n=5, reps=70000, grid=parse_grid("-2:2:1"), seed=3)
        a, _ = simulate_statistic_cdf(model, cfg)
        b, _ = simulate_statistic_cdf(model, cfg)
        assert a.tobytes() == b.tobytes()


class TestValidation:
    @pytest.mark.parametrize("kind, spec", [
        ("custom", MomentSpec(0.0, 1.0, (1.0, 0.0, 1.0, 0.0, 3.0), 4)),
        ("empirical", empirical_spec([0.3, -1.2, 2.0, 0.7, -0.1], 4)),
    ])
    def test_moments_without_a_sampler(self, kind, spec):
        # the draws come from the spec: moments alone name no distribution
        model = build_model(parse("x1"), Mode.NONSTUDENTIZED, spec)
        cfg = McConfig(n=10, reps=100, grid=parse_grid("-1:1:0.5"), seed=1)
        with pytest.raises(HarnessError, match=f"not {kind} ones"):
            simulate_statistic_cdf(model, cfg)

    def test_symbolic_model_rejected(self):
        from edgeboot.expr import sym
        from edgeboot.moments import symbolic_spec

        for spec in (symbolic_spec(8), gaussian_spec(sym("mu"), 1.0, 8)):
            model = build_model(parse("x1"), Mode.NONSTUDENTIZED, spec)
            cfg = McConfig(n=10, reps=100, grid=parse_grid("-1:1:0.5"), seed=1)
            with pytest.raises(HarnessError, match="not symbolic ones"):
                simulate_statistic_cdf(model, cfg)

    def test_config_validation(self):
        with pytest.raises(HarnessError):
            McConfig(n=1, reps=100, grid=parse_grid("-1:1:0.5"), seed=1)
        with pytest.raises(HarnessError):
            McConfig(n=10, reps=0, grid=parse_grid("-1:1:0.5"), seed=1)
        with pytest.raises(HarnessError, match="strictly increasing"):
            McConfig(n=10, reps=100, grid=(0.0, 0.0, 1.0), seed=1)
        with pytest.raises(HarnessError, match="needs at least two points"):
            McConfig(n=10, reps=100, grid=(0.0,), seed=1)


class TestPowerMeans:
    def test_powers_are_repeated_products(self):
        # one-column rows: each mean is the power itself, bit for bit
        w = np.array([[0.3], [-1.7], [2.0], [1e-3], [4.5], [-0.2]])
        got = harness.power_means(lambda lo, size: w[lo:lo + size], 6, 4, 4)
        want = [w, w * w, w * w * w, w * w * w * w]
        assert sorted(got) == [1, 2, 3, 4]
        for i, e in enumerate(want, start=1):
            assert got[i].tobytes() == e.ravel().tobytes(), i

    def test_no_powers(self):
        assert harness.power_means(lambda lo, size: np.ones((size, 3)), 2, 2, 0) == {}

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 10, 50, 128, 129, 1000])
    def test_block_geometry_changes_no_mean(self, n):
        # a row's means are the same bits in blocks of 1, 2, 3 or all 37 rows,
        # with each block at an odd element offset of its buffer or at none
        rows = 37
        w = np.random.default_rng(n).normal(size=(rows, n))
        want = row_power_means(w, 4)
        for step in (1, 2, 3, rows):
            for offset in (0, 1, 3):
                buf = np.empty(offset + step * n)

                def draw(lo, size):
                    block = buf[offset:offset + size * n].reshape(size, n)
                    block[...] = w[lo:lo + size]
                    return block

                got = harness.power_means(draw, rows, step, 4)
                for i in want:
                    assert got[i].tobytes() == want[i].tobytes(), (step, offset, i)

    @pytest.mark.parametrize("spec", [gaussian_spec(3.0, 2.5, 8),
                                      exponential_spec(1.5, 8)])
    def test_draw_fills_the_numbers_of_normal_and_exponential(self, spec):
        # draws of W - mu: the gaussian's mean 3 moves none of them
        out = np.empty((3, 7))
        got = harness._draw(spec, np.random.default_rng(4), out)
        rng = np.random.default_rng(4)
        if spec.distribution == "gaussian":
            want = rng.normal(0.0, spec.scale, size=out.shape)
        else:
            want = rng.exponential(spec.scale, size=out.shape) - spec.mean
        assert got is out
        assert got.tobytes() == want.tobytes()


def _serial_values(model, cfg):
    """The single-thread loop: draw, reduce and evaluate each chunk in turn."""
    chunks, excluded, produced, c = [], 0, 0, 0
    while produced < cfg.reps:
        rows = min(harness._CHUNK_ROWS, cfg.reps - produced)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, c]))
        w = harness._draw(model.spec, rng, np.empty((rows, cfg.n)))
        means = row_power_means(w, model.dims)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            vals = eval_numeric(model.a_expr, Bindings(dict(model.params), means))
        vals = math.sqrt(cfg.n) * np.asarray(vals, dtype=float)
        keep = vals[np.isfinite(vals)]
        excluded += vals.size - keep.size
        chunks.append(keep)
        produced += rows
        c += 1
    return np.concatenate(chunks), excluded


class TestWorkers:
    @staticmethod
    def _check_against_oracle(model, cfg, monkeypatch):
        want, want_excluded = _serial_values(model, cfg)
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "_worker_count", lambda k=workers: k)
            got, excluded = simulate_statistic_values(model, cfg)
            assert got.tobytes() == want.tobytes(), workers
            assert excluded == want_excluded, workers
        return want_excluded

    def test_thread_count_changes_no_value(self, monkeypatch):
        # sqrt(x1) is undefined on about a fifth of the draws, so the
        # excluded count is compared too, and the evaluation slice at rows
        # 16,384-32,767 has excluded draws on both sides of the draw block
        # boundary at row 21,845; the last chunk is partial
        from edgeboot.expr import KernelRegistry, Var

        reg = KernelRegistry([Var(1)])
        model = build_model(parse("sqrt(x1)", reg), Mode.NONSTUDENTIZED,
                            gaussian_spec(0.5, 1.0, 8), kernels=reg)
        cfg = McConfig(n=3, reps=2 * harness._CHUNK_ROWS + 5,
                       grid=parse_grid("-1:1:0.5"), seed=77)
        assert harness._BLOCK_BYTES // (8 * cfg.n) == 21845
        x1 = harness._chunk_means(cfg, model.spec, 1, 0)[1]
        assert (x1[16384:21845] < 0).any() and (x1[21845:32768] < 0).any()
        assert self._check_against_oracle(model, cfg, monkeypatch) > 0

    def test_transcendental_statistic_is_bit_identical(self, monkeypatch):
        # exp, Phi and phi nodes, exponential draws, and an n whose draw
        # blocks do not divide the chunk
        model = model_from_config(load_config("ml_symmetric"), Mode.STUDENTIZED,
                                  moments_override={"distribution": "exponential"})
        cfg = McConfig(n=7, reps=harness._CHUNK_ROWS + 20001,
                       grid=parse_grid("-1:1:0.5"), seed=21)
        assert harness._CHUNK_ROWS % (harness._BLOCK_BYTES // (8 * cfg.n)) != 0
        self._check_against_oracle(model, cfg, monkeypatch)

    def test_worker_count_bounds(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert harness._worker_count() == MAX_WORKERS
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        assert harness._worker_count() == min(2, MAX_WORKERS)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert harness._worker_count() == 1

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert harness._worker_count() == min(3, MAX_WORKERS)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._worker_count() == 1

    @pytest.mark.parametrize("n", [10, 200])
    def test_chunk_memory_is_bounded(self, n):
        # the chunk's four mean arrays, plus a few draw blocks: no array
        # grows with the chunk size times n
        cfg = McConfig(n=n, reps=harness._CHUNK_ROWS, grid=parse_grid("-1:1:0.5"), seed=3)
        bound = 4 * harness._CHUNK_ROWS * 8 + 4 * harness._BLOCK_BYTES
        np.random.default_rng(0)  # numpy.random is imported on first use; not traced
        tracemalloc.start()
        try:
            harness._chunk_means(cfg, gaussian_spec(0.0, 1.0, 8), 4, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB"

    def test_worker_error_reaches_the_caller_and_threads_end(self, plain_mean_model,
                                                             monkeypatch):
        def fail(spec, rng, out):
            raise HarnessError("draw failed")

        monkeypatch.setattr(harness, "_worker_count", lambda: 3)
        monkeypatch.setattr(harness, "_draw", fail)
        cfg = McConfig(n=10, reps=5 * harness._CHUNK_ROWS, grid=parse_grid("-1:1:0.5"),
                       seed=1)
        before = threading.active_count()
        with pytest.raises(HarnessError, match="draw failed"):
            simulate_statistic_values(plain_mean_model, cfg)
        assert threading.active_count() == before
