import gc
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from scipy.special import ndtri

from edgeboot.algebra import Bindings, eval_numeric, normalize
from edgeboot.expr import (
    Expr,
    KernelRegistry,
    Sym,
    Var,
    ONE,
    ZERO,
    const,
    parse,
    pow_,
    sub,
)
from edgeboot.config import PRESETS, load_config, model_from_config, statistic_from_config
from edgeboot.moments import (
    MomentOrderError,
    cross_moment,
    empirical_spec,
    exponential_spec,
    gaussian_spec,
    raw_moment,
    symbolic_spec,
)
from edgeboot.edgeworth import (
    Mode,
    ModelError,
    Poly,
    accel_constant,
    build_model,
    cdf_eval,
    cornish_fisher_polys,
    cumulant_coeffs,
    edgeworth_polys,
    model_shape,
    quantile_eval,
    scale_adjust,
)
from edgeboot import edgeworth, moments
from edgeboot.codegen import emit_assignments

import reference_polys
from naive_coeffs import cumulant_coeffs_naive
from two_branch_model import build_model_two_branch

ML_RADICAND = sub(Var(2), pow_(Var(1), 2))
ML_G_TEXT = "Phi((lambda - x1)/sqrt(x2 - x1^2)) - Phi((-lambda - x1)/sqrt(x2 - x1^2))"


def ml_model(mode, lam=1.0, sigma=1.0, mu=0.0):
    reg = KernelRegistry([ML_RADICAND])
    g = parse(ML_G_TEXT, reg)
    spec = gaussian_spec(mu, sigma, K=16)
    return build_model(g, mode, spec, params={"lambda": lam}, kernels=reg)


def poly_coeffs_match(p: Poly, expected: dict[int, str]):
    for k in range(p.degree + 1):
        want = expected.get(k, "0")
        got = p.coeffs[k]
        got_expr = got if isinstance(got, Expr) else const(Fraction(float(got)))
        assert normalize(got_expr) == normalize(parse(want)), (k, got)


class TestBuildModel:
    def test_mean_plain(self):
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        assert m.d == 1 and m.dims == 1
        assert normalize(m.sigma_a) == normalize(Sym("sigma"))
        assert normalize(m.deriv[(1,)]) == normalize(parse("1/sigma"))
        assert normalize(m.a_expr - parse("(x1 - mu)/sigma")).is_zero

    def test_algebraic_variance_canonical_beside_transcendental_g(self):
        # g(mu) = mu + exp(1) stays an expression; h2(mu) = sigma^2 still
        # takes its normal form, so h = sigma and the derivative is 1/sigma
        m = build_model(parse("x1 + exp(1)"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        assert m.sigma_a == Sym("sigma")
        assert m.deriv[(1,)] == parse("1/sigma")

    def test_variance_h2(self):
        m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, symbolic_spec(16))
        assert m.d == 2 and m.dims == 4
        target = parse("x4 - 4*x1*x3 + 8*x1^2*x2 - 4*x1^4 - x2^2")
        assert normalize(m.h2_expr - target).is_zero

    def test_ml_sigma(self):
        for lam in (1.0, 2.0, 3.0):
            m = ml_model(Mode.NONSTUDENTIZED, lam=lam)
            assert abs(m.sigma_a**2 - lam**2 * math.exp(-lam**2) / math.pi) < 1e-12

    def test_dimension_override(self):
        m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, gaussian_spec(0.0, 1.0, 32), d=4)
        assert m.dims == 8

    def test_zero_variance(self):
        with pytest.raises(ModelError):
            build_model(parse("x1 - x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))

    def test_insufficient_moments(self):
        with pytest.raises(MomentOrderError):
            build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(4))


class TestMeanExpansion:
    def test_plain_coefficients(self):
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        k = cumulant_coeffs(m)
        assert normalize(k.k12).is_zero
        assert normalize(k.k22).is_zero
        assert normalize(k.k31) == normalize(Sym("Gamma1"))
        assert normalize(k.k41) == normalize(Sym("kappa1"))

    def test_studentized_coefficients(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        k = cumulant_coeffs(m)
        assert normalize(k.k12) == normalize(parse("-Gamma1/2"))
        assert normalize(k.k31) == normalize(parse("-2*Gamma1"))
        assert normalize(k.k22) == normalize(parse("3 + 7*Gamma1^2/4"))
        assert normalize(k.k41) == normalize(parse("6 - 2*kappa1 + 12*Gamma1^2"))

    def test_plain_polynomials(self):
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        poly_coeffs_match(p1, {0: "Gamma1/6", 2: "-Gamma1/6"})
        poly_coeffs_match(p2, {
            1: "kappa1/8 - 5*Gamma1^2/24",
            3: "-kappa1/24 + 5*Gamma1^2/36",
            5: "-Gamma1^2/72",
        })

    def test_gaussian_specialization(self):
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        k = cumulant_coeffs(m)
        from edgeboot.algebra import substitute

        zeroed = substitute(k.k31, {Sym("Gamma1"): parse("0"), Sym("kappa1"): parse("0")})
        assert normalize(zeroed).is_zero


class TestNaiveAgreement:
    def test_mean_studentized_symbolic(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        fast = cumulant_coeffs(m)
        slow = cumulant_coeffs_naive(m)
        for name in ("k12", "k22", "k31", "k41"):
            assert normalize(getattr(fast, name)) == normalize(getattr(slow, name))

    def test_variance_studentized_symbolic(self):
        # D = 4 in the normal-form ring: the factored k41 sums against the
        # literal six-deep loops, exactly
        m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, symbolic_spec(16))
        fast = cumulant_coeffs(m)
        slow = cumulant_coeffs_naive(m)
        for name in ("k12", "k22", "k31", "k41"):
            assert getattr(fast, name) == getattr(slow, name), name

    def test_variance_numeric(self):
        m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, gaussian_spec(0.2, 1.1, 16))
        fast = cumulant_coeffs(m)
        slow = cumulant_coeffs_naive(m)
        for name in ("k12", "k22", "k31", "k41"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestRingMemo:
    def test_derivatives_converted_once(self, monkeypatch):
        # the derivative table is converted by one _to_nf memo, once per model:
        # accel_constant after cumulant_coeffs converts no derivative again
        m = build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, symbolic_spec(8))
        deriv_ids = {id(v) for v in m.deriv.values()}
        calls = Counter()
        memos = []  # kept alive, so their ids stay distinct
        real = edgeworth._to_nf

        def counting(e, memo=None):
            if id(e) in deriv_ids:
                calls[id(e)] += 1
                if not any(memo is seen for seen in memos):
                    memos.append(memo)
            return real(e, memo)

        monkeypatch.setattr(edgeworth, "_to_nf", counting)
        cumulant_coeffs(m)
        accel_constant(m)
        assert len(memos) == 1 and memos[0] is not None
        # one call per table entry (entries may share a node, such as ZERO)
        assert set(calls) == deriv_ids
        assert sum(calls.values()) == len(m.deriv)
        assert edgeworth._first_order(m) is m.first_order

    def test_first_order_built_once(self, monkeypatch):
        # accel_constant after cumulant_coeffs reuses the moment view, S2 and
        # A (k31's first term) that cumulant_coeffs built, and agrees with
        # accel_constant on a fresh model
        def model():
            return build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, symbolic_spec(8))

        alone = accel_constant(model())
        views = []
        real = edgeworth._MomentView

        def counting(*args):
            views.append(real(*args))
            return views[-1]

        monkeypatch.setattr(edgeworth, "_MomentView", counting)
        m = model()
        cumulant_coeffs(m)
        assert accel_constant(m) == alone
        assert len(views) == 1

    def test_kept_view_survives_a_cleared_moment_cache(self):
        # the view kept on the model memoises moment subtrees by node id; a
        # cleared cross_moment cache must not let new nodes hit stale entries
        def model():
            return build_model(parse("(x2 - x1^2)/x1"), Mode.NONSTUDENTIZED, symbolic_spec(8))

        want = cumulant_coeffs(model())
        m = model()
        accel_constant(m)  # converts the pair and triple moments only
        for cache in (cross_moment, raw_moment, moments._ring_values):
            cache.cache_clear()
        gc.collect()
        assert cumulant_coeffs(m) == want

    def test_moments_read_through_the_moments_module(self, monkeypatch):
        # bench/tracing.py times the cross moments by replacing moments.cross_moment
        seen = []
        real = moments.cross_moment

        def counting(spec, indices):
            seen.append(indices)
            return real(spec, indices)

        monkeypatch.setattr(moments, "cross_moment", counting)
        cumulant_coeffs(build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, symbolic_spec(8)))
        assert (1, 1) in seen and (2, 2, 2, 2) in seen


def _emit_all(g_text: str, mode: Mode, spec, positive=()) -> bytes:
    """The emit text of A, a, k12, k22, k31, k41, p1, p2, p11, p21."""
    reg = KernelRegistry([parse(text) for text in positive])
    m = build_model(parse(g_text, reg), mode, spec, kernels=reg)
    k = cumulant_coeffs(m)
    p1, p2 = edgeworth_polys(k)
    p11, p21 = cornish_fisher_polys(p1, p2)
    acc = accel_constant(m)
    x = Sym("x")
    return emit_assignments([
        ("A", acc.A_value), ("a", acc.a_over_sqrtn), ("k12", k.k12), ("k22", k.k22),
        ("k31", k.k31), ("k41", k.k41), ("p1", p1.to_expr(x)), ("p2", p2.to_expr(x)),
        ("p11", p11.to_expr(x)), ("p21", p21.to_expr(x)),
    ]).encode()


class TestPinnedOutput:
    # every emitted item, byte for byte: a change of canonical form shows up here

    # `a` takes the square root of the canonical form, so its radicand
    # carries no factor shared by numerator and denominator (re-pinned for
    # that change; no other item moved)
    def test_cv_over_symbolic_moments(self):
        text = _emit_all("sqrt(x2 - x1^2)/x1", Mode.NONSTUDENTIZED, symbolic_spec(8),
                         ["x2 - x1^2"])
        assert len(text) == 25950
        assert hashlib.sha256(text).hexdigest() == (
            "4aca84aee39046005061d21bb7ecd1f8e06684de16f0ebd806e1200e981f830a")

    def test_studentized_variance_over_symbolic_moments(self):
        text = _emit_all("x2 - x1^2", Mode.STUDENTIZED, symbolic_spec(16))
        assert len(text) == 3237
        assert hashlib.sha256(text).hexdigest() == (
            "67a73862d1d362c25a2a7252fa6f28cdb2ee903b2348c80cb32e21321b51d715")

    def test_kurtosis_over_gaussian_moments(self):
        text = _emit_all("(x4 - 4*x1*x3 + 6*x1^2*x2 - 3*x1^4)/(x2 - x1^2)^2",
                         Mode.NONSTUDENTIZED, gaussian_spec(Sym("mu"), Sym("sigma"), 16),
                         ["x2 - x1^2"])
        assert len(text) == 241
        assert hashlib.sha256(text).hexdigest() == (
            "5192b8001af2af097500c461f561e5e9626e04beb13915bf2aba219efd1c8657")


class TestPolynomials:
    def test_parity_structure(self):
        # p1 spans {1, x^2}; p2 spans {x, x^3, x^5}; same for p11/p21
        for mode in (Mode.NONSTUDENTIZED, Mode.STUDENTIZED):
            m = build_model(parse("x1"), mode, symbolic_spec(8))
            p1, p2 = edgeworth_polys(cumulant_coeffs(m))
            p11, p21 = cornish_fisher_polys(p1, p2)
            for p_even in (p1, p11):
                for k in range(1, p_even.degree + 1, 2):
                    assert normalize(p_even.coeffs[k]).is_zero
            for p_odd in (p2, p21):
                for k in range(0, p_odd.degree + 1, 2):
                    assert normalize(p_odd.coeffs[k]).is_zero

    def test_cornish_fisher_identity(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        p11, p21 = cornish_fisher_polys(p1, p2)
        for k in range(p1.degree + 1):
            total = p11.coeffs[k] + p1.coeffs[k]
            assert normalize(total if isinstance(total, Expr) else const(0)).is_zero

    def test_zero_coefficients_give_zero_polys(self):
        from edgeboot.edgeworth import CumulantCoeffs

        p1, p2 = edgeworth_polys(CumulantCoeffs(0.0, 0.0, 0.0, 0.0))
        assert all(c == 0.0 for c in p1.coeffs)
        assert all(c == 0.0 for c in p2.coeffs)
        p11, p21 = cornish_fisher_polys(p1, p2)
        assert all(c == 0.0 for c in p11.coeffs)
        assert all(c == 0.0 for c in p21.coeffs)

    def test_scale_adjust_identity_and_inverse(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        same1, same2 = scale_adjust(p1, p2, Fraction(0))
        for k in range(p2.degree + 1):
            assert normalize(same2.coeffs[k] - p2.coeffs[k]).is_zero
        up1, up2 = scale_adjust(p1, p2, Fraction(1, 2))
        back1, back2 = scale_adjust(up1, up2, Fraction(-1, 2))
        for k in range(p2.degree + 1):
            assert normalize(back2.coeffs[k] - p2.coeffs[k]).is_zero

    def test_t_distribution_adjustment(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        _, p2t = scale_adjust(p1, p2, Fraction(1, 2))
        diff = p2t.coeffs[1] - p2.coeffs[1]
        assert normalize(diff - const(Fraction(1, 2))).is_zero


class TestAcceleration:
    def test_studentized_mean_unit_variance(self):
        m = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        acc = accel_constant(m)
        assert normalize(acc.sigma3) == normalize(ONE)
        assert normalize(acc.A_value) == normalize(Sym("Gamma1"))
        assert normalize(acc.a_over_sqrtn) == normalize(parse("Gamma1/6"))

    def test_variance_gaussian_value(self):
        m = build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))
        acc = accel_constant(m)
        assert abs(acc.a_over_sqrtn - math.sqrt(2.0) / 3.0) < 1e-12

    def test_ml_symmetric_constant(self):
        for sigma, lam in [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
            m = ml_model(Mode.NONSTUDENTIZED, lam=lam, sigma=sigma)
            acc = accel_constant(m)
            assert abs(acc.A_value - (-2.0 * math.sqrt(2.0))) < 1e-10
            assert abs(acc.a_over_sqrtn - (-math.sqrt(2.0) / 3.0)) < 1e-10


class TestMlProposition:
    # (sigma, lambda/sigma) pairs: coefficients depend only on the ratio
    CASES = [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_plain_k_values(self):
        for sigma, ratio in self.CASES:
            k = cumulant_coeffs(ml_model(Mode.NONSTUDENTIZED, lam=sigma * ratio,
                                         sigma=sigma))
            assert abs(k.k12 - (3 - ratio**2) / (2 * math.sqrt(2))) < 1e-8
            assert abs(k.k22 - 0.75 * (5 - 6 * ratio**2 + ratio**4)) < 1e-8
            assert abs(k.k31 - (5 - 3 * ratio**2) / math.sqrt(2)) < 1e-8
            assert abs(k.k41 - (24 - 32 * ratio**2 + 8 * ratio**4)) < 1e-8

    def test_studentized_k_values(self):
        for sigma, ratio in self.CASES:
            k = cumulant_coeffs(ml_model(Mode.STUDENTIZED, lam=sigma * ratio,
                                         sigma=sigma))
            assert abs(k.k12 - (1 + ratio**2) / (2 * math.sqrt(2))) < 1e-8
            assert abs(k.k22 - 0.25 * (35 + 10 * ratio**2 + 3 * ratio**4)) < 1e-8
            assert abs(k.k31 - (-1 + 3 * ratio**2) / math.sqrt(2)) < 1e-8
            assert abs(k.k41 - (18 + 4 * ratio**2 + 8 * ratio**4)) < 1e-8

    def test_symbolic_vs_numeric_backend(self):
        # variance model: symbolic coefficients bound at Gaussian values
        # equal the numeric-backend coefficients
        sym_m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, symbolic_spec(16))
        sym_k = cumulant_coeffs(sym_m)
        num_m = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, gaussian_spec(0.0, 1.0, 16))
        num_k = cumulant_coeffs(num_m)
        from edgeboot.algebra import eval_numeric

        env = Bindings({"Gamma1": 0.0, "kappa1": 0.0, "mu5": 0.0, "mu6": 15.0,
                        "mu7": 0.0, "mu8": 105.0, "mu9": 0.0, "mu10": 945.0,
                        "sigma": 1.0, "mu": 0.0}, {})
        for name in ("k12", "k22", "k31", "k41"):
            sv = eval_numeric(getattr(sym_k, name), env)
            nv = getattr(num_k, name)
            assert abs(sv - nv) <= 1e-10 * max(1.0, abs(nv)), name


@pytest.fixture(scope="module")
def studentized_gaussian_mean():
    m = build_model(parse("x1"), Mode.STUDENTIZED, gaussian_spec(0.0, 1.0, 8))
    p1, p2 = edgeworth_polys(cumulant_coeffs(m))
    p11, p21 = cornish_fisher_polys(p1, p2)
    return p1, p2, p11, p21


class TestExactDistributions:
    """Expansion CDFs against analytically known sampling distributions."""

    def test_exponential_mean_vs_gamma_law(self):
        # sqrt(n)(mean - 1) for unit exponentials: exact shifted-Gamma CDF
        from scipy.special import gammainc

        from edgeboot.moments import exponential_spec

        n = 50
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, exponential_spec(1.0, 8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        sup = {0: 0.0, 1: 0.0, 2: 0.0}
        import numpy as np

        for x in np.arange(-3.0, 3.0001, 0.05):
            exact = float(gammainc(n, n * (1.0 + x / math.sqrt(n))))
            for order in sup:
                sup[order] = max(sup[order],
                                 abs(cdf_eval(p1, p2, None, n, float(x), order) - exact))
        assert sup[2] < sup[1] < sup[0]
        assert sup[2] < 4e-4 and sup[1] < 3e-3

    def test_exponential_mean_quantiles_vs_gamma_law(self):
        # Cornish-Fisher quantiles against exact Gamma quantiles
        from scipy.special import gammaincinv

        from edgeboot.moments import exponential_spec

        n = 50
        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, exponential_spec(1.0, 8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        p11, p21 = cornish_fisher_polys(p1, p2)
        worst_cf = worst_normal = 0.0
        for alpha in (0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975):
            exact = math.sqrt(n) * (float(gammaincinv(n, alpha)) / n - 1.0)
            cf = quantile_eval(p11, p21, None, n, alpha)
            worst_cf = max(worst_cf, abs(cf - exact))
            worst_normal = max(worst_normal, abs(float(ndtri(alpha)) - exact))
        assert worst_cf < 2e-3
        assert worst_cf < worst_normal / 50

    def test_gaussian_variance_vs_chi_square_law(self):
        # n * s^2 / sigma^2 is exactly chi-square with n-1 degrees of freedom
        from scipy.special import gammainc

        n = 40
        m = build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        sup = {0: 0.0, 1: 0.0, 2: 0.0}
        import numpy as np

        for x in np.arange(-3.0, 3.0001, 0.05):
            exact = float(gammainc((n - 1) / 2.0, (n + math.sqrt(2.0 * n) * x) / 2.0))
            for order in sup:
                sup[order] = max(sup[order],
                                 abs(cdf_eval(p1, p2, None, n, float(x), order) - exact))
        assert sup[2] < sup[1] < sup[0]
        assert sup[2] < 2e-3 and sup[1] < 8e-3


class TestCdfQuantile:
    def test_symmetric_case(self, studentized_gaussian_mean):
        p1, p2, _, _ = studentized_gaussian_mean
        assert abs(cdf_eval(p1, p2, None, 10, 0.0, 2) - 0.5) < 1e-15

    def test_second_order_value(self, studentized_gaussian_mean):
        # p2s(1) = -1 for Gaussian data, so F(1) = Phi(1) - phi(1)/10
        p1, p2, _, _ = studentized_gaussian_mean
        assert abs(cdf_eval(p1, p2, None, 10, 1.0, 2) - 0.8171476736166286) < 1e-12

    def test_order_zero_is_normal_quantile(self, studentized_gaussian_mean):
        p1, p2, _, _ = studentized_gaussian_mean
        assert abs(cdf_eval(p1, p2, None, 10, 1.959964, 0) - 0.975) < 1e-6

    def test_median_quantile(self, studentized_gaussian_mean):
        _, _, p11, p21 = studentized_gaussian_mean
        assert abs(quantile_eval(p11, p21, None, 10, 0.5)) < 1e-15

    def test_upper_quantile(self, studentized_gaussian_mean):
        _, _, p11, p21 = studentized_gaussian_mean
        z = float(ndtri(0.975))
        expected = z + (z**3 / 4 + 3 * z / 4) / 10
        got = quantile_eval(p11, p21, None, 10, 0.975)
        assert abs(got - expected) < 1e-12
        assert abs(got - 2.295186) < 1e-4  # agrees with the coarse published digits

    def test_ml_cornish_fisher(self):
        # w_alpha for the plain ML estimate at lambda=1:
        # z + (4 + 2 z^2)/(6 sqrt(2 n)) + z (10 - 4 z^2)/(36 n)
        m = ml_model(Mode.NONSTUDENTIZED, lam=1.0)
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        p11, p21 = cornish_fisher_polys(p1, p2)
        n = 10
        for alpha in (0.05, 0.5, 0.9, 0.975):
            z = float(ndtri(alpha))
            expected = (
                z
                + (4 + 2 * z**2) / (6 * math.sqrt(2 * n))
                + z * (10 - 4 * z**2) / (36 * n)
            )
            assert abs(quantile_eval(p11, p21, None, n, alpha) - expected) < 1e-8

    def test_raw_values_are_not_clipped(self):
        # skewed small-n expansions leave [0,1]; clipping is the caller's job
        from edgeboot.moments import exponential_spec

        m = build_model(parse("x1"), Mode.NONSTUDENTIZED, exponential_spec(1.0, 8))
        p1, p2 = edgeworth_polys(cumulant_coeffs(m))
        assert cdf_eval(p1, p2, None, 4, -2.0, 2) < 0.0

    def test_bad_arguments(self, studentized_gaussian_mean):
        p1, p2, p11, p21 = studentized_gaussian_mean
        with pytest.raises(ModelError):
            cdf_eval(p1, p2, None, 1, 0.0, 2)
        with pytest.raises(ModelError):
            quantile_eval(p11, p21, None, 10, 1.5)


# ---------------------------------------------------------------------------
# One moment-point path: build_model equals its two-branch reference
# ---------------------------------------------------------------------------

def _same(got, want) -> bool:
    """Exact equality: equal Expr trees, or floats with the same bits."""
    if isinstance(want, Expr):
        return isinstance(got, Expr) and got == want
    return type(got) is float and type(want) is float and got.hex() == want.hex()


_FOLD_SPECS = {
    "symbolic": symbolic_spec,
    "gaussian_1.3_0.7": lambda K: gaussian_spec(1.3, 0.7, K),
    "exponential": lambda K: exponential_spec(1.0, K),
    "empirical": lambda K: empirical_spec([0.31, -1.2, 2.7, 0.05, 1.9, -0.44, 3.3, 0.8], K),
}
_FOLD_STATS = {
    **{name: None for name in PRESETS},
    "kurtosis_b2": "(x4 - 4*x1*x3 + 6*x1^2*x2 - 3*x1^4)/(x2 - x1^2)^2",
    "cv": "sqrt(x2 - x1^2)/x1",
}


def _fold_statistic(name: str):
    """(g, params, kernels), parsed afresh so each build owns its registry."""
    if _FOLD_STATS[name] is None:
        stat = statistic_from_config(load_config(name))
        return stat.g, stat.params, stat.kernels
    reg = KernelRegistry([ML_RADICAND])
    return parse(_FOLD_STATS[name], reg), {}, reg


class TestOneModelPath:
    @pytest.mark.parametrize("spec_name", list(_FOLD_SPECS))
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("stat", list(_FOLD_STATS))
    def test_matches_two_branch_reference(self, stat, mode, spec_name):
        g, params, reg = _fold_statistic(stat)
        spec = _FOLD_SPECS[spec_name](model_shape(g, mode)[2])
        got = build_model(g, mode, spec, params=params, kernels=reg)
        g, params, reg = _fold_statistic(stat)
        want = build_model_two_branch(g, mode, spec, params=params, kernels=reg)
        assert (got.d, got.dims) == (want.d, want.dims)
        assert got.h2_expr == want.h2_expr
        assert got.a_expr == want.a_expr
        assert _same(got.sigma_a, want.sigma_a)
        assert list(got.deriv) == list(want.deriv)
        for t, value in want.deriv.items():
            assert _same(got.deriv[t], value), t

    def test_shape(self):
        g = parse("x2 - x1^2")
        assert model_shape(g, Mode.NONSTUDENTIZED) == (2, 2, 8)
        assert model_shape(g, Mode.STUDENTIZED) == (2, 4, 16)
        assert model_shape(g, Mode.STUDENTIZED, 3) == (3, 6, 24)
        with pytest.raises(ModelError, match="at least x1"):
            model_shape(parse("1"), Mode.NONSTUDENTIZED)
        with pytest.raises(ModelError, match="below arity 2"):
            model_shape(g, Mode.NONSTUDENTIZED, 1)

    def test_zero_variance_at_the_moment_point(self):
        # d(x1^2)/dx1 = 2 x1 vanishes at mean 0, with the scale symbolic
        spec = gaussian_spec(0.0, Sym("sigma"), 8)
        with pytest.raises(ModelError, match="zero asymptotic variance at the moment point"):
            build_model(parse("x1^2"), Mode.NONSTUDENTIZED, spec)
        with pytest.raises(ModelError, match="zero or invalid asymptotic variance 0.0"):
            build_model(parse("x1^2"), Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


# ---------------------------------------------------------------------------
# Closed-form polynomials equal the Poly arithmetic they replaced
# ---------------------------------------------------------------------------

def _preset_polys(preset: str, mode: Mode, moments: str):
    """The ring kind, the model, the closed-form (p1, p2, p11, p21) and the
    same four from the reference arithmetic."""
    model = model_from_config(load_config(preset), mode=mode,
                              moments_override={"distribution": moments})
    k = cumulant_coeffs(model)
    p1, p2 = edgeworth_polys(k)
    r1, r2 = reference_polys.edgeworth_polys(k)
    kind = edgeworth._ring_of((k.k12, k.k22, k.k31, k.k41))[0].kind
    return (kind, model, (p1, p2, *cornish_fisher_polys(p1, p2)),
            (r1, r2, *reference_polys.cornish_fisher_polys(r1, r2)))


def _is_zero(c) -> bool:
    """A zero coefficient; the float reference's zeros may carry a minus sign
    (-(0.0) from its negation), which neither printing nor ``to_expr`` keeps."""
    return c == ZERO if isinstance(c, Expr) else c == 0.0


def _moment_bindings(rng: random.Random, K: int, params: dict[str, float]) -> Bindings:
    """Standardized moments mu3..muK of a random six-point distribution (a
    valid moment sequence, so every variance at the moment point is
    positive), a random mu and sigma, and ``params``."""
    points = [rng.uniform(-2.0, 3.0) for _ in range(6)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(6)]
    total = sum(weights)
    mean = sum(w * p for w, p in zip(weights, points)) / total
    sd = math.sqrt(sum(w * (p - mean) ** 2 for w, p in zip(weights, points)) / total)
    z = [(p - mean) / sd for p in points]
    m = {k: sum(w * v ** k for w, v in zip(weights, z)) / total for k in range(3, K + 1)}
    syms = {"mu": rng.uniform(-1.0, 1.0), "sigma": rng.uniform(0.5, 2.0),
            "Gamma1": m[3], "kappa1": m[4] - 3.0, **params}
    syms.update({f"mu{k}": m[k] for k in range(5, K + 1)})
    return Bindings(syms)


class TestClosedFormPolys:
    @pytest.mark.parametrize("moments", ["symbolic", "gaussian", "exponential"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_reference_arithmetic(self, preset, mode, moments):
        kind, _, got, want = _preset_polys(preset, mode, moments)
        assert kind == ("expr" if moments == "symbolic" and preset.startswith("ml_")
                        else "nf" if moments == "symbolic" else "float")
        for new, ref in zip(got[:3], want[:3]):  # p1, p2, p11
            assert len(new.coeffs) == len(ref.coeffs)
            for c, r in zip(new.coeffs, ref.coeffs):
                assert _same(c, r) or (_is_zero(c) and _is_zero(r)), (c, r)
        p21, ref21 = got[3], want[3]
        assert p21.degree == 3 and ref21.degree == 5
        if kind == "expr":  # new text: compared numerically below
            return
        for c, r in zip(p21.coeffs, ref21.coeffs):
            assert _same(c, r) or (_is_zero(c) and _is_zero(r)), (c, r)
        assert _is_zero(ref21.coeffs[4])
        if kind == "nf":
            assert ref21.coeffs[5] == ZERO
        else:  # rounding noise of -a2^2/2 - b5
            assert abs(ref21.coeffs[5]) <= 1e-14 * max(1.0, got[0].coeffs[2] ** 2)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("preset", ["ml_symmetric", "ml_general"])
    def test_expr_ring_p21_agrees_numerically(self, preset, mode):
        kind, model, got, want = _preset_polys(preset, mode, "symbolic")
        assert kind == "expr"
        p1, p21, ref21 = got[0], got[3], want[3]
        params = {"lambda": 1.3} if preset == "ml_symmetric" else {"L": -0.7, "U": 1.6}
        rng = random.Random(15)
        for _ in range(20):
            b = _moment_bindings(rng, model.spec.K,
                                 {k: v * rng.uniform(0.8, 1.25) for k, v in params.items()})
            a2 = eval_numeric(p1.coeffs[2], b)
            for k in (1, 3):
                new, ref = eval_numeric(p21.coeffs[k], b), eval_numeric(ref21.coeffs[k], b)
                assert math.isclose(new, ref, rel_tol=1e-12, abs_tol=1e-13), (k, new, ref)
            assert _is_zero(p21.coeffs[0]) and _is_zero(p21.coeffs[2])
            assert abs(eval_numeric(ref21.coeffs[5], b)) <= 1e-13 * max(1.0, a2 * a2)

    @pytest.mark.parametrize("moments", ["symbolic", "gaussian"])
    @pytest.mark.parametrize("preset", ["mean", "variance", "ml_symmetric"])
    def test_scale_adjust_matches_reference(self, preset, moments):
        _, _, got, want = _preset_polys(preset, Mode.STUDENTIZED, moments)
        new = scale_adjust(got[0], got[1], Fraction(3, 4))
        ref = reference_polys.scale_adjust(want[0], want[1], Fraction(3, 4))
        assert new[0] is got[0]
        for c, r in zip(new[1].coeffs, ref[1].coeffs):
            assert _same(c, r) or (_is_zero(c) and _is_zero(r)), (c, r)
