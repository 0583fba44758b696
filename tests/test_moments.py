import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from edgeboot.algebra import normalize, substitute
from edgeboot.expr import Expr, Sym, ZERO, add, const, mul, parse, pow_
from edgeboot.moments import (
    DegenerateSampleError,
    MomentError,
    MomentOrderError,
    MomentSpec,
    cross_moment,
    empirical_spec,
    exponential_spec,
    gaussian_spec,
    raw_moment,
    spec_from_config,
    symbolic_spec,
    _read_column,
)


class TestRawMoments:
    def test_first_two(self):
        s = symbolic_spec(8)
        assert normalize(raw_moment(s, 1)) == normalize(parse("mu"))
        assert normalize(raw_moment(s, 2)) == normalize(parse("mu^2 + sigma^2"))

    def test_gaussian_fourth_centered(self):
        g = gaussian_spec(0.0, 1.7, K=8)
        assert abs(raw_moment(g, 4) - 3 * 1.7**4) < 1e-12

    def test_order_cap(self):
        with pytest.raises(MomentOrderError):
            raw_moment(symbolic_spec(4), 5)

    @pytest.mark.parametrize("spec, order", [
        (gaussian_spec(1e200, 1.0, K=4), 2),  # mu ** 2 raises OverflowError
        (MomentSpec(0.0, 1e10, (1.0, 0.0, 1.0, 0.0, 1e300), 4), 4),  # 1e300 * 1e40 is inf
    ])
    def test_overflow_is_a_moment_error(self, spec, order):
        with pytest.raises(MomentError, match=f"^raw moment of order {order} overflows a double$"):
            raw_moment(spec, order)


class TestCrossMoments:
    def test_variance_pair(self):
        s = symbolic_spec(8)
        assert normalize(cross_moment(s, (1, 1))) == normalize(parse("sigma^2"))

    def test_mixed_pair(self):
        # brute-force expansion: E[(W-mu)((W-mu)^2 + 2 mu (W-mu) - sigma^2 ...)]
        s = symbolic_spec(8)
        got = cross_moment(s, (1, 2))
        assert normalize(got) == normalize(parse("Gamma1*sigma^3 + 2*mu*sigma^2"))

    def test_second_power_pair_centered(self):
        s = symbolic_spec(8)
        got = substitute(cross_moment(s, (2, 2)), {Sym("mu"): ZERO})
        assert normalize(got) == normalize(parse("(kappa1 + 2)*sigma^4"))

    def test_permutation_invariance(self):
        g = gaussian_spec(0.4, 1.2, K=12)
        assert cross_moment(g, (1, 3, 2)) == cross_moment(g, (3, 2, 1))
        assert cross_moment(g, (2, 1)) == cross_moment(g, (1, 2))

    def test_gaussian_odd_total_vanishes_at_zero_mean(self):
        g = gaussian_spec(0.0, 1.0, K=16)
        for t in [(1, 2), (1, 1, 1), (2, 2, 1), (1, 1, 1, 2)]:
            assert abs(cross_moment(g, t)) < 1e-12

    def test_order_overflow(self):
        with pytest.raises(MomentOrderError):
            cross_moment(gaussian_spec(0.0, 1.0, K=8), (4, 4, 4))

    def test_index_count(self):
        with pytest.raises(Exception):
            cross_moment(gaussian_spec(0.0, 1.0, K=8), (1,))


def _gauss_hermite_cross(mu, sigma, indices, nodes=64):
    """Quadrature oracle for E prod_k (W^{i_k} - E W^{i_k})."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = mu + sigma * math.sqrt(2.0) * x
    weights = w / math.sqrt(math.pi)
    raw = {i: float(np.sum(weights * pts**i)) for i in set(indices)}
    prod = np.ones_like(pts)
    for i in indices:
        prod = prod * (pts**i - raw[i])
    return float(np.sum(weights * prod))


class TestQuadratureAgreement:
    def test_low_order_cross_moments_match_gauss_hermite(self):
        g = gaussian_spec(0.7, 1.3, K=10)
        tuples = [
            t
            for j in (2, 3, 4)
            for t in combinations_with_replacement(range(1, 5), j)
            if sum(t) <= 10
        ]
        for t in tuples:
            mine = float(cross_moment(g, t))
            oracle = _gauss_hermite_cross(0.7, 1.3, t)
            assert abs(mine - oracle) <= 1e-9 * max(1.0, abs(oracle)), t

    def test_pair_matrix_positive_semidefinite(self):
        # [mu_ij] is the covariance matrix of (W, W^2, ..., W^8)
        spec = gaussian_spec(0.7, 1.3, K=16)
        gram = np.array([[float(cross_moment(spec, (i, j))) for j in range(1, 9)]
                         for i in range(1, 9)])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-9


class TestGaussianSpec:
    def test_reference_values(self):
        g = gaussian_spec(K=8)
        assert g.std_moments[5] == 0 and g.std_moments[6] == 15
        assert g.std_moments[7] == 0 and g.std_moments[8] == 105

    def test_excess_kurtosis_zero(self):
        assert gaussian_spec(K=4).std_moments[4] - 3 == 0

    def test_double_factorial_sixteen(self):
        assert gaussian_spec(K=16).std_moments[16] == 2027025

    def test_cap(self):
        with pytest.raises(Exception):
            gaussian_spec(K=66)


class TestExponentialSpec:
    def test_derangement_moments(self):
        e = exponential_spec(K=8)
        assert [e.std_moments[k] for k in range(9)] == [1, 0, 1, 2, 9, 44, 265, 1854, 14833]

    def test_skewness_and_kurtosis(self):
        e = exponential_spec(K=4)
        assert e.std_moments[3] == 2.0  # Gamma1
        assert e.std_moments[4] - 3.0 == 6.0  # kappa1


class TestEmpiricalSpec:
    def test_small_sample(self):
        s = empirical_spec([1.0, 2.0, 3.0], K=4)
        assert abs(s.mean - 2.0) < 1e-15
        assert abs(s.scale**2 - 2.0 / 3.0) < 1e-15
        assert abs(s.std_moments[3]) < 1e-15

    def test_skewed_sample(self):
        s = empirical_spec([0.0, 0.0, 0.0, 1.0], K=4)
        assert abs(s.mean - 0.25) < 1e-15
        assert abs(s.scale**2 - 3.0 / 16.0) < 1e-15
        assert abs(s.std_moments[3] - 2.0 / math.sqrt(3.0)) < 1e-14

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            empirical_spec([4.0, 4.0, 4.0], K=4)

    def test_moment_caches_are_bounded(self):
        # each bootstrap interval expands one fresh empirical spec, and the
        # caches are keyed by spec: a loop of intervals must not fill them without end
        from edgeboot import moments

        for cache in (raw_moment, cross_moment, moments._ring_values):
            assert cache.cache_info().maxsize is not None


class TestConfig:
    def test_gaussian_section(self):
        s = spec_from_config({"distribution": "gaussian", "mu": "1/2", "sigma": "2"}, 8)
        assert s.mean == 0.5 and s.scale == 2.0 and s.K == 8

    def test_symbolic_section(self):
        s = spec_from_config({"distribution": "symbolic"}, 8)
        assert s.is_symbolic

    def test_custom_section(self):
        s = spec_from_config(
            {"distribution": "custom", "gamma1": "2", "kappa1": "6",
             "moments": "[44, 265, 1854, 14833]"},
            8,
        )
        e = exponential_spec(K=8)
        assert s.std_moments == e.std_moments

    @pytest.mark.parametrize("sigma", ["-2", "0"])
    def test_custom_sigma_must_be_positive(self, sigma):
        # it once gave the results of |sigma|
        with pytest.raises(MomentError, match="custom sigma must be positive"):
            spec_from_config({"distribution": "custom", "sigma": sigma, "moments": "10, 20, 40, 80"},
                             8)

    def test_empirical_section(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("value\n1\n2\n3\n")
        s = spec_from_config({"distribution": "empirical", "data_file": str(f)}, 4)
        assert abs(s.mean - 2.0) < 1e-15

    def test_empirical_section_needs_values(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("value\n")
        with pytest.raises(MomentError, match="no values"):
            spec_from_config({"distribution": "empirical", "data_file": str(f)}, 4)

    def test_unknown_distribution(self):
        with pytest.raises(Exception, match="unknown distribution"):
            spec_from_config({"distribution": "cauchy"}, 4)


class TestReadColumn:
    def _read(self, tmp_path, text):
        f = tmp_path / "data.csv"
        f.write_text(text, encoding="utf-8")
        return _read_column(str(f))

    def test_header_blank_lines_and_extra_columns(self, tmp_path):
        values = self._read(tmp_path, "value,weight\n1.5,2\n\n-2e-1\n3\n")
        assert values == [1.5, -0.2, 3.0]

    @pytest.mark.parametrize("text", ["4\n5\n", "\ufeff4\n5\n"])
    def test_no_header(self, tmp_path, text):
        values = self._read(tmp_path, text)
        assert values == [4.0, 5.0]

    @pytest.mark.parametrize("text, line, what", [
        ("value\n1\nabc\n2\n", 3, "not a number: 'abc'"),
        ("1\nvalue\n2\n", 2, "not a number: 'value'"),
        ("value\n1\n,2\n", 3, "not a number: ''"),
        ("value\n1\nnan\n", 3, "not a finite number: 'nan'"),
        ("value\ninf\n1\n", 2, "not a finite number: 'inf'"),
        ("-inf\n1\n", 1, "not a finite number: '-inf'"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, text, line, what):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(MomentError) as exc:
            _read_column(str(f))
        assert str(exc.value) == f"{f}:{line}: {what}"

    @pytest.mark.parametrize("text", ["", "value\n", "\n\n"])
    def test_no_values(self, tmp_path, text):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(MomentError, match=f"^{f}: no values$"):
            _read_column(str(f))


# The two-branch raw_moment/cross_moment (separate Expr and float code) that
# the one-formula versions replaced, kept verbatim as their reference.

@lru_cache(maxsize=None)
def _raw_moment_two_branch(spec: MomentSpec, i: int):
    """E[W^i] = sum_j C(i,j) m_j sigma^j mu^(i-j)."""
    if i < 0:
        raise MomentError("raw moment order must be >= 0")
    if i > spec.K:
        raise MomentOrderError(f"raw moment order {i} exceeds K={spec.K}")
    if spec.is_symbolic:
        terms = []
        for j in range(i + 1):
            mj = spec.m(j)
            mj_expr = mj if isinstance(mj, Expr) else const(Fraction(mj))
            if mj_expr == ZERO:
                continue
            terms.append(
                mul(
                    const(math.comb(i, j)),
                    mj_expr,
                    pow_(_as_expr(spec.scale), Fraction(j)),
                    pow_(_as_expr(spec.mean), Fraction(i - j)),
                )
            )
        return add(*terms) if terms else ZERO
    total = 0.0
    mu = float(spec.mean)  # type: ignore[arg-type]
    sigma = float(spec.scale)  # type: ignore[arg-type]
    for j in range(i + 1):
        total += math.comb(i, j) * float(spec.m(j)) * sigma**j * mu ** (i - j)
    return total


def _as_expr(v) -> Expr:
    return v if isinstance(v, Expr) else const(Fraction(v))


@lru_cache(maxsize=None)
def _cross_moment_two_branch(spec: MomentSpec, indices: tuple[int, ...]):
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
        return _cross_moment_two_branch(spec, key)
    total_order = sum(key)
    if total_order > spec.K:
        raise MomentOrderError(
            f"cross moment of total order {total_order} exceeds K={spec.K}"
        )
    j = len(key)
    positions = tuple(range(j))
    if spec.is_symbolic:
        acc_terms = []
        for r in range(j + 1):
            for subset in combinations(positions, r):
                inside = sum(key[p] for p in subset)
                sign = (-1) ** (j - r)
                factors = [const(sign), _as_expr(_raw_moment_two_branch(spec, inside))]
                for p in positions:
                    if p not in subset:
                        factors.append(_as_expr(_raw_moment_two_branch(spec, key[p])))
                acc_terms.append(mul(*factors))
        return add(*acc_terms)
    acc = 0.0
    for r in range(j + 1):
        for subset in combinations(positions, r):
            inside = sum(key[p] for p in subset)
            term = float((-1) ** (j - r)) * float(_raw_moment_two_branch(spec, inside))
            for p in positions:
                if p not in subset:
                    term *= float(_raw_moment_two_branch(spec, key[p]))
            acc += term
    return acc


def _same(got, want) -> bool:
    """Exact equality: equal Expr trees, or floats with the same bits."""
    if isinstance(want, Expr):
        return isinstance(got, Expr) and got == want
    return type(got) is float and type(want) is float and got.hex() == want.hex()


_K = 12
_FOLD_SPECS = {
    "symbolic": symbolic_spec(_K),
    "gaussian_sym_mu": gaussian_spec(Sym("mu"), 1.0, _K),
    "gaussian_sym_mu_sigma": gaussian_spec(Sym("mu"), Sym("sigma"), _K),
    "gaussian_0.3_2.0": gaussian_spec(0.3, 2.0, _K),
    "gaussian_-1.7_0.4": gaussian_spec(-1.7, 0.4, _K),
    "exponential_2.0": exponential_spec(2.0, _K),
    "empirical": empirical_spec([0.31, -1.2, 2.7, 0.05, 1.9, -0.44, 3.3, 0.8, -2.1], _K),
}


class TestOneFormula:
    """raw_moment and cross_moment run one formula over Expr or float values;
    every order and index tuple up to K equals the two-branch reference."""

    @pytest.mark.parametrize("name", list(_FOLD_SPECS))
    def test_raw_moments(self, name):
        spec = _FOLD_SPECS[name]
        for i in range(spec.K + 1):
            got, want = raw_moment(spec, i), _raw_moment_two_branch(spec, i)
            assert _same(got, want), (name, i)

    @pytest.mark.parametrize("name", list(_FOLD_SPECS))
    def test_cross_moments(self, name):
        spec = _FOLD_SPECS[name]
        count = 0
        for j in (2, 3, 4):
            for t in combinations_with_replacement(range(1, spec.K + 1), j):
                if sum(t) <= spec.K:
                    got, want = cross_moment(spec, t), _cross_moment_two_branch(spec, t)
                    assert _same(got, want), (name, t)
                    count += 1
        assert count == 142  # index tuples of 2 to 4 entries with sum <= 12
