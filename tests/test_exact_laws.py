"""Second-order expansions against exact finite-n distributions.

The error of a correct second-order Edgeworth expansion falls like n^(-3/2)
(n^(-2) for the studentized mean of symmetric data), while a wrong p2 or p21 coefficient
leaves an n^(-1) term.  Three statistics have exact laws in scipy, so the
sup error over the grid -3:3:0.01 at n = 10, 20, 40, ..., 320 gives a log-log
slope with no Monte Carlo noise:

- the mean over exponential moments: n * mean is Gamma(n);
- the plain variance over Gaussian moments: n * variance is chi-square with
  n - 1 degrees of freedom;
- the studentized mean over Gaussian moments: Student t with n - 1 degrees
  of freedom, at x * sqrt((n-1)/n) for the biased variance the statistic
  uses, or at x itself once :func:`scale_adjust` has rescaled it by
  1 - 1/(2n).

Measured slopes: edge1 -1.05, -1.13, -1.02 and -1.02; edge2 -1.59, -1.63,
-2.00 and -2.01; Cornish-Fisher quantiles of the mean -1.54.  Each bound
below keeps a margin of at least 0.14 from them.  A 1/24 error in p2's x^3
coefficient moves the edge2 slopes to -1.19 to -1.31.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammainc, gammaincinv, stdtr

from edgeboot.edgeworth import (
    Mode,
    build_model,
    cdf_eval,
    cornish_fisher_polys,
    cumulant_coeffs,
    edgeworth_polys,
    quantile_eval,
    scale_adjust,
)
from edgeboot.expr import parse
from edgeboot.moments import exponential_spec, gaussian_spec

GRID = np.arange(-300, 301) / 100
NS = (10, 20, 40, 80, 160, 320)
ALPHAS = (0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99)


def _polys(g, mode, spec):
    return edgeworth_polys(cumulant_coeffs(build_model(parse(g), mode, spec)))


def _gamma_cdf(x, n):
    return gammainc(n, np.maximum(n + x * math.sqrt(n), 0.0))


def _chi2_cdf(x, n):
    # sqrt(n) (v - 1) / sqrt(2) <= x  iff  n v <= n (1 + x sqrt(2/n))
    return gammainc((n - 1) / 2, np.maximum(n * (1 + x * math.sqrt(2 / n)), 0.0) / 2)


def _t_unadjusted_cdf(x, n):
    return stdtr(n - 1, x * math.sqrt((n - 1) / n))


def _t_cdf(x, n):
    return stdtr(n - 1, x)


def _mean_exponential():
    return _polys("x1", Mode.NONSTUDENTIZED, exponential_spec(1.0, 8))


def _variance_gaussian():
    return _polys("x2 - x1^2", Mode.NONSTUDENTIZED, gaussian_spec(0.0, 1.0, 8))


def _t_unadjusted():
    return _polys("x1", Mode.STUDENTIZED, gaussian_spec(0.0, 1.0, 8))


def _t_adjusted():
    return scale_adjust(*_t_unadjusted(), Fraction(1, 2))


def _slope(errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    return float(np.polyfit(np.log(NS), np.log(errors), 1)[0])


# polynomials, exact CDF, highest edge2 slope
CASES = [
    (_mean_exponential, _gamma_cdf, -1.45),
    (_variance_gaussian, _chi2_cdf, -1.45),
    (_t_unadjusted, _t_unadjusted_cdf, -1.85),
    (_t_adjusted, _t_cdf, -1.85),
]


@pytest.mark.parametrize("polys, exact, edge2_max", CASES,
                         ids=["mean_gamma", "variance_chi2", "t_unadjusted", "t_adjusted"])
def test_edgeworth_error_order(polys, exact, edge2_max):
    p1, p2 = polys()
    sups = {1: [], 2: []}
    for n in NS:
        want = exact(GRID, n)
        for order in (1, 2):
            got = np.array([cdf_eval(p1, p2, n, float(x), order) for x in GRID])
            sups[order].append(float(np.max(np.abs(got - want))))
    edge1, edge2 = _slope(sups[1]), _slope(sups[2])
    # edge1 is first order only (slopes -1.02 to -1.13): the n range tells
    # the two orders apart
    assert -1.3 < edge1 < -0.85, sups[1]
    assert edge2 < edge2_max, (edge2, sups[2])
    assert all(b < a for a, b in zip(sups[2], sups[2][1:])), sups[2]


def test_cornish_fisher_error_order():
    p11, p21 = cornish_fisher_polys(*_mean_exponential())
    errors = []
    for n in NS:
        errors.append(max(
            abs(quantile_eval(p11, p21, n, a) - (gammaincinv(n, a) - n) / math.sqrt(n))
            for a in ALPHAS))
    assert _slope(errors) < -1.4, errors
