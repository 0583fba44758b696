"""Literal nested-loop oracle for :func:`edgeboot.edgeworth.cumulant_coeffs`.

Test-only: the tests compare the symmetry-reduced contraction against it.
"""

from __future__ import annotations

from fractions import Fraction

from edgeboot.edgeworth import CumulantCoeffs, StatModel, _model_ring, _MomentView


def cumulant_coeffs_naive(model: StatModel) -> CumulantCoeffs:
    """Literal nested-loop reference evaluator of the coefficient formulas.

    Kept as an independent oracle for the symmetry-reduced implementation;
    intended for numeric specs (full six-deep loops).
    """
    ring, a = _model_ring(model)
    M = _MomentView(model.spec, ring)
    D = model.dims
    rng1 = range(1, D + 1)

    def a_(*idx):
        return a[tuple(sorted(idx))]

    k12 = Fraction(1, 2) * sum(
        (a_(i, j) * M(i, j) for i in rng1 for j in rng1), start=ring.zero
    )
    k22 = (
        sum((a_(i) * a_(j, k) * M(i, j, k) for i in rng1 for j in rng1 for k in rng1),
            start=ring.zero)
        + Fraction(1, 2) * sum(
            (a_(i, j) * a_(k, l) * M(i, k) * M(j, l)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1),
            start=ring.zero)
        + sum(
            (a_(i) * a_(j, k, l) * M(i, j) * M(k, l)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1),
            start=ring.zero)
    )
    k31 = (
        sum((a_(i) * a_(j) * a_(k) * M(i, j, k)
             for i in rng1 for j in rng1 for k in rng1), start=ring.zero)
        + 3 * sum(
            (a_(i) * a_(j) * a_(k, l) * M(i, k) * M(j, l)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1),
            start=ring.zero)
    )
    k41 = (
        sum((a_(i) * a_(j) * a_(k) * a_(l) * (M(i, j, k, l) - 3 * (M(i, j) * M(k, l)))
             for i in rng1 for j in rng1 for k in rng1 for l in rng1),
            start=ring.zero)
        + 12 * sum(
            (a_(i) * a_(j) * a_(k) * a_(l, m) * M(i, l) * M(j, k, m)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1 for m in rng1),
            start=ring.zero)
        + 12 * sum(
            (a_(i) * a_(j) * a_(k, l) * a_(m, o) * M(i, k) * M(j, m) * M(l, o)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1
             for m in rng1 for o in rng1),
            start=ring.zero)
        + 4 * sum(
            (a_(i) * a_(j) * a_(k) * a_(l, m, o) * M(i, l) * M(j, m) * M(k, o)
             for i in rng1 for j in rng1 for k in rng1 for l in rng1
             for m in rng1 for o in rng1),
            start=ring.zero)
    )
    return CumulantCoeffs(
        k12=ring.finish(k12),
        k22=ring.finish(k22),
        k31=ring.finish(k31),
        k41=ring.finish(k41),
    )
