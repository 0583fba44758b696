"""The polynomial arithmetic ``edgeworth`` used before its Edgeworth and
Cornish-Fisher polynomials were computed in closed form, kept verbatim as a
test reference: ``Poly`` with float/Expr operators, and each finished
coefficient brought back to a normal form by ``_canonical_expr``.

Test-only: the tests compare the closed forms against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from edgeboot.algebra import Bindings, TranscendentalResidueError, _to_nf, eval_numeric
from edgeboot.edgeworth import CumulantCoeffs, Value, as_expr
from edgeboot.expr import ZERO, Expr, Sym, add as expr_add, const, mul, pow_


def _canonical_expr(e: Expr) -> Expr:
    """``e``'s canonical normal form, or ``e`` itself when it is transcendental."""
    try:
        return _to_nf(e).canonical().to_expr()
    except TranscendentalResidueError:
        return e


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial with Expr or float coefficients, degree <= 5."""

    coeffs: tuple[Value, ...]  # coeffs[k] multiplies x^k

    @staticmethod
    def from_dict(d: Mapping[int, Value]) -> "Poly":
        deg = max(d, default=0)
        zero: Value = 0.0 if all(isinstance(v, float) for v in d.values()) else ZERO
        return Poly(tuple(d.get(k, zero) for k in range(deg + 1)))

    def coeff(self, k: int) -> Value:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return 0.0 if self._numeric else ZERO

    @property
    def _numeric(self) -> bool:
        return all(isinstance(c, float) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        n = len(self.coeffs) + len(other.coeffs) - 1
        out: list[Value] = [None] * n  # type: ignore[list-item]
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                term = ci * cj
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        zero: Value = 0.0 if self._numeric and other._numeric else ZERO
        return Poly(tuple(zero if c is None else c for c in out))

    def scale(self, c: Value) -> "Poly":
        return Poly(tuple(coeff * c for coeff in self.coeffs))

    def dx(self) -> "Poly":
        if len(self.coeffs) <= 1:
            return Poly((0.0 if self._numeric else ZERO,))
        return Poly(tuple(Fraction(k) * self.coeffs[k] for k in range(1, len(self.coeffs))))

    def times_x(self) -> "Poly":
        zero: Value = 0.0 if self._numeric else ZERO
        return Poly((zero, *self.coeffs))

    def eval(self, x: float, bindings: Bindings | None = None) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            cv = c if isinstance(c, float) else float(
                eval_numeric(c, bindings or Bindings())
            )
            acc = acc * x + cv
        return acc

    def to_expr(self, variable: Expr | None = None) -> Expr:
        x = variable if variable is not None else Sym("x")
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            ce = as_expr(self.coeffs[k])
            if ce == ZERO:
                continue
            terms.append(mul(ce, pow_(x, Fraction(k))))
        return expr_add(*terms) if terms else ZERO

    def simplified(self) -> "Poly":
        """Canonicalize symbolic coefficients through normal forms."""
        return Poly(tuple(_canonical_expr(c) if isinstance(c, Expr) else c
                          for c in self.coeffs))


def edgeworth_polys(k: CumulantCoeffs) -> tuple[Poly, Poly]:
    """p1(x) = -(k12 + k31 (x^2-1)/6);
    p2(x) = -x ((k22+k12^2)/2 + (k41+4 k12 k31)(x^2-3)/24
            + k31^2 (x^4-10x^2+15)/72)."""
    k12, k22, k31, k41 = k.k12, k.k22, k.k31, k.k41
    c_a = Fraction(1, 2) * (k22 + k12 * k12)
    c_b = Fraction(1, 24) * (k41 + Fraction(4) * (k12 * k31))
    c_c = Fraction(1, 72) * (k31 * k31)
    p1 = Poly.from_dict({
        0: -(k12 - Fraction(1, 6) * k31),
        2: -(Fraction(1, 6) * k31),
    })
    p2 = Poly.from_dict({
        1: -(c_a - Fraction(3) * c_b + Fraction(15) * c_c),
        3: -(c_b - Fraction(10) * c_c),
        5: -c_c,
    })
    return p1.simplified(), p2.simplified()


def cornish_fisher_polys(p1: Poly, p2: Poly) -> tuple[Poly, Poly]:
    """p11 = -p1;  p21 = p1 p1' - x p1^2 / 2 - p2 (exact polynomial arithmetic)."""
    p11 = -p1
    p21 = (p1 * p1.dx()) - (p1 * p1).times_x().scale(Fraction(1, 2)) - p2
    return p11.simplified(), p21.simplified()


def scale_adjust(p1: Poly, p2: Poly, gamma: Fraction) -> tuple[Poly, Poly]:
    """Expansion of the statistic rescaled by (1 - gamma/n): p2 gains gamma*x."""
    gamma = Fraction(gamma)
    numeric = p1._numeric and p2._numeric
    bump = Poly.from_dict({1: float(gamma) if numeric else const(gamma)})
    return p1, (p2 + bump).simplified()

