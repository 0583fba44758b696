"""Checks that do not use edgeboot's own algebra, parser or evaluator.

* ``to_sympy`` / ``sympy_agree``: printed results are read by sympy and
  compared with closed forms at high precision.
* ``eval_text``: a separate evaluator for the printed dialect (operator
  precedence parsing over Python ``math``), used on texts too large for
  sympy.
* ``dkw_bound``, ``bca_reference``: Monte Carlo and bootstrap references
  computed with numpy and scipy.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import sympy
from scipy import stats
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

# ---------------------------------------------------------------------------
# sympy
# ---------------------------------------------------------------------------

SYM = {name: sympy.Symbol(name) for name in
       ["x", "mu", "sigma", "Gamma1", "kappa1"] + [f"mu{k}" for k in range(5, 33)]}
_TRANSFORMS = standard_transformations + (convert_xor,)


def to_sympy(text: str):
    return parse_expr(text, local_dict=dict(SYM), transformations=_TRANSFORMS)


def sympy_agree(got, want, points, digits: int = 50) -> bool:
    """``got == want`` at every point, to ``digits`` significant digits."""
    diff = got - want
    for pt in points:
        d = abs(sympy.N(diff.subs(pt), digits))
        scale = 1 + abs(sympy.N(want.subs(pt), digits))
        if not d <= scale * sympy.Float(10) ** (10 - digits):
            return False
    return True


def edgeworth_from_k(k12, k22, k31, k41):
    """Second-order Edgeworth and Cornish-Fisher polynomials (Hall 1992,
    sec. 2.3-2.5) from the cumulant coefficients."""
    x = SYM["x"]
    k12, k22, k31, k41 = (sympy.sympify(k) for k in (k12, k22, k31, k41))
    p1 = -(k12 + k31 * (x**2 - 1) / 6)
    p2 = -x * ((k22 + k12**2) / 2 + (k41 + 4 * k12 * k31) * (x**2 - 3) / 24
               + k31**2 * (x**4 - 10 * x**2 + 15) / 72)
    p11 = -p1
    p21 = p1 * sympy.diff(p1, x) - x * p1**2 / 2 - p2
    return {"p1": p1, "p2": p2, "p11": p11, "p21": p21}


def derangements(k: int) -> int:
    out = 1
    for i in range(1, k + 1):
        out = i * out + (-1) ** i
    return out


def gaussian_moments(K: int) -> dict:
    """Standardized central moments of a normal law as symbol values."""
    vals = {"Gamma1": 0, "kappa1": 0}
    for k in range(5, K + 1):
        vals[f"mu{k}"] = 0 if k % 2 else math.prod(range(k - 1, 0, -2))
    return vals


def exponential_moments(K: int) -> dict:
    """Unit exponential: E(W-1)^k is the k-th derangement number."""
    vals = {"mu": 1, "sigma": 1, "Gamma1": 2, "kappa1": 6}
    for k in range(5, K + 1):
        vals[f"mu{k}"] = derangements(k)
    return vals


# ---------------------------------------------------------------------------
# Text evaluator for the printed dialect
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|(.))")
_BINARY = {"+": (1, False), "-": (1, False), "*": (2, False), "/": (2, False),
           "^": (4, True), "neg": (3, True)}
_SQRT_2PI = math.sqrt(2 * math.pi)
_FUNCS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "Phi": lambda u: 0.5 * math.erfc(-u / math.sqrt(2)),
    "phi": lambda u: math.exp(-0.5 * u * u) / _SQRT_2PI,
}


def _apply(op, out):
    if op == "neg":
        out.append(-out.pop())
        return
    b = out.pop()
    a = out.pop()
    if op == "+":
        out.append(a + b)
    elif op == "-":
        out.append(a - b)
    elif op == "*":
        out.append(a * b)
    elif op == "/":
        out.append(a / b)
    else:
        out.append(a ** b)


def eval_text(text: str, env: dict) -> float:
    """Evaluate ``text`` (``+ - * / ^``, calls, numbers, names) in floats.

    Iterative operator-precedence parsing, so nesting depth is unbounded."""
    out: list[float] = []
    ops: list = []
    expect_operand = True
    for num, name, ch in _TOKEN.findall(text):
        if num:
            out.append(float(num))
            expect_operand = False
        elif name:
            if name in _FUNCS:
                ops.append(("call", _FUNCS[name]))
            else:
                out.append(float(env[name]))
                expect_operand = False
        elif ch == "(":
            ops.append("(")
            expect_operand = True
        elif ch == ")":
            while ops[-1] != "(":
                _apply(ops.pop(), out)
            ops.pop()
            if ops and isinstance(ops[-1], tuple):
                out.append(ops.pop()[1](out.pop()))
            expect_operand = False
        elif ch in "+-*/^":
            op = "neg" if (expect_operand and ch == "-") else ch
            if expect_operand and ch == "+":
                continue
            prec, right = _BINARY[op]
            while ops and ops[-1] != "(" and not isinstance(ops[-1], tuple):
                top_prec = _BINARY[ops[-1]][0]
                if top_prec > prec or (top_prec == prec and not right):
                    _apply(ops.pop(), out)
                else:
                    break
            ops.append(op)
            expect_operand = True
        elif ch.strip():
            raise ValueError(f"unexpected character {ch!r}")
    while ops:
        _apply(ops.pop(), out)
    if len(out) != 1:
        raise ValueError("malformed expression")
    return out[0]


def close(a: float, b: float, rel: float = 1e-7, abs_: float = 1e-9) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Monte Carlo and bootstrap references
# ---------------------------------------------------------------------------

def dkw_bound(draws: int, delta: float = 1e-6) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: sup|F_N - F| exceeds this with prob <= delta."""
    return math.sqrt(math.log(2 / delta) / (2 * draws))


def read_mc_csv(path) -> tuple[np.ndarray, dict]:
    rows, summary = [], {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                summary[key.strip()] = float(value)
            else:
                rows.append([float(v) for v in line.split(",")])
    table = np.array(rows)
    return {name: table[:, i] for i, name in enumerate(header)}, summary


def studentized_mean_cdf(x, n: int):
    """Exact CDF of sqrt(n) (mean - mu) / s_n under normality, s_n with
    divisor n: a t_{n-1} variable scaled by sqrt(n/(n-1))."""
    return stats.t.cdf(np.asarray(x) * math.sqrt((n - 1) / n), n - 1)


def normalized_variance_cdf(x, n: int):
    """Exact CDF of sqrt(n) (s_n^2 - 1) / sqrt(2) for N(0,1) data, with
    n s_n^2 ~ chi^2_{n-1}."""
    return stats.chi2.cdf(n + np.asarray(x) * math.sqrt(2 * n), n - 1)


def power_means(samples: np.ndarray, d: int) -> list[np.ndarray]:
    out, wp = [], np.ones_like(samples)
    for _ in range(d):
        wp = wp * samples
        out.append(wp.mean(axis=-1))
    return out


def variance_stat(samples):
    m1, m2 = power_means(samples, 2)
    return m2 - m1 * m1


def variance_grad(m1, m2):
    return np.array([-2.0 * m1, 1.0])


def ml_symmetric_stat(samples, lam: float = 1.0):
    m1, m2 = power_means(samples, 2)
    s = np.sqrt(m2 - m1 * m1)
    return stats.norm.cdf((lam - m1) / s) - stats.norm.cdf((-lam - m1) / s)


def ml_symmetric_grad(m1, m2, lam: float = 1.0):
    s = math.sqrt(m2 - m1 * m1)
    grad = np.zeros(2)
    for c, sign in ((lam, 1.0), (-lam, -1.0)):
        u = (c - m1) / s
        # u = (c - x1) / sqrt(x2 - x1^2)
        du1 = -1.0 / s + (c - m1) * m1 / s**3
        du2 = -(c - m1) / (2.0 * s**3)
        grad += sign * stats.norm.pdf(u) * np.array([du1, du2])
    return grad


def bca_reference(data: np.ndarray, B: int, seed: int, alpha: float, stat, grad,
                  chunk: int = 256) -> dict:
    """BCA endpoints recomputed from scratch.

    Replicates follow the documented resampling scheme: chunk ``c`` of
    ``chunk`` rows of indices from ``default_rng(SeedSequence([seed, c]))``.
    The acceleration is the plug-in third moment of the data projected on
    the gradient at the empirical power means."""
    n = data.size
    reps = []
    for c in range((B + chunk - 1) // chunk):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        idx = rng.integers(0, n, size=(min(chunk, B - c * chunk), n))
        reps.append(stat(data[idx]))
    H = np.sort(np.concatenate(reps))
    H = H[np.isfinite(H)]
    theta = float(stat(data[None, :])[0])
    m1, m2 = power_means(data, 2)
    g = grad(float(m1), float(m2))
    proj = g[0] * (data - m1) + g[1] * (data * data - m2)
    a_hat = float(np.mean(proj**3) / (6.0 * np.mean(proj**2) ** 1.5 * math.sqrt(n)))
    m_hat = float(stats.norm.ppf(np.searchsorted(H, theta, side="right") / H.size))

    def rank(p):
        return min(max(math.ceil(p * H.size), 1), H.size)

    def bca_rank(level):
        z = stats.norm.ppf(level)
        return rank(stats.norm.cdf(m_hat + (m_hat + z) / (1 - a_hat * (m_hat + z))))

    return {
        "theta_hat": theta, "a_hat": a_hat, "m_hat": m_hat, "B": int(H.size),
        "lower": float(H[bca_rank(alpha / 2) - 1]),
        "upper": float(H[bca_rank(1 - alpha / 2) - 1]),
        "percentile_lower": float(H[rank(alpha / 2) - 1]),
        "percentile_upper": float(H[rank(1 - alpha / 2) - 1]),
    }


def fraction_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"
