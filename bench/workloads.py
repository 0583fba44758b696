"""The three benchmark workloads: their operations, inputs and checks.

A workload is a list of operations run in order (one pass).  Each operation
returns the text it produced; the checks run after the timed passes, on the
last pass's outputs.  Inputs that can vary are drawn from the seed; the
symbolic inputs of ``exact`` and ``transcendental`` are fixed by what they
derive, and there the seed picks the evaluation points of the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import sympy

import oracles as orc

ITEMS = ("A", "a", "k12", "k22", "k31", "k41", "p1", "p2", "p11", "p21")


@dataclass
class Op:
    name: str
    fn: Callable[[], str]
    # The one known fault kept in the benchmark: see README "Known failure".
    expect_fail: str | None = None


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    error: str = ""
    output: str = ""


class Workload:
    name = ""
    configs: tuple[str, ...] = ()  # presets loaded by setup_s

    def __init__(self, mods, seed: int, out: Path):
        self.mods = mods  # edgeboot modules by short name
        self.seed = seed
        self.out = out  # directory for the files the operations write
        self.state: dict = {}

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, results: dict[str, OpResult]) -> list[str]:
        raise NotImplementedError

    def case_metrics(self, results: dict[str, OpResult]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


def run_cli(mods, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(argv)
    if rc != 0:
        raise RuntimeError(f"edgeboot {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def reimport_item(mods, line: str, item: str, kernels) -> str:
    back = mods["codegen"].reimport_check(line + "\n", kernels)
    if [n for n, _ in back] != [item]:
        raise RuntimeError(f"re-import of {item} gave {[n for n, _ in back]}")
    return ""


def split_assignments(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        name, _, rhs = line.partition(" = ")
        out[name] = rhs.rstrip(";")
    return out


def _rational(rng, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(int(rng.integers(lo, hi)), den)


# ---------------------------------------------------------------------------
# exact: polynomial statistics in the normal-form ring
# ---------------------------------------------------------------------------

SKEWNESS = "(x3 - 3*x1*x2 + 2*x1^3)/(x2 - x1^2)^(3/2)"
KURTOSIS = "(x4 - 4*x1*x3 + 6*x1^2*x2 - 3*x1^4)/(x2 - x1^2)^2"
CV = "sqrt(x2 - x1^2)/x1"


@dataclass(frozen=True)
class ExactCase:
    name: str
    g: str
    mode: str
    moments: str  # symbolic | gaussian_mu_sigma | gaussian_sigma | gaussian_mu
    positive: tuple[str, ...] = ()


EXACT_CASES = (
    ExactCase("mean_plain", "x1", "plain", "symbolic"),
    ExactCase("mean_studentized", "x1", "studentized", "symbolic"),
    ExactCase("variance_plain", "x2 - x1^2", "plain", "symbolic"),
    ExactCase("variance_studentized", "x2 - x1^2", "studentized", "symbolic"),
    ExactCase("skewness_b1", SKEWNESS, "plain", "gaussian_mu_sigma", ("x2 - x1^2",)),
    ExactCase("kurtosis_b2", KURTOSIS, "plain", "gaussian_mu_sigma", ("x2 - x1^2",)),
    # cv depends on sigma/mu only; the two one-parameter forms stand in for
    # the two-parameter one, which takes ~80 s (see README).
    ExactCase("cv_sigma", CV, "plain", "gaussian_sigma", ("x2 - x1^2",)),
    ExactCase("cv_mu", CV, "plain", "gaussian_mu", ("x2 - x1^2",)),
)


class Exact(Workload):
    name = "exact"
    configs = ("mean", "variance")

    def _spec(self, case: ExactCase, K: int, numeric: dict | None = None):
        m = self.mods["moments"]
        e = self.mods["expr"]
        if numeric is not None:
            return m.gaussian_spec(float(numeric["mu"]), float(numeric["sigma"]), K)
        if case.moments == "symbolic":
            return m.symbolic_spec(K)
        mu = e.sym("mu") if case.moments in ("gaussian_mu_sigma", "gaussian_mu") else e.const(1)
        sigma = e.sym("sigma") if case.moments in ("gaussian_mu_sigma", "gaussian_sigma") else e.const(1)
        return m.gaussian_spec(mu, sigma, K)

    def _model(self, case: ExactCase, numeric: dict | None = None):
        e, ew = self.mods["expr"], self.mods["edgeworth"]
        reg = e.KernelRegistry()
        for text in case.positive:
            reg.register(e.parse(text, reg))
        g = e.parse(case.g, reg)
        mode = ew.Mode.parse(case.mode)
        d = e.arity(g)
        dims = d if mode is ew.Mode.NONSTUDENTIZED else 2 * d
        spec = self._spec(case, max(2 * d, 4 * dims), numeric)
        return ew.build_model(g, mode, spec, kernels=reg)

    def _derive(self, case: ExactCase) -> str:
        ew, cg, e = self.mods["edgeworth"], self.mods["codegen"], self.mods["expr"]
        model = self._model(case)
        k = ew.cumulant_coeffs(model)
        p1, p2 = ew.edgeworth_polys(k)
        p11, p21 = ew.cornish_fisher_polys(p1, p2)
        acc = ew.accel_constant(model)
        x = e.Sym("x")
        values = [acc.A_value, acc.a_over_sqrtn, k.k12, k.k22, k.k31, k.k41,
                  p1.to_expr(x), p2.to_expr(x), p11.to_expr(x), p21.to_expr(x)]
        text = cg.emit_assignments(list(zip(ITEMS, values)))
        self.state[case.name] = (model, text)
        return text

    def _reimport(self, case: ExactCase, item: str) -> str:
        model, text = self.state[case.name]
        return reimport_item(self.mods, text.splitlines()[ITEMS.index(item)], item, model.kernels)

    def ops(self) -> list[Op]:
        self.state.clear()
        ops = []
        for case in EXACT_CASES:
            ops.append(Op(f"derive:{case.name}", lambda c=case: self._derive(c)))
            for item in ITEMS:
                known = ("PositivityError" if item == "a" and case.name.startswith("variance")
                         else None)
                ops.append(Op(f"reimport:{case.name}:{item}",
                              lambda c=case, i=item: self._reimport(c, i), known))
        return ops

    # -- checks --------------------------------------------------------------
    def check(self, results):
        rng = np.random.default_rng([self.seed, 1])
        S = orc.SYM
        G, Kap, x = S["Gamma1"], S["kappa1"], S["x"]
        got = {c.name: {n: orc.to_sympy(t) for n, t in
                        split_assignments(results[f"derive:{c.name}"].output).items()}
               for c in EXACT_CASES}
        fails: list[str] = []

        def points(n=3):
            pts = []
            for _ in range(n):
                pt = {S["Gamma1"]: _rational(rng, -20, 21, 10),
                      S["kappa1"]: _rational(rng, 1, 60, 10),
                      S["mu"]: _rational(rng, 1, 30, 10),
                      S["sigma"]: _rational(rng, 5, 30, 10),
                      x: _rational(rng, -25, 26, 10)}
                for k in range(5, 33):
                    pt[S[f"mu{k}"]] = _rational(rng, -50, 51, 7)
                pts.append(pt)
            return pts

        def expect(case, wanted: dict, pts):
            for item, want in wanted.items():
                if not orc.sympy_agree(got[case][item], sympy.sympify(want), pts):
                    fails.append(f"{case}.{item} differs from its closed form")

        # Hall (1992): mean, plain and studentized (Edgeworth p1, p2 as printed there)
        pts = points()
        expect("mean_plain", {"k12": 0, "k22": 0, "k31": G, "k41": Kap, "A": G, "a": G / 6,
                              **orc.edgeworth_from_k(0, 0, G, Kap)}, pts)
        expect("mean_studentized", {
            "k12": -G / 2, "k22": (7 * G**2 + 12) / 4, "k31": -2 * G,
            "k41": 12 * G**2 - 2 * Kap + 6, "A": G, "a": G / 6,
            "p1": G * (2 * x**2 + 1) / 6,
            "p2": x * (Kap * (x**2 - 3) / 12 - G**2 * (x**4 + 2 * x**2 - 3) / 18
                       - (x**2 + 3) / 4),
            **{k: v for k, v in orc.edgeworth_from_k(
                -G / 2, (7 * G**2 + 12) / 4, -2 * G, 12 * G**2 - 2 * Kap + 6).items()
               if k in ("p11", "p21")}}, pts)
        # plain variance: closed forms, and the chi-square values at normality
        expect("variance_plain", {"k12": -1 / sympy.sqrt(Kap + 2),
                                  "k22": -2 * (Kap + 1) / (Kap + 2)}, pts)
        gauss = [{**{S[k]: v for k, v in orc.gaussian_moments(32).items()},
                  S["mu"]: pt[S["mu"]], S["sigma"]: pt[S["sigma"]], x: pt[x]} for pt in pts]
        r2 = sympy.sqrt(2)
        expect("variance_plain", {"k12": -r2 / 2, "k22": -1, "k31": 2 * r2, "k41": 12,
                                  "a": r2 / 3,
                                  **orc.edgeworth_from_k(-r2 / 2, -1, 2 * r2, 12)}, gauss)
        # sqrt(b1) and b2 under normality (classical moments)
        r6 = sympy.sqrt(6)
        expect("skewness_b1", {"k12": 0, "k22": -6, "k31": 0, "k41": 36,
                               **orc.edgeworth_from_k(0, -6, 0, 36)}, pts)
        expect("kurtosis_b2", {"k12": -r6 / 2, "k22": -15, "k31": 6 * r6, "k41": 540,
                               **orc.edgeworth_from_k(-r6 / 2, -15, 6 * r6, 540)}, pts)
        # cv is scale invariant: (mu, sigma) = (1, 1/2) and (2, 1) agree
        for item in ITEMS:
            a = got["cv_sigma"][item].subs(S["sigma"], sympy.Rational(1, 2))
            b = got["cv_mu"][item].subs(S["mu"], 2)
            if not orc.sympy_agree(a, b, [{x: pt[x]} for pt in pts]):
                fails.append(f"cv.{item} is not scale invariant")
        fails += self._check_float_ring(got, pts[0])
        return fails

    def _check_float_ring(self, got, pt) -> list[str]:
        """Every symbolic result, evaluated at a numeric moment point, equals
        the float-ring derivation at that point (no normal forms involved)."""
        S, ew = orc.SYM, self.mods["edgeworth"]
        fails = []
        xs = (-1.7, 0.3, 2.2)
        for case in EXACT_CASES:
            mu, sigma = pt[S["mu"]], pt[S["sigma"]]
            if case.moments == "gaussian_sigma":
                mu = 1
            if case.moments == "gaussian_mu":
                sigma = 1
            sub = {**{S[k]: v for k, v in orc.gaussian_moments(32).items()},
                   S["mu"]: mu, S["sigma"]: sigma}
            model = self._model(case, {"mu": Fraction(mu), "sigma": Fraction(sigma)})
            k = ew.cumulant_coeffs(model)
            p1, p2 = ew.edgeworth_polys(k)
            p11, p21 = ew.cornish_fisher_polys(p1, p2)
            acc = ew.accel_constant(model)
            ref = {"A": acc.A_value, "a": acc.a_over_sqrtn, "k12": k.k12, "k22": k.k22,
                   "k31": k.k31, "k41": k.k41}
            polys = {"p1": p1, "p2": p2, "p11": p11, "p21": p21}
            for item in ITEMS:
                e = got[case.name][item].subs(sub)
                if item in polys:
                    pairs = [(float(e.subs(S["x"], xv)), polys[item].eval(xv)) for xv in xs]
                else:
                    pairs = [(float(e), float(ref[item]))]
                for sym_v, flt_v in pairs:
                    # the float ring forms central moments from raw ones and
                    # loses digits as mu/sigma grows (1e-6 relative at
                    # mu/sigma near 6); an error in the exact ring is O(1)
                    if not orc.close(sym_v, flt_v, rel=1e-4, abs_=1e-9):
                        fails.append(f"{case.name}.{item}: symbolic {sym_v!r} vs float {flt_v!r}")
                        break
        return fails

    def case_metrics(self, results):
        derive = {c.name: results[f"derive:{c.name}"] for c in EXACT_CASES}
        return {
            "variance_studentized_s": (derive["variance_studentized"].seconds, "s"),
            "cv_gaussian_s": (derive["cv_sigma"].seconds + derive["cv_mu"].seconds, "s"),
            "export_kb": (sum(len(r.output) for r in derive.values()) / 1000, "kB"),
        }


# ---------------------------------------------------------------------------
# transcendental: ml statistics over symbolic moments, through the CLI
# ---------------------------------------------------------------------------

# The items each pass exports: every scalar but k41, and the polynomials
# p1 and p11.  k41, p2 and p21 hold most of the text (README, "Cases left
# out") and would make one pass longer than a run can repeat.
EXPORT_ITEMS = ("A", "a", "k12", "k22", "k31", "p1", "p11")
POLY_X = 0.7
SCALARS = {"k12": "k12", "k22": "k22", "k31": "k31", "A": "A", "a_over_sqrtn": "a"}
POLYS = ("p1", "p11")


class Transcendental(Workload):
    name = "transcendental"
    configs = ("ml_symmetric", "ml_general")

    def __init__(self, mods, seed: int, out: Path):
        super().__init__(mods, seed, out)
        rng = np.random.default_rng([seed, 2])
        self.mu = _rational(rng, 2, 7, 10)
        self.sigma = _rational(rng, 8, 14, 10)

    def _registry(self) -> str:
        cfg, ew = self.mods["config"], self.mods["edgeworth"]
        model = cfg.model_from_config(cfg.load_config("ml_general"),
                                      moments_override={"distribution": "symbolic"})
        ew.accel_constant(model)  # registers the sigma^3 radicand of `a`
        self.state["kernels"] = model.kernels
        return ""

    def _reimport(self, item: str) -> str:
        line = self.state["export"].splitlines()[EXPORT_ITEMS.index(item)]
        return reimport_item(self.mods, line, item, self.state["kernels"])

    def _export(self, stat: str) -> str:
        path = self.out / f"{stat}_export.txt"
        run_cli(self.mods, ["export", "--stat", stat, "--moments", "symbolic",
                            "--what", ",".join(EXPORT_ITEMS), "--out", str(path)])
        text = path.read_text(encoding="utf-8")
        if stat == "ml_general":
            self.state["export"] = text
        return text

    def ops(self) -> list[Op]:
        self.state.clear()
        ops = [
            Op("export:ml_symmetric", lambda: self._export("ml_symmetric")),
            Op("export:ml_general", lambda: self._export("ml_general")),
            Op("registry:ml_general", self._registry),
        ]
        ops += [Op(f"reimport:ml_general:{i}", lambda i=i: self._reimport(i))
                for i in EXPORT_ITEMS]
        return ops

    def _points(self, stat: str):
        """(symbol values, float-ring CLI arguments) at a Gaussian and an
        exponential moment point."""
        params = {k: float(v) for k, v in
                  self.mods["config"].load_config(stat).statistic.params.items()}
        gauss = {**orc.gaussian_moments(32), "mu": float(self.mu),
                 "sigma": float(self.sigma), **params}
        expo = {**orc.exponential_moments(32), **params}
        return [(gauss, ["--moments", "gaussian", "--mu", orc.fraction_text(self.mu),
                         "--sigma", orc.fraction_text(self.sigma)]),
                (expo, ["--moments", "exponential"])]

    def check(self, results):
        fails = []
        for stat in ("ml_symmetric", "ml_general"):
            exported = split_assignments(results[f"export:{stat}"].output)
            if list(exported) != list(EXPORT_ITEMS):
                fails.append(f"{stat}: exported {list(exported)}, not {list(EXPORT_ITEMS)}")
                continue
            # float-ring JSON key -> text; polynomials are compared at x = POLY_X
            items = {**{k: exported[v] for k, v in SCALARS.items()},
                     **{k: exported[k] for k in POLYS}}
            for env, argv in self._points(stat):
                ref = json.loads(run_cli(self.mods, ["expand", "--stat", stat, *argv,
                                                     "--format", "json"]))
                for key, text in items.items():
                    got = orc.eval_text(text, {**env, "x": POLY_X})
                    want = ref[key] if key in SCALARS else orc.eval_text(ref[key], {"x": POLY_X})
                    if not orc.close(got, want):
                        fails.append(f"{stat}.{key} at {argv[1]}: text {got!r} vs float {want!r}")
        return fails

    def case_metrics(self, results):
        rt = sum(r.seconds for n, r in results.items()
                 if n.startswith(("export:ml_general", "registry:", "reimport:")))
        return {
            "ml_symmetric_export_s": (results["export:ml_symmetric"].seconds, "s"),
            "ml_general_roundtrip_s": (rt, "s"),
            "export_kb": (sum(len(results[f"export:{s}"].output)
                              for s in ("ml_symmetric", "ml_general")) / 1000, "kB"),
        }


# ---------------------------------------------------------------------------
# resample: Monte Carlo and bootstrap over numeric moments
# ---------------------------------------------------------------------------

MC_REPS = 2_000_000
BOOT_B = 100_000
BOOT_N = 50
GRID = "-3:3:0.01"
MC_CASES = (
    # name, preset, mode, n
    ("mean_studentized", "mean", "studentized", 10),
    ("variance_plain", "variance", "plain", 20),
    ("ml_symmetric_studentized", "ml_symmetric", "studentized", 10),
)
BCA_CASES = ("variance", "ml_symmetric")


class Resample(Workload):
    name = "resample"
    configs = ("mean", "variance", "ml_symmetric")

    def __init__(self, mods, seed: int, out: Path):
        super().__init__(mods, seed, out)
        rng = np.random.default_rng([seed, 3])
        # skewed data for the variance (nonzero acceleration), shifted
        # normal data for the ml statistic
        self.data = {"variance": rng.exponential(1.0, BOOT_N),
                     "ml_symmetric": rng.normal(0.3, 1.0, BOOT_N)}
        for stat, values in self.data.items():
            (out / f"data_{stat}.csv").write_text(
                "value\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")

    def _mc(self, stat, mode, n, name) -> str:
        path = self.out / f"mc_{name}.csv"
        report = run_cli(self.mods, [
            "mc", "--stat", stat, "--mode", mode, "--moments", "gaussian", "--dist", "gaussian",
            "--n", str(n), "--reps", str(MC_REPS), "--grid", GRID, "--seed", str(self.seed),
            "--out", str(path), "--format", "json"])
        return report + path.read_text(encoding="utf-8")

    def _bca(self, stat) -> str:
        path = self.out / f"bca_{stat}.json"
        run_cli(self.mods, [
            "bca", "--data", str(self.out / f"data_{stat}.csv"), "--stat", stat,
            "--B", str(BOOT_B), "--alpha", "0.05", "--seed", str(self.seed + 1),
            "--out", str(path), "--format", "json"])
        return path.read_text(encoding="utf-8")

    def ops(self) -> list[Op]:
        ops = [Op(f"mc:{name}", lambda a=(stat, mode, n, name): self._mc(*a))
               for name, stat, mode, n in MC_CASES]
        ops += [Op(f"bca:{stat}", lambda s=stat: self._bca(s)) for stat in BCA_CASES]
        return ops

    def check(self, results):
        fails = []
        for name, _, _, n in MC_CASES:
            cols, summary = orc.read_mc_csv(self.out / f"mc_{name}.csv")
            draws = MC_REPS - int(summary["excluded_draws"])
            for col in ("empirical", "edge1_rearranged", "edge2_rearranged"):
                v = cols[col]
                if not (np.all(np.diff(v) >= 0) and v.min() >= 0 and v.max() <= 1):
                    fails.append(f"mc {name}: column {col} not a CDF on the grid")
            exact = {"mean_studentized": orc.studentized_mean_cdf,
                     "variance_plain": orc.normalized_variance_cdf}.get(name)
            if exact is not None:
                dist = float(np.max(np.abs(cols["empirical"] - exact(cols["x"], n))))
                if dist > orc.dkw_bound(draws):
                    fails.append(f"mc {name}: sup distance {dist:.5f} to the exact CDF "
                                 f"exceeds the DKW bound {orc.dkw_bound(draws):.5f}")
        stat_fns = {"variance": (orc.variance_stat, orc.variance_grad),
                    "ml_symmetric": (orc.ml_symmetric_stat, orc.ml_symmetric_grad)}
        for stat in BCA_CASES:
            got = json.loads(results[f"bca:{stat}"].output)
            want = orc.bca_reference(self.data[stat], BOOT_B, self.seed + 1, 0.05,
                                     *stat_fns[stat])
            for key, value in want.items():
                if not orc.close(float(got[key]), value, rel=1e-9, abs_=1e-12):
                    fails.append(f"bca {stat}: {key} {got[key]!r} vs recomputed {value!r}")
        return fails

    def case_metrics(self, results):
        mc = sum(r.seconds for n, r in results.items() if n.startswith("mc:"))
        boot = sum(r.seconds for n, r in results.items() if n.startswith("bca:"))
        return {
            "mc_draws_per_s": (MC_REPS * len(MC_CASES) / mc, "1/s"),
            "boot_reps_per_s": (BOOT_B * len(BCA_CASES) / boot, "1/s"),
        }


WORKLOADS = {"exact": Exact, "transcendental": Transcendental, "resample": Resample}
