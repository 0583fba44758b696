import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeboot.algebra import Bindings, eval_numeric, random_bindings
from edgeboot.codegen import CodegenError, _emit_expr, emit_assignments, reimport_check
from edgeboot.edgeworth import (
    Mode,
    accel_constant,
    build_model,
    cornish_fisher_polys,
    cumulant_coeffs,
    edgeworth_polys,
)
from edgeboot.expr import (
    KernelRegistry,
    Sym,
    Var,
    const,
    mul,
    parse,
    pow_,
    pretty_print,
    sqrt,
    sub,
)
from edgeboot.moments import gaussian_spec, symbolic_spec

from test_expr import _dags, _exprs


def roundtrip_value_equal(name, expr, kernels=None, trials=20, rtol=1e-12):
    text = emit_assignments([(name, expr)])
    [(back_name, back)] = reimport_check(text, kernels)
    assert back_name == name
    rng = np.random.default_rng(20311)
    checked = 0
    attempts = 0
    while checked < trials and attempts < 50 * trials:
        attempts += 1
        env = random_bindings(sub(expr, back), rng)
        try:
            a = eval_numeric(expr, env)
            b = eval_numeric(back, env)
        except Exception:
            continue
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        checked += 1
        assert abs(a - b) <= rtol * max(1.0, abs(a), abs(b)), (name, env)
    assert checked == trials


class TestEmit:
    def test_gamma1_line(self):
        assert emit_assignments([("A", Sym("Gamma1"))]) == "A = Gamma1;\n"

    def test_exact_radical(self):
        e = mul(const(-2), sqrt(const(2)))
        assert emit_assignments([("Acent", e)]) == "Acent = -2 * sqrt(2);\n"

    def test_zero(self):
        assert emit_assignments([("z", parse("0"))]) == "z = 0;\n"

    def test_rationals_stay_exact(self):
        text = emit_assignments([("c", parse("-1/6"))])
        assert "0.1" not in text and "e-" not in text

    def test_invalid_name(self):
        with pytest.raises(CodegenError):
            emit_assignments([("2bad", Sym("x"))])


def _regex_spacing(text):
    # the two passes the emitter used before plain replacement, kept as the
    # reference for its output
    text = re.sub(r"(?<=[\w)])\*(?=[-\w(])", " * ", text)
    return re.sub(r"(?<=[\w)])/(?=[-\w(])", " / ", text)


class TestSpacing:
    @pytest.mark.parametrize(
        "text", ["-1/6*x1", "x1*(-2)^(-1)", "-(3/4)*sigma^(3/2)/(x2 - x1^2)", "exp(-x1/2)"]
    )
    def test_matches_regex_spacing_examples(self, text):
        e = parse(text)
        assert _emit_expr(e) == _regex_spacing(pretty_print(e))

    @given(st.one_of(_exprs(3), _dags()))
    @settings(max_examples=300, deadline=None)
    def test_matches_regex_spacing(self, e):
        assert _emit_expr(e) == _regex_spacing(pretty_print(e))


class TestReimport:
    def test_malformed_line(self):
        with pytest.raises(CodegenError):
            reimport_check("A = Gamma1")  # missing semicolon

    def test_simple_roundtrip(self):
        roundtrip_value_equal("A", Sym("Gamma1"))

    def test_mean_export_roundtrips(self):
        model = build_model(parse("x1"), Mode.STUDENTIZED, symbolic_spec(8))
        k = cumulant_coeffs(model)
        p1, p2 = edgeworth_polys(k)
        p11, p21 = cornish_fisher_polys(p1, p2)
        acc = accel_constant(model)
        x = Sym("x")
        for name, e in [
            ("A", acc.A_value),
            ("a", acc.a_over_sqrtn),
            ("k22s", k.k22),
            ("p21s", p21.to_expr(x)),
        ]:
            roundtrip_value_equal(name, e)

    def test_variance_k41_roundtrips(self):
        model = build_model(parse("x2 - x1^2"), Mode.NONSTUDENTIZED, symbolic_spec(16))
        k = cumulant_coeffs(model)
        roundtrip_value_equal("k41", k.k41)
        roundtrip_value_equal("k12", k.k12)  # carries a sqrt kernel

    def test_ml_general_acceleration_roundtrips(self):
        # closed expression in mu, sigma, lambda; checked at (0.3, 1.2, 2)
        rad = sub(Var(2), pow_(Var(1), 2))
        reg = KernelRegistry([rad])
        g = parse(
            "Phi((lambda - x1)/sqrt(x2 - x1^2)) - Phi((-lambda - x1)/sqrt(x2 - x1^2))",
            reg,
        )
        spec = gaussian_spec(Sym("mu"), Sym("sigma"), K=8)
        model = build_model(g, Mode.NONSTUDENTIZED, spec, kernels=reg)
        acc = accel_constant(model)
        free = {"mu", "sigma", "lambda"}
        from edgeboot.expr import free_symbols

        assert free_symbols(acc.A_value) <= free | {"pi"}
        text = emit_assignments([("A", acc.A_value)])
        [(_, back)] = reimport_check(text, model.kernels)
        env = Bindings({"mu": 0.3, "sigma": 1.2, "lambda": 2.0}, {})
        a = eval_numeric(acc.A_value, env)
        b = eval_numeric(back, env)
        assert np.isfinite(a)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        # at mu=0 the symmetric closed form must come back
        env0 = Bindings({"mu": 0.0, "sigma": 1.7, "lambda": 1.3}, {})
        assert abs(eval_numeric(back, env0) - (-2.0 * np.sqrt(2.0))) < 1e-10
