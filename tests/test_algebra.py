import gc
import math
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from edgeboot import algebra
import edgeboot.expr as expr_module
from edgeboot.algebra import (
    AlgebraError,
    Bindings,
    Comparison,
    DomainError,
    EvalError,
    MPoly,
    NormalForm,
    TranscendentalResidueError,
    _mono_mul,
    _norm,
    _reduce_kernels,
    differentiate,
    eval_numeric,
    normalize,
    substitute,
    sym_compare,
    sym_equal,
)
from edgeboot.expr import (
    Add,
    Exp,
    KernelRegistry,
    NormCdf,
    NormPdf,
    Pow,
    Sym,
    Var,
    ZERO,
    add,
    const,
    mul,
    neg,
    parse,
    pow_,
    pretty_print,
    sqrt,
    sub,
)


class TestDifferentiate:
    def test_polynomial_rule(self):
        assert differentiate(parse("x2 - x1^2"), 1) == parse("-2*x1")

    def test_phi_chain_rule(self):
        d = differentiate(parse("Phi((lambda - x1)/sigma)"), 1)
        assert sym_equal(d, parse("-phi((lambda - x1)/sigma)/sigma"))

    def test_second_derivative_of_linear(self):
        assert differentiate(differentiate(parse("x1"), 1), 1) == ZERO

    def test_pdf_rule(self):
        # d phi(u)/du = -u phi(u)
        d = differentiate(NormPdf(Var(1)), 1)
        assert sym_equal(d, mul(neg(Var(1)), NormPdf(Var(1))))

    def test_exp_rule(self):
        d = differentiate(Exp(pow_(Var(1), 2)), 1)
        assert sym_equal(d, parse("2*x1*exp(x1^2)"))

    def test_commutes_with_constant_substitution(self):
        e = parse("sigma*x1^3 + Phi(x1*sigma)")
        lhs = substitute(differentiate(e, 1), {Sym("sigma"): const(2)})
        rhs = differentiate(substitute(e, {Sym("sigma"): const(2)}), 1)
        assert sym_equal(lhs, rhs)

    @given(st.sampled_from([
        "sigma*x1^3 - x1",
        "exp(sigma*x1)",
        "Phi(x1/sigma)",
        "phi(x1)*sigma + x1^2",
        "Phi(sigma*phi(x1))",
    ]), st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_commutation_property(self, text, sigma_value):
        e = parse(text)
        c = const(Fraction(sigma_value).limit_denominator(64))
        lhs = substitute(differentiate(e, 1), {Sym("sigma"): c})
        rhs = differentiate(substitute(e, {Sym("sigma"): c}), 1)
        for x0 in (-1.1, 0.3, 0.9):
            env = Bindings({}, {1: x0})
            a, b = eval_numeric(lhs, env), eval_numeric(rhs, env)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


_smooth = st.sampled_from([
    "x1^3 - 2*x1",
    "exp(x1/2)",
    "Phi(x1)",
    "phi(x1)",
    "Phi(x1)*exp(-x1) + x1^2",
    "phi(x1^2/4)*x1",
    "exp(phi(x1))",
    "Phi(phi(x1) + x1/2)",
])


class TestMemos:
    @pytest.mark.parametrize("walk", [
        lambda e, memo: differentiate(e, 1, memo=memo),
        lambda e, memo: eval_numeric(e, Bindings(vars={1: 2.0, 2: 3.0}), memo),
    ], ids=["differentiate", "eval_numeric"])
    def test_a_memo_holds_its_nodes(self, walk):
        # keyed by the interned node, a memo the caller keeps alive keeps its
        # nodes alive, so no new node can take over a stale entry
        e = parse("x1*x2 + x1^3")
        alive, memo = weakref.ref(e), {}
        walk(e, memo)
        del e
        gc.collect()
        assert alive() is not None
        assert alive() in memo


class TestDerivativeVsFiniteDifference:
    @given(_smooth, st.floats(-1.5, 1.5))
    @settings(max_examples=120, deadline=None)
    def test_central_difference(self, text, x0):
        e = parse(text)
        d = differentiate(e, 1)
        h = 1e-5
        up = eval_numeric(e, Bindings({}, {1: x0 + h}))
        down = eval_numeric(e, Bindings({}, {1: x0 - h}))
        fd = (up - down) / (2 * h)
        exact = eval_numeric(d, Bindings({}, {1: x0}))
        assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact), abs(fd))


class TestSubstitute:
    def test_moment_substitution(self):
        g = parse("x2 - x1^2")
        out = substitute(g, {Var(1): Sym("mu"), Var(2): parse("mu^2 + sigma^2")})
        assert normalize(out) == normalize(parse("sigma^2"))

    def test_empty_map(self):
        assert substitute(Var(1), {}) == Var(1)

    def test_gaussian_specialization(self):
        assert substitute(mul(Sym("Gamma1"), Var(1)), {Sym("Gamma1"): ZERO}) == ZERO


class TestNormalize:
    def test_self_cancellation(self):
        g = parse("x2 - x1^2")
        assert normalize(sub(g, g)).is_zero

    def test_kernel_rewrite(self):
        s = sqrt(parse("kappa1 + 2"))
        assert normalize(sub(mul(s, s), parse("kappa1 + 2"))).is_zero

    def test_rationalized_denominator(self):
        nf = normalize(parse("-1/sqrt(kappa1 + 2)"))
        assert nf == normalize(parse("-sqrt(kappa1 + 2)/(kappa1 + 2)"))

    def test_idempotent(self):
        nf = normalize(parse("(x2 - x1^2)/(kappa1 + 2)"))
        assert normalize(nf.to_expr()) == nf

    def test_transcendental_residue(self):
        with pytest.raises(TranscendentalResidueError, match="transcendental residue"):
            normalize(NormCdf(Var(1)))

    def test_equivalence_consistent_with_eval(self):
        a = parse("(kappa1 + 2)^(3/2)")
        b = mul(parse("kappa1 + 2"), sqrt(parse("kappa1 + 2")))
        assert normalize(a) == normalize(b)
        env = Bindings({"kappa1": 0.7}, {})
        assert abs(eval_numeric(a, env) - eval_numeric(b, env)) < 1e-10

    def test_gcd_cancellation(self):
        a = parse("(sigma^2*kappa1 + 2*sigma^2)/(sigma^2)")
        assert normalize(a) == normalize(parse("kappa1 + 2"))


_rational_atoms = st.one_of(
    st.integers(-4, 4).map(const),
    st.integers(1, 3).map(Var),
    st.sampled_from(["mu", "sigma", "Gamma1", "kappa1"]).map(Sym),
    st.just(sqrt(parse("kappa1 + 2"))),
)


def _rational_exprs(depth):
    if depth == 0:
        return _rational_atoms
    sub_e = _rational_exprs(depth - 1)
    return st.one_of(
        _rational_atoms,
        st.lists(sub_e, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(sub_e, min_size=2, max_size=2).map(lambda fs: mul(*fs)),
        st.tuples(sub_e, st.integers(1, 3)).map(lambda t: pow_(t[0], t[1])),
    )


class TestNormalFormEvalConsistency:
    @given(_rational_exprs(2), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_normal_form_preserves_values(self, e, seed):
        import numpy as np

        from edgeboot.algebra import random_bindings

        nf_expr = normalize(e).to_expr()
        rng = np.random.default_rng(seed)
        env = random_bindings(e, rng)
        env.syms.setdefault("kappa1", 0.5)
        try:
            a = eval_numeric(e, env)
            b = eval_numeric(nf_expr, env)
        except (DomainError, EvalError):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            return
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


class TestEvalNumeric:
    def test_phi_at_zero(self):
        assert eval_numeric(NormCdf(ZERO), Bindings()) == 0.5

    def test_pdf_at_zero(self):
        assert abs(eval_numeric(NormPdf(ZERO), Bindings()) - 0.3989422804014327) < 1e-16

    def test_half_integer_power(self):
        v = eval_numeric(pow_(parse("kappa1 + 2"), Fraction(-3, 2)),
                         Bindings({"kappa1": 0.0}, {}))
        assert abs(v - 0.35355339059327373) < 1e-15

    def test_unbound_symbol(self):
        with pytest.raises(EvalError, match="unbound symbol"):
            eval_numeric(Sym("Gamma1"), Bindings())

    def test_negative_base_fractional_power(self):
        reg = KernelRegistry([Var(2)])
        with pytest.raises(DomainError):
            eval_numeric(pow_(Var(2), Fraction(1, 2), reg), Bindings({}, {2: -1.0}))

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_numeric(pow_(Var(1), Fraction(-1)), Bindings({}, {1: 0.0}))

    def test_equal_subtrees_evaluate_once(self, monkeypatch):
        # two separate parses build one node, so the memo sees one subtree
        calls = []

        def counting_cdf(u):
            calls.append(u)
            return 0.25

        monkeypatch.setattr(algebra, "norm_cdf", counting_cdf)
        e = add(parse("Phi(x1)"), parse("Phi(x1)"))
        assert eval_numeric(e, Bindings({}, {1: 0.5})) == 0.5
        assert calls == [0.5]

    # numpy scalars take the scalar branches and 0-d arrays the array ones:
    # the value is the float bindings' value, the type the one each branch gives
    @pytest.mark.parametrize("text, types", [
        ("x1^2 + 3*x1*x2", ("float64", "float64", "float64")),
        ("x2^(-3/2) + x1^(-2)", ("float", "float", "float64")),
        ("exp(x1) - Phi(sqrt(x2)) + phi(x1*x2)", ("float", "float", "float64")),
    ])
    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_numpy_scalar_and_zero_d_bindings(self, text, types, kind):
        import numpy as np

        convert, x1, x2 = [(np.float64, 0.7, 2.0), (np.int64, 1, 3), (np.array, 0.7, 2.0)][kind]
        e = parse(text, KernelRegistry([Var(2)]))
        got = eval_numeric(e, Bindings({}, {1: convert(x1), 2: convert(x2)}))
        assert got == eval_numeric(e, Bindings({}, {1: float(x1), 2: float(x2)}))
        assert type(got).__name__ == types[kind]

    def test_pi_bound_automatically(self):
        assert abs(eval_numeric(Sym("pi"), Bindings()) - math.pi) < 1e-16

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^exp\(1000\.0\) overflows a double$"):
            eval_numeric(Exp(Var(1)), Bindings({}, {1: 1000.0}))
        with pytest.raises(DomainError, match=r"^1e\+200 \^ \(3\) overflows a double$"):
            eval_numeric(pow_(Var(1), 3), Bindings({}, {1: 1e200}))
        reg = KernelRegistry([Var(1)])
        with pytest.raises(DomainError, match=r"\^ \(3/2\) overflows"):
            eval_numeric(pow_(Var(1), Fraction(3, 2), reg), Bindings({}, {1: 1e300}))


# (x4 - x1^4)/(x2 - x1^2), and the same value over (x2 - x1^2)^2 written out
_ONE_RADICAND = ("(x4 - x1^4)/(x2 - x1^2)",
                 "(x4*x2 - x4*x1^2 - x1^4*x2 + x1^6)/(x2^2 - 2*x2*x1^2 + x1^4)")


class TestSymEqual:
    def test_mean_p21_expanded_form(self):
        compact = parse("(x^3/24 - x/8)*kappa1 + (-x^3/18 + 5*x/36)*Gamma1^2")
        expanded = parse(
            "kappa1*x^3/24 - kappa1*x/8 - Gamma1^2*x^3/18 + 5*Gamma1^2*x/36"
        )
        assert sym_compare(compact, expanded) == Comparison(True, "symbolic")

    def test_not_equal(self):
        assert not sym_equal(parse("x"), parse("x + 1"))

    def test_square_root_of_a_fraction_with_a_common_factor(self):
        # the radicand is taken from the canonical form, so (1 + x4) cancels
        # before the root is taken
        assert sym_compare(parse("sqrt((x2 + x2*x4)/(x4 + x4^2))"),
                           parse("sqrt(x2/x4)")) == Comparison(True, "symbolic")

    def test_square_root_keeps_its_sign_when_the_monic_denominator_flips(self):
        # the canonical denominator of either spelling is x1^2 - x2, negative
        # wherever the variance is positive, so the root is taken over its square
        b = Bindings({}, {1: 0.5, 2: 2.0, 4: 5.0})
        for rad in _ONE_RADICAND:
            e = parse(f"sqrt({rad})", KernelRegistry([parse(rad)]))
            assert eval_numeric(normalize(e).to_expr(), b) == pytest.approx(1.6797108594721208)
            assert eval_numeric(e, b) == pytest.approx(1.6797108594721208)

    def test_two_spellings_of_one_radicand_root_alike(self):
        a, b = (parse(f"sqrt({r})", KernelRegistry([parse(r)])) for r in _ONE_RADICAND)
        na, nb = normalize(a), normalize(b)
        assert (na.num.key(), na.den.key()) == (nb.num.key(), nb.den.key())
        assert sym_compare(a, b) == Comparison(True, "symbolic")

    def test_root_over_the_registered_kappa1_plus_2_roots_alike(self):
        # the default registry makes kappa1 + 2 positive, so the quotient is
        # rooted over kappa1 + 2 itself, as the quotient of roots merges to
        a = parse("sqrt(sigma/(kappa1 + 2))")
        b = parse("sqrt(sigma)/sqrt(kappa1 + 2)")
        na, nb = normalize(a), normalize(b)
        assert (na.num.key(), na.den.key()) == (nb.num.key(), nb.den.key())
        assert pretty_print(na.to_expr()) == "sqrt(kappa1*sigma + 2*sigma)/(kappa1 + 2)"
        assert sym_compare(a, b) == Comparison(True, "symbolic")

    def test_equal_values_with_different_normal_forms_compare_numerically(self):
        # the square factor stays under the root (ROADMAP item 12), so the
        # normal forms differ, but the verdict is not "unequal"
        assert sym_compare(parse("sqrt((1 + x2)^2*(x2 + 3))"),
                           parse("(1 + x2)*sqrt(x2 + 3)")) == Comparison(True, "numeric")

    def test_unequal_values_have_a_numeric_witness(self):
        assert sym_compare(parse("x1 + x2"), parse("x1 + 2*x2")) == Comparison(False, "numeric")

    @pytest.mark.xfail(strict=True, reason="open: the normal form does not know that the "
                       "registered x2 - x1^2 is positive, so the quotient is rooted over "
                       "its square (ROADMAP item 12)")
    def test_root_of_a_quotient_is_the_quotient_of_roots(self):
        reg = KernelRegistry([parse(r) for r in (_ONE_RADICAND[0], "x4 - x1^4", "x2 - x1^2")])
        a = parse(f"sqrt({_ONE_RADICAND[0]})", reg)
        b = parse("sqrt(x4 - x1^4)/sqrt(x2 - x1^2)", reg)
        assert sym_compare(a, b) == Comparison(True, "symbolic")

    def test_sample_sd_kernel_and_cv_normalize(self):
        reg = KernelRegistry([parse("x2 - x1^2")])
        sd = parse("sqrt(x2 - x1^2)", reg)
        b = Bindings({}, {1: 0.5, 2: 2.0})
        assert eval_numeric(normalize(sd).to_expr(), b) == pytest.approx(math.sqrt(1.75))
        cv = parse("sqrt(x2 - x1^2)/x1", reg)
        assert sym_compare(cv, cv) == Comparison(True, "symbolic")

    def test_nested_radical_compares_numerically(self):
        e = parse("sqrt(sqrt(x2) + 1)")
        assert sym_compare(e, e) == Comparison(True, "numeric")

    @given(st.lists(st.integers(0, 2), min_size=5, max_size=5),
           st.lists(st.integers(0, 2), min_size=5, max_size=5),
           st.sampled_from([-1.5, -0.5, 0.5, 1.25]), st.sampled_from([0.5, 2.0, 3.0]),
           st.sampled_from([0.5, 3.0, 9.0]), st.sampled_from([0.75, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_square_root_of_a_ratio_is_the_positive_root(self, up, down, x1, x2, x4, sigma):
        factors = ["x2 - x1^2", "x4 - x1^4", "x2 + x1^2", "x1 + sigma", "sigma"]

        def product(exps):
            return "*".join(f"({f})^{k}" for f, k in zip(factors, exps) if k) or "1"

        rad = parse(f"({product(up)})/({product(down)})")
        b = Bindings({"sigma": sigma}, {1: x1, 2: x2, 4: x4})
        value = eval_numeric(rad, b)
        assume(value > 0)
        root = normalize(sqrt(rad, KernelRegistry([rad])))
        assert eval_numeric(root.to_expr(), b) == pytest.approx(math.sqrt(value), rel=1e-9)

    def test_variance_h_squared_matches_quartic(self):
        # auto-derived h^2 for the variance statistic equals the closed quartic
        from edgeboot.edgeworth import Mode, build_model
        from edgeboot.moments import symbolic_spec

        model = build_model(parse("x2 - x1^2"), Mode.STUDENTIZED, symbolic_spec(16))
        quartic = parse("x4 - 4*x1*x3 + 8*x1^2*x2 - 4*x1^4 - x2^2")
        # the base of the studentized statistic's ^(-1/2) factor, over the centered means
        (h2,) = [f.base for f in model.a_expr.factors
                 if isinstance(f, Pow) and f.exponent == Fraction(-1, 2)]
        assert sym_compare(h2, quartic) == Comparison(True, "symbolic")

    def test_transcendental_comparison_is_numeric(self):
        c = sym_compare(NormCdf(Var(1)), NormCdf(Var(1)))
        assert c.equal and c.method == "numeric"
        assert not sym_equal(NormCdf(Var(1)), NormCdf(add(Var(1), const(1))))

    def test_pdf_definitional_identity(self):
        # phi(u) = exp(-u^2/2)/sqrt(2 pi)
        assert sym_equal(NormPdf(Var(1)), parse("exp(-x1^2/2)/sqrt(2*pi)"))

    def test_numeric_comparison_walks_once(self, monkeypatch):
        # each level holds the one below twice, so the tree is about 2**8
        # times the DAG; the symbols and the arity are found once, not per
        # trial and not per tree node
        dag = Add((Var(3), Sym("mu")))
        for _ in range(8):
            dag = Add((dag, NormCdf(dag)))
        calls: Counter = Counter()
        for name in ("arity", "free_symbols"):
            def counted(e, walk=getattr(expr_module, name), name=name):
                calls[name] += 1
                return walk(e)

            monkeypatch.setattr(expr_module, name, counted)
            monkeypatch.setattr(algebra, name, counted, raising=False)
        assert sym_compare(mul(const(2), dag), add(dag, dag)) == Comparison(True, "numeric")
        assert calls == {"arity": 1, "free_symbols": 1}


# -- MPoly product and exact division ---------------------------------------

_PLAIN_GENS = ((0, 1), (0, 2), (1, "mu"), (1, "sigma"))
_KERNEL_GENS = (
    (2, MPoly({(((1, "kappa1"), 1),): Fraction(1), (): Fraction(2)}).key()),  # sqrt(kappa1 + 2)
    (2, MPoly({(((1, "sigma"), 2),): Fraction(1), (): Fraction(1)}).key()),  # sqrt(sigma^2 + 1)
)
_POINT = {(0, 1): 0.7, (0, 2): 1.9, (1, "mu"): 1.3, (1, "sigma"): 0.8, (1, "kappa1"): 0.6}

_coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


def _monomials(gens):
    def build(pairs):
        d = {g: (1 if g[0] == 2 else e) for g, e in pairs}  # kernels stay reduced
        return tuple(sorted(d.items()))

    return st.lists(st.tuples(st.sampled_from(gens), st.integers(1, 3)), max_size=3).map(build)


@st.composite
def _poly_pairs(draw, pool, q_terms=(1, 5)):
    """(p, q) over one random set of 1-4 generators from ``pool``; q has
    ``q_terms`` (min, max) terms."""
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    p = draw(st.dictionaries(_monomials(gens), _coeffs, max_size=6))
    q = draw(st.dictionaries(_monomials(gens), _coeffs,
                             min_size=q_terms[0], max_size=q_terms[1]))
    return MPoly(p), MPoly(q)


def _reference_product(p, q) -> dict:
    acc: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            for m, c in _reduce_kernels(_mono_mul(m1, m2), c1 * c2).terms.items():
                acc[m] = acc.get(m, Fraction(0)) + c
    return {m: c for m, c in acc.items() if c != 0}


def _gen_value(g) -> float:
    if g[0] == 2:
        return math.sqrt(_eval_poly(MPoly.from_key(g[1]))[0])
    return _POINT[g]


def _eval_poly(p) -> tuple[float, float]:
    """(value, sum of term magnitudes) at _POINT."""
    value = scale = 0.0
    for m, c in p.terms.items():
        t = float(c) * math.prod(_gen_value(g) ** e for g, e in m)
        value += t
        scale += abs(t)
    return value, scale


class TestMPolyArithmetic:
    @given(_poly_pairs(_PLAIN_GENS + _KERNEL_GENS, q_terms=(0, 5)))
    @settings(max_examples=150, deadline=None)
    def test_product_matches_double_loop(self, pq):
        p, q = pq
        prod = p * q
        assert prod.terms == _reference_product(p, q)
        assert all(c != 0 for c in prod.terms.values())
        (vp, sp), (vq, sq), (v, _) = _eval_poly(p), _eval_poly(q), _eval_poly(prod)
        assert abs(v - vp * vq) <= 1e-12 * max(1.0, sp * sq)

    def test_cancelling_product_stores_no_zero(self):
        x_gen, y_gen = (0, 1), (0, 2)
        x, y = MPoly.gen(x_gen), MPoly.gen(y_gen)
        assert ((x + y) * (x - y)).terms == {((x_gen, 2),): 1, ((y_gen, 2),): -1}

    @given(st.dictionaries(_monomials(_PLAIN_GENS), _coeffs.map(abs), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_kernel_squared_is_its_radicand(self, terms):
        radicand = MPoly(terms)
        s = MPoly.gen((2, radicand.key()))
        assert s * s == radicand

    # -- kernel-bucketed products: s1, s2 are the two _KERNEL_GENS ----------

    def test_product_with_both_kernels(self):
        x1, x2, mu, sigma = (MPoly.gen(g) for g in _PLAIN_GENS)
        s1, s2 = (MPoly.gen(g) for g in _KERNEL_GENS)
        p = (x1 + mu) * s1 + sigma * s2
        q = x2 * s1 + s2 + MPoly.constant(Fraction(3))
        prod = p * q
        assert prod.terms == _reference_product(p, q)
        # s1*s2 merges into the kernel of the product of the radicands
        assert any(g[0] == 2 and g not in _KERNEL_GENS for m in prod.terms for g, _ in m)

    def test_squared_kernel_times_plain_terms(self):
        x1, x2, mu, sigma = (MPoly.gen(g) for g in _PLAIN_GENS)
        s1 = MPoly.gen(_KERNEL_GENS[0])
        p = (x1 + MPoly.constant(Fraction(2)) * mu) * s1
        q = (x2 - sigma) * s1
        radicand = MPoly.from_key(_KERNEL_GENS[0][1])
        assert (p * q).terms == _reference_product(p, q)
        assert p * q == (x1 + MPoly.constant(Fraction(2)) * mu) * (x2 - sigma) * radicand

    def test_bucket_whose_plain_parts_cancel(self):
        x1 = MPoly.gen(_PLAIN_GENS[0])
        s1, s2 = (MPoly.gen(g) for g in _KERNEL_GENS)
        r1, r2 = (MPoly.from_key(g[1]) for g in _KERNEL_GENS)
        # the two s1*s2 products carry x1 and -x1
        p, q = x1 * s1 + s2, s2 - x1 * s1
        prod = p * q
        assert prod.terms == _reference_product(p, q)
        assert prod == r2 - x1 * x1 * r1
        assert all(c != 0 for c in prod.terms.values())


# -- coefficient representation ---------------------------------------------
#
# Every coefficient an operation returns is an int when it is integral and a
# Fraction with a denominator other than 1 otherwise.  Each operation below
# runs twice: on inputs in that representation and on the same inputs with
# every coefficient a Fraction; the two results are compared by their values
# at random rationals, with each generator (kernels too) a free variable.

def _int_coeffs(p: MPoly) -> MPoly:
    return MPoly({m: c.numerator if c.denominator == 1 else c for m, c in p.terms.items()})


def _fraction_coeffs(p: MPoly) -> MPoly:
    return MPoly({m: Fraction(c) for m, c in p.terms.items()})


def _assert_invariant(*polys: MPoly) -> None:
    for p in polys:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _value(p: MPoly, point: dict, rnd) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms.items():
        term = Fraction(c)
        for g, e in m:
            if g not in point:
                point[g] = Fraction(rnd.randint(-30, 30), rnd.randint(1, 12))
            term *= point[g] ** e
        total += term
    return total


def _same_value(a, b, rnd) -> bool:
    point: dict = {}
    if isinstance(a, MPoly):
        return _value(a, point, rnd) == _value(b, point, rnd)
    return (_value(a.num, point, rnd) * _value(b.den, point, rnd)
            == _value(b.num, point, rnd) * _value(a.den, point, rnd))


def _both(op, *inputs):
    """``op`` on the int-coefficient and on the all-Fraction form of
    ``inputs``; None stands for a result the operation does not give (no
    exact quotient, or an AlgebraError), and then it must give neither."""
    outs = []
    for conv in (_int_coeffs, _fraction_coeffs):
        try:
            outs.append(op(*[conv(p) for p in inputs]))
        except AlgebraError:
            outs.append(None)
    got, want = outs
    assert (got is None) == (want is None)
    return got, want


_plain_polys = st.dictionaries(_monomials(_PLAIN_GENS), _coeffs, max_size=4).map(MPoly)
_kernel_polys = st.dictionaries(_monomials(_PLAIN_GENS + _KERNEL_GENS), _coeffs,
                                max_size=4).map(MPoly)
_nonzero_plain = _plain_polys.filter(lambda p: not p.is_zero)


class TestCoefficientInvariant:
    @given(_kernel_polys, _kernel_polys, _coeffs, st.integers(0, 3), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_mpoly_operations(self, p, q, c, n, rnd):
        ops = [
            lambda p, q: p + q,
            lambda p, q: p - q,
            lambda p, q: p * q,
            lambda p, q: p.scale(c),
            lambda p, q: p ** n,
        ]
        for op in ops:
            got, want = _both(op, p, q)
            if got is not None:
                _assert_invariant(got)
                assert _same_value(got, want, rnd)

    @given(_kernel_polys, _nonzero_plain, _kernel_polys, _nonzero_plain, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_normal_form_operations(self, p, r, q, s, rnd):
        ops = [
            lambda p, r, q, s: NormalForm(p, r) + NormalForm(q, s),
            lambda p, r, q, s: NormalForm(p, r) * NormalForm(q, s),
            lambda p, r, q, s: NormalForm(p, r).pow(Fraction(2)),
            lambda p, r, q, s: (NormalForm(p, r) * NormalForm(q, s)).canonical(),
            lambda p, r, q, s: (NormalForm(p, r) * NormalForm(r, s)).canonical(),
            lambda p, r, q, s: NormalForm(r * r, s).sqrt(),
            lambda p, r, q, s: NormalForm(r, s).pow(Fraction(3, 2)),
        ]
        for op in ops:
            got, want = _both(op, p, r, q, s)
            if got is not None:
                _assert_invariant(got.num, got.den)
                assert _same_value(got, want, rnd)


# -- light reduction --------------------------------------------------------

class TestLightReduce:
    def test_unit_denominator_leaves_num_untouched(self, monkeypatch):
        x1, mu = MPoly.gen((0, 1)), MPoly.gen((1, "mu"))
        num = x1 * mu + MPoly.constant(Fraction(-3, 2)) * x1 * x1

        def no_leading(self):
            raise AssertionError("monic step ran for a unit denominator")

        monkeypatch.setattr(MPoly, "leading", no_leading)
        nf = NormalForm(num, MPoly.constant(Fraction(1)))
        assert nf.num is num
        assert nf.den == MPoly.constant(Fraction(1))

    def test_constant_denominator_is_made_monic(self):
        x1 = MPoly.gen((0, 1))
        num = MPoly.constant(Fraction(2)) * x1 + MPoly.constant(Fraction(4))
        nf = NormalForm(num, MPoly.constant(Fraction(3)))
        assert nf.den == MPoly.constant(Fraction(1))
        assert nf.num == MPoly.constant(Fraction(2, 3)) * x1 + MPoly.constant(Fraction(4, 3))

    def test_shared_monomial_is_cancelled(self):
        x1, mu, sigma = MPoly.gen((0, 1)), MPoly.gen((1, "mu")), MPoly.gen((1, "sigma"))
        nf = NormalForm(x1 * x1 * mu + x1 * sigma, MPoly.constant(Fraction(2)) * x1 * sigma)
        assert nf.den == sigma
        assert nf.num == MPoly.constant(Fraction(1, 2)) * (x1 * mu + sigma)


# -- gcd and multi-term division -------------------------------------------

def _expression_gcd_many(polys: list[MPoly]):
    """The gcd bridge as it was before it moved to sympy's sparse ring: each
    polynomial built as a sympy expression, gcd by ``sympy.gcd``."""
    import sympy

    gens = sorted({g for p in polys for g in p.gens()})
    if not gens:
        return None
    symbols = {g: sympy.Symbol(f"g{i}") for i, g in enumerate(gens)}

    def to_sympy(p: MPoly):
        total = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for g, e in m:
                term *= symbols[g] ** e
            total += term
        return total

    acc = None
    for p in polys:
        sp = to_sympy(p)
        acc = sp if acc is None else sympy.gcd(acc, sp)
        if acc == 1:
            return None
    if acc is None or acc.is_number:
        return None
    poly = sympy.Poly(acc, *[symbols[g] for g in gens])
    out = MPoly()
    for powers, coeff in poly.terms():
        mono = tuple(
            (g, int(e)) for g, e in zip(gens, powers) if e
        )
        out = out + MPoly({tuple(sorted(mono)): Fraction(int(coeff.p), int(coeff.q))})
    return out


def _mono_div(m1, m2):
    """The monomial m1/m2, or None when m2 does not divide m1."""
    d = dict(m1)
    for g, e in m2:
        r = d.get(g, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(g, None)
        else:
            d[g] = r
    return tuple(sorted(d.items()))


def _long_division(p: MPoly, g: MPoly):
    """Exact division by a multi-term divisor as the package once did it:
    long division on the leading terms under a graded order (then lex from
    the largest generator), kernels as plain generators; None at the first
    leading term that the divisor's does not divide."""
    def grlex(m):
        return (sum(e for _, e in m), tuple(reversed(m)))

    gm = max(g.terms, key=grlex)
    gc = g.terms[gm]
    q: dict = {}
    r = MPoly(dict(p.terms))
    while not r.is_zero:
        rm = max(r.terms, key=grlex)
        rc = r.terms[rm]
        mq = _mono_div(rm, gm)
        if mq is None:
            return None
        cq = _norm(Fraction(rc) / gc)
        q[mq] = _norm(q.get(mq, 0) + cq)
        r = r - g.mono_scale(mq, cq)
    return MPoly(q)


def _reference_canonical(form: NormalForm) -> NormalForm:
    """``NormalForm.canonical`` as it was: the reference gcd of the
    denominator and every kernel part of the numerator, each part and the
    denominator divided by it with the reference long division."""
    parts: dict = {}
    for m, c in form.num.terms.items():
        kmono = tuple((g, e) for g, e in m if g[0] == 2)
        plain = tuple((g, e) for g, e in m if g[0] != 2)
        parts[kmono] = parts.get(kmono, MPoly()) + MPoly({plain: c})
    g = _expression_gcd_many([form.den, *parts.values()])
    if g is None:
        return NormalForm(form.num, form.den)
    num = MPoly()
    for kmono, p in parts.items():
        num = num + _long_division(p, g).mono_scale(kmono, 1)
    return NormalForm(num, _long_division(form.den, g))


@st.composite
def _fractions_with_common_factor(draw):
    """(num, den) sharing a random kernel-free factor, which may be a
    constant; num may carry kernels, den never does."""
    gens = draw(st.lists(st.sampled_from(_PLAIN_GENS), min_size=1, max_size=3, unique=True))
    kernels = draw(st.lists(st.sampled_from(_KERNEL_GENS), max_size=2, unique=True))
    plain = st.dictionaries(_monomials(gens), _coeffs, min_size=1, max_size=3).map(MPoly)
    mixed = st.dictionaries(_monomials(gens + kernels), _coeffs,
                            min_size=1, max_size=3).map(MPoly)
    common = draw(plain)
    return common * draw(mixed), common * draw(plain)


def _rational_multiple(a: MPoly, b: MPoly) -> bool:
    if a.terms.keys() != b.terms.keys():
        return False
    m = next(iter(a.terms))
    return a == b.scale(Fraction(a.terms[m]) / b.terms[m])


class TestGcd:
    @given(_fractions_with_common_factor())
    @settings(max_examples=100, deadline=None)
    def test_matches_expression_gcd(self, num_den):
        form = NormalForm(*num_den)
        got, want = form.canonical(), _reference_canonical(form)
        assert got.num == want.num and got.den == want.den
        _assert_invariant(got.num, got.den)

    def test_common_factor_found(self):
        x1, x2, sigma = MPoly.gen((0, 1)), MPoly.gen((0, 2)), MPoly.gen((1, "sigma"))
        f = MPoly.constant(Fraction(1, 2)) * x1 + MPoly.constant(Fraction(3)) * sigma
        g = x1 + x2
        got = NormalForm(f * g * (x2 + sigma), f * f * g).canonical()
        assert _rational_multiple(got.num, x2 + sigma)
        assert _rational_multiple(got.den, f)
        coprime = NormalForm(x1 + sigma, x2 + sigma)
        got = coprime.canonical()
        assert got is not coprime
        assert got.num == coprime.num and got.den == coprime.den

    @pytest.mark.parametrize("num, den, want_num, want_den", [
        ("(x1 - mu)*(x1 + x2)", "(sigma + 1)*(x1 + x2)", "x1 - mu", "sigma + 1"),
        ("(x2 + sigma^2)*(3*mu + 2)", "2*(x2 + sigma^2)^2", "(3*mu + 2)/2", "x2 + sigma^2"),
        ("(x1 + x2)*(sqrt(kappa1 + 2) + x1)", "(x1 + x2)^2", "sqrt(kappa1 + 2) + x1", "x1 + x2"),
        ("(x1*sigma + mu/3)*sqrt(kappa1 + 2)*(kappa1 + 2)",
         "(x1*sigma + mu/3)*(mu^2 + 1)", "(kappa1 + 2)^(3/2)", "mu^2 + 1"),
    ])
    def test_canonical_cancels_the_gcd(self, num, den, want_num, want_den):
        def nf(text):
            return algebra._to_nf(parse(text))

        form = nf(num) / nf(den)
        got = form.canonical()
        want = nf(want_num) / nf(want_den)
        assert got.num == want.num and got.den == want.den
        assert got.den == nf(want_den).num.scale(1 / nf(want_den).num.leading()[1])


class TestSumOverTheLcm:
    # the sum is over the lcm of the denominators, not their product, so it
    # is already canonical
    @pytest.mark.parametrize("a, b, den", [
        # neither denominator divides the other: the shared x1 + x2 is kept once
        ("1/((x1 + x2)*(x1 + sigma))", "1/((x1 + x2)*(x2 + sigma))",
         "(x1 + x2)*(x1 + sigma)*(x2 + sigma)"),
        # one denominator divides the other, in either order
        ("1/(x1 + x2)", "1/((x1 + x2)*(x1 + sigma))", "(x1 + x2)*(x1 + sigma)"),
        ("1/((x1 + x2)*(x1 + sigma))", "1/(x1 + x2)", "(x1 + x2)*(x1 + sigma)"),
        # a divisor with a content of its own
        ("1/(2*x1 + 6*sigma)", "1/(x1 + 3*sigma)^2", "(x1 + 3*sigma)^2"),
        # a unit denominator on either side
        ("x1 + sigma", "1/(x2 + sigma)", "x2 + sigma"),
        ("1/(x2 + sigma)", "x1 + sigma", "x2 + sigma"),
    ])
    def test_sum_is_already_canonical(self, a, b, den):
        def nf(text):
            return algebra._to_nf(parse(text))

        got = nf(a) + nf(b)
        want = nf(den).num
        assert got.den == want.scale(1 / want.leading()[1])
        canonical = got.canonical()
        assert got.num == canonical.num and got.den == canonical.den


class TestSparseRing:
    def test_one_ring_per_generator_count(self, monkeypatch):
        import sympy.polys.rings as rings

        built = Counter()
        real = rings.ring

        def counting(symbols, *args, **kwargs):
            built[symbols] += 1
            return real(symbols, *args, **kwargs)

        monkeypatch.setattr(rings, "ring", counting)
        algebra._sparse_ring.cache_clear()
        x1, x2, sigma = MPoly.gen((0, 1)), MPoly.gen((0, 2)), MPoly.gen((1, "sigma"))
        f, g = x1 * x1 - sigma * sigma, (x1 - sigma) * (x2 + x1)
        (a, _), back_a = algebra._in_ring([f, g])
        (b, _), _ = algebra._in_ring([x2 * x2 - sigma, x1 + x2 + sigma])
        assert a.ring is b.ring
        assert built == {"g0,g1,g2": 1}
        # the shared ring changes nothing: a cancelled form as before
        got = NormalForm(f, g).canonical()
        assert got.num == x1 + sigma and got.den == x2 + x1
        assert back_a(a) == f
