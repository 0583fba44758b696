import copy
import gc
from collections import Counter
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import edgeboot.expr as expr_module
from edgeboot.expr import (
    Add,
    Const,
    Exp,
    Expr,
    ExprError,
    KernelRegistry,
    Mul,
    NormCdf,
    NormPdf,
    ParseError,
    PositivityError,
    Pow,
    Sym,
    UnsupportedExponentError,
    Var,
    _INTERNED,
    add,
    arity,
    const,
    div,
    mul,
    neg,
    parse,
    pow_,
    pretty_print,
    sub,
)


class TestParse:
    def test_single_variable(self):
        assert parse("x1") == Var(1)

    def test_variance_statistic(self):
        e = parse("x2 - x1^2")
        assert e == Add((Var(2), Mul((Const(Fraction(-1)), Pow(Var(1), Fraction(2))))))

    def test_zero_literal(self):
        assert parse("0") == Const(Fraction(0))

    def test_rational_constant(self):
        assert parse("5/72") == Const(Fraction(5, 72))

    def test_functions(self):
        assert parse("exp(x1)") == Exp(Var(1))
        assert parse("Phi(x1)") == NormCdf(Var(1))
        assert parse("phi(x1)") == NormPdf(Var(1))

    def test_power_precedence(self):
        # x^3/36 is (x^3)/36, not x^(3/36)
        e = parse("x1^3/36")
        assert e == mul(const(Fraction(1, 36)), pow_(Var(1), 3))

    def test_parenthesized_rational_exponent(self):
        e = parse("(kappa1+2)^(3/2)")
        assert isinstance(e, Pow) and e.exponent == Fraction(3, 2)

    def test_negative_exponent(self):
        assert parse("x1^-2") == Pow(Var(1), Fraction(-2))

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="exact rationals"):
            parse("0.5*x1")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo(x1)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse("x1 + ")

    def test_sqrt_requires_positive_kernel(self):
        with pytest.raises(PositivityError):
            parse("sqrt(x2 - x1^2)")
        reg = KernelRegistry([sub(Var(2), pow_(Var(1), 2))])
        e = parse("sqrt(x2 - x1^2)", reg)
        assert isinstance(e, Pow) and e.exponent == Fraction(1, 2)

    def test_sqrt_of_positive_literal(self):
        assert parse("sqrt(4/9)") == Const(Fraction(2, 3))
        e = parse("sqrt(8)")
        assert e == mul(const(2), pow_(const(2), Fraction(1, 2)))

    def test_third_roots_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            parse("x1^(1/3)")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("x1 + ", ParseError, "unexpected token 'eof' at position 5"),
            ("0.5*x1", ParseError,
             "decimal literal '0.5' at position 0: constants must be exact rationals"),
            ("x1 $ 2", ParseError, "unexpected character ' ' at position 2"),
            ("(x1 + 2", ParseError, "expected ')' at position 7, got 'eof'"),
            ("x1)", ParseError, "trailing input ')' at position 2"),
            ("foo(x1)", ParseError, "unknown identifier 'foo' at position 0"),
            ("(x1 + 2)*x3 + (x1 + 2)*x4 + (x1 + 2.5)", ParseError,
             "decimal literal '2.5' at position 34: constants must be exact rationals"),
            ("sqrt(kappa1 + 2)*x1 + sqrt(kappa1 + 0.5)*x2", ParseError,
             "decimal literal '0.5' at position 36: constants must be exact rationals"),
            ("(x1 + 2)*(x1 + 2) + (x1 + 2", ParseError,
             "expected ')' at position 27, got 'eof'"),
            ("sqrt(x2 - x1^2)*sqrt(x2 - x1^2)", PositivityError,
             "half-integer power of a base not registered as positive: x2 - x1^2"),
        ],
    )
    def test_error_message_and_position(self, text, error, message):
        with pytest.raises(ExprError) as info:
            parse(text, KernelRegistry())
        assert type(info.value) is error
        assert str(info.value) == message

    def test_repeated_group_is_one_object(self):
        e = parse("sqrt(sigma + 1)*x1 + sqrt(sigma + 1)*x2")
        first, second = e.terms
        assert first.factors[0] is second.factors[0]
        assert first.factors[0] == pow_(add(Sym("sigma"), const(1)), Fraction(1, 2))

    def test_groups_keyed_with_their_function(self):
        e = parse("exp(x1) + Phi(x1) + phi(x1) + (x1) + sqrt(sigma) + (sigma)")
        x1, sigma = Var(1), Sym("sigma")
        assert e == add(Exp(x1), NormCdf(x1), NormPdf(x1), x1,
                        pow_(sigma, Fraction(1, 2)), sigma)

    def test_repeated_group_checks_positivity_once(self):
        class Counting(KernelRegistry):
            calls = 0

            def contains(self, e):
                Counting.calls += 1
                return super().contains(e)

        counts = []
        for copies in (1, 3):
            Counting.calls = 0
            parse(" + ".join(["sqrt(sigma + x2)"] * copies), Counting())
            counts.append(Counting.calls)
        assert counts[0] == counts[1] > 0


class TestPrettyPrint:
    def test_atoms(self):
        assert pretty_print(Var(1)) == "x1"
        assert pretty_print(pow_(Sym("sigma"), 2)) == "sigma^2"

    def test_difference(self):
        e = add(Var(2), neg(pow_(Var(1), 2)))
        assert pretty_print(e) == "x2 - x1^2"

    def test_fraction_coefficients(self):
        e = mul(const(Fraction(-1, 2)), Sym("Gamma1"))
        assert pretty_print(e) == "-Gamma1/2"

    def test_division_chain(self):
        e = div(const(1), mul(const(2), Var(1)))
        assert parse(pretty_print(e)) == e

    def test_shared_node_printed_with_and_without_sign(self):
        # a product nested in a product (not canonical) prints the same
        # negative-leading node unsigned there and negated as a sum's term
        m = mul(const(-2), Var(2))
        e = add(Mul((Var(1), m)), m)
        assert pretty_print(e) == _print(e, 0) == "x1*(-2*x2) - 2*x2"

    @pytest.mark.parametrize(
        "text",
        [
            "x1",
            "x2 - x1^2",
            "-2*sqrt(2)",
            "(kappa1 + 2)^(3/2)",
            "-1/sqrt(kappa1 + 2)",
            "5*x1^3/36 - x1/8",
            "Phi((lambda - x1)/sigma)",
            "exp(-x1^2/2)",
            "mu^2 + sigma^2",
        ],
    )
    def test_round_trip(self, text):
        e = parse(text)
        assert parse(pretty_print(e)) == e


# random canonical ASTs for the parse/print identity property
_positive_atoms = st.sampled_from([Sym("sigma"), Sym("pi"), Sym("lambda")])
_atoms = st.one_of(
    st.integers(-9, 9).map(lambda k: const(k)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).map(const),
    st.integers(1, 4).map(Var),
    st.sampled_from(["mu", "sigma", "Gamma1", "kappa1", "mu5", "mu6"]).map(Sym),
)


def _exprs(depth, atoms=_atoms):
    if depth == 0:
        return atoms
    sub_e = _exprs(depth - 1, atoms)
    return st.one_of(
        atoms,
        st.lists(sub_e, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(sub_e, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.tuples(sub_e, st.integers(-3, 3)).map(
            lambda t: pow_(t[0], t[1])
            if t[1] != 0 and not (t[1] < 0 and t[0] == Const(Fraction(0)))
            else t[0]
        ),
        st.tuples(_positive_atoms, st.sampled_from([Fraction(1, 2), Fraction(3, 2)])).map(
            lambda t: pow_(t[0], t[1])
        ),
        sub_e.map(Exp),
        sub_e.map(NormCdf),
        sub_e.map(NormPdf),
    )


@st.composite
def _dags(draw):
    """ASTs that reuse one subexpression object in several places, also as
    a negative-leading term of sums (the constructors keep operands by
    identity, so every use below is the same object)."""
    s = draw(_exprs(2))
    n = mul(draw(st.integers(-3, -1).map(const)), s)
    shared = [s, n, add(n, Var(1)), add(Sym("mu"), n, s), mul(s, s)]
    return draw(_exprs(3, st.one_of(_atoms, st.sampled_from(shared))))


# Reference printer: the recursive tree walk the memoised printer replaced,
# kept as it was so that the two can be compared on random DAGs.
def _ref_is_negative_leading(e):
    if isinstance(e, Const):
        return e.value < 0
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Const):
        return e.factors[0].value < 0
    return False


def _print(e, prec):
    # precedence: 0 sum, 1 product, 2 power, 3 atom
    if isinstance(e, Const):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if (v < 0 or v.denominator != 1) and prec >= 1:
            return f"({s})" if prec >= 2 or v < 0 else s
        return s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Exp):
        return f"exp({_print(e.arg, 0)})"
    if isinstance(e, NormCdf):
        return f"Phi({_print(e.arg, 0)})"
    if isinstance(e, NormPdf):
        return f"phi({_print(e.arg, 0)})"
    if isinstance(e, Add):
        first = e.terms[0]
        if _ref_is_negative_leading(first):
            parts = ["-" + _print(neg(first), 1)]
        else:
            parts = [_print(first, 1)]
        for t in e.terms[1:]:
            if _ref_is_negative_leading(t):
                parts.append(" - " + _print(neg(t), 1))
            else:
                parts.append(" + " + _print(t, 1))
        s = "".join(parts)
        return f"({s})" if prec >= 1 else s
    if isinstance(e, (Mul, Pow)):
        s = _print_product(e)
        if prec >= 2 or (prec >= 1 and s.startswith("-")):
            return f"({s})"
        return s
    raise ExprError(f"unprintable node {e!r}")


def _print_product(e):
    factors = list(e.factors) if isinstance(e, Mul) else [e]
    coeff = Fraction(1)
    num_parts = []
    den_parts = []
    for f in factors:
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Pow) and f.exponent < 0:
            den_parts.append(_print_power(f.base, -f.exponent))
        else:
            num_parts.append(_print_power(f.base, f.exponent) if isinstance(f, Pow) else _print(f, 1))
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    if coeff.numerator != 1 or not num_parts:
        num_parts.insert(0, str(coeff.numerator))
    if coeff.denominator != 1:
        den_parts.insert(0, str(coeff.denominator))
    s = sign + "*".join(num_parts)
    for d in den_parts:
        s += "/" + d
    return s


def _print_power(base, q):
    if q == 1:
        # only reached for denominator factors: base must bind tighter than /
        return _print(base, 2)
    if q == Fraction(1, 2):
        return f"sqrt({_print(base, 0)})"
    base_s = _print(base, 2)
    if q.denominator == 1:
        return f"{base_s}^{q.numerator}"
    return f"{base_s}^({q.numerator}/{q.denominator})"


class TestProperties:
    @given(_exprs(3))
    @settings(max_examples=200, deadline=None)
    def test_parse_print_identity(self, e):
        assert parse(pretty_print(e)) == e

    @given(_dags())
    @settings(max_examples=200, deadline=None)
    def test_dag_prints_as_its_tree(self, e):
        assert pretty_print(e) == _print(e, 0)

    @given(_dags())
    @settings(max_examples=200, deadline=None)
    def test_dag_parse_print_identity(self, e):
        assert parse(pretty_print(e)) == e

    @given(_exprs(2))
    @settings(max_examples=100, deadline=None)
    def test_arity_stable_under_rearrangement(self, e):
        assert arity(add(e, const(1))) == arity(e)
        assert arity(mul(const(3), e)) == arity(e)
        assert arity(sub(e, e)) in (0, arity(e))


_NODE_EXAMPLES = {
    Const: (Fraction(5, 3),),
    Sym: ("mu",),
    Var: (3,),
    Add: ((Var(1), Const(Fraction(1))),),
    Mul: ((Const(Fraction(2)), Var(1)),),
    Pow: (Var(2), Fraction(1, 2)),
    Exp: (Var(1),),
    NormCdf: (Var(1),),
    NormPdf: (Var(1),),
}


class TestHashConsing:
    @given(_dags())
    @settings(max_examples=200, deadline=None)
    def test_parse_print_gives_the_same_node(self, e):
        assert parse(pretty_print(e)) is e

    def test_independent_parses_give_the_same_node(self):
        text = "Phi((lambda - x1)/sqrt(x2 - x1^2)) - exp(-x1^2/2)*sqrt(sigma + 1)"
        first = parse(text, KernelRegistry([parse("x2 - x1^2")]))
        second = parse(text, KernelRegistry([parse("x2 - x1^2")]))
        assert first is second

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_node(self, clone):
        e = parse("Phi(x1)*sqrt(sigma + 1) - phi(x2)/3 + exp(mu)")
        assert clone(e) is e

    def test_constant_value_types_share_a_node(self):
        assert Const(2) is Const(Fraction(2)) is const(2)
        assert type(Const(2).value) is Fraction

    def test_table_keeps_no_node_alive(self):
        gc.collect()
        before = len(_INTERNED)
        e = parse("exp(x7 + 12345/7)*sqrt(sigma + 98765) + Phi(x9)")
        assert len(_INTERNED) > before
        del e
        gc.collect()
        assert len(_INTERNED) == before

    def test_a_dead_twin_keeps_the_new_node_interned(self):
        # The table's reference is the first weak reference to the node, so
        # when the node dies the probe's callback (registered later) runs
        # first and interns an equal node while the table still holds the
        # dead entry.  The dead entry's own callback must not evict the new
        # node.
        twins = []
        node = Exp(Sym("twin_probe"))
        probe = weakref.ref(node, lambda _: twins.append(Exp(Sym("twin_probe"))))
        del node
        gc.collect()
        assert probe() is None and len(twins) == 1
        assert Exp(Sym("twin_probe")) is twins[0]

    def test_examples_cover_every_node_class(self):
        classes = {c for c in vars(expr_module).values()
                   if isinstance(c, type) and issubclass(c, Expr) and c is not Expr}
        assert set(_NODE_EXAMPLES) == classes

    @pytest.mark.parametrize("cls", list(_NODE_EXAMPLES), ids=lambda c: c.__name__)
    def test_every_node_class_interns(self, cls):
        args = _NODE_EXAMPLES[cls]
        node = cls(*args)
        assert cls(*args) is node
        assert hash(node) == object.__hash__(node)


class TestArity:
    def test_examples(self):
        assert arity(parse("x1")) == 1
        assert arity(parse("x2 - x1^2")) == 2
        assert arity(parse("sigma")) == 0

    def test_shared_subtrees_are_walked_once(self, monkeypatch):
        # 35 distinct nodes; as a tree it has about 2**16 leaves.  A walk
        # that recursed through the module's own names, or visited a shared
        # node twice, would count more here.
        dag = _shared_dag(16)
        calls: Counter = Counter()
        for name in ("arity", "free_symbols"):
            def counted(e, walk=getattr(expr_module, name), name=name):
                calls[name] += 1
                return walk(e)

            monkeypatch.setattr(expr_module, name, counted)
        assert expr_module.arity(dag) == 3
        assert expr_module.free_symbols(dag) == {"mu"}
        assert calls == {"arity": 1, "free_symbols": 1}

        visits: Counter = Counter()
        children = expr_module._children
        monkeypatch.setattr(expr_module, "_children",
                            lambda e: visits.update([id(e)]) or children(e))
        expr_module.arity(dag)
        assert len(visits) == 35 and set(visits.values()) == {1}


def _shared_dag(depth: int) -> Expr:
    """``2 * depth + 3`` distinct nodes: each level holds the one below twice,
    once directly and once under ``Phi``."""
    e = Add((Var(3), Sym("mu")))
    for _ in range(depth):
        e = Add((e, NormCdf(e)))
    return e
