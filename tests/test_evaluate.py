"""``evaluate`` in each value ring against the walkers it replaced
(``tests/reference_walkers.py``): the same node for Exprs, the same bits for
floats, the same normal form, and the same exception type."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_walkers as ref
from edgeboot import edgeworth
from edgeboot.algebra import (
    AlgebraError,
    Bindings,
    Ring,
    TranscendentalResidueError,
    _to_nf,
    evaluate,
)
from edgeboot.expr import (
    Exp,
    ExprError,
    KernelRegistry,
    NormCdf,
    NormPdf,
    Sym,
    Var,
    ZERO,
    add,
    const,
    mul,
    parse,
    pow_,
    sqrt,
)

_KAPPA = parse("kappa1 + 2")  # known positive to every registry

_atoms = st.one_of(
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(const),
    st.integers(1, 4).map(Var),
    st.sampled_from(["mu", "sigma", "Gamma1", "kappa1", "pi"]).map(Sym),
    st.just(sqrt(_KAPPA)),
)


def _built(make):
    """``make()``, or None where the constructors refuse it (a zero base under
    a negative power, a half power of a base not known to be positive)."""
    try:
        return make()
    except ExprError:
        return None


def _exprs(depth):
    if depth == 0:
        return _atoms
    sub_e = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        st.lists(sub_e, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(sub_e, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.tuples(sub_e, st.sampled_from([-2, -1, 2, 3])).map(
            lambda t: _built(lambda: pow_(t[0], t[1]))),
        # a half power of a square times the positive kernel
        st.tuples(sub_e, st.sampled_from([Fraction(1, 2), Fraction(-3, 2)])).map(
            lambda t: _built(lambda: pow_(mul(pow_(t[0], 2), _KAPPA), t[1]))),
        st.tuples(st.sampled_from([Exp, NormCdf, NormPdf]), sub_e).map(lambda t: t[0](t[1])),
    ).filter(lambda e: e is not None)


def _outcome(fn, *args):
    """The result, or the type of the error ``fn`` raised."""
    try:
        return fn(*args)
    except Exception as err:  # AlgebraError, or the expr constructors' ExprError
        return type(err)


_MAPPING = {Var(1): Sym("mu"), Var(2): parse("mu^2 + sigma^2"), Sym("Gamma1"): ZERO,
            Var(3): parse("mu^3 + 3*mu*sigma^2 + Gamma1*sigma^3")}


class TestAgainstTheReferenceWalkers:
    @given(_exprs(3))
    @settings(max_examples=200, deadline=None)
    def test_expr_ring_rebuilds_the_same_node(self, e):
        reg_new, reg_ref = KernelRegistry(), KernelRegistry()
        got = _outcome(lambda: evaluate(e, Ring("expr", _MAPPING, reg_new), {}))
        want = _outcome(ref.substitute, e, _MAPPING, reg_ref)
        assert got is want
        assert reg_new._registered == reg_ref._registered

    @given(_exprs(3), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_float_ring_gives_the_same_bits(self, e, seed):
        rng = np.random.default_rng(seed)
        b = Bindings({"mu": float(rng.uniform(-2, 2)), "sigma": float(rng.uniform(0.5, 2)),
                      "Gamma1": float(rng.uniform(-2, 2)), "kappa1": float(rng.uniform(-1, 3))},
                     {i: float(rng.uniform(-1.5, 3)) for i in (1, 2, 3)})  # x4 unbound
        got = _outcome(lambda: evaluate(e, Ring("float", b), {}))
        want = _outcome(ref.eval_numeric, e, b)
        if isinstance(want, type):
            assert got is want
        else:
            assert float.hex(float(got)) == float.hex(float(want))

    @given(_exprs(2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_float_ring_over_arrays_gives_the_same_bits(self, e, seed):
        rng = np.random.default_rng(seed)
        b = Bindings({"mu": rng.uniform(-2, 2, 64), "sigma": 1.5, "Gamma1": -0.5,
                      "kappa1": rng.uniform(-1, 3, 64)},
                     {i: rng.uniform(-1.5, 3, 64) for i in (1, 2, 3, 4)})
        with np.errstate(all="ignore"):
            got = _outcome(lambda: evaluate(e, Ring("float", b), {}))
            want = _outcome(ref.eval_numeric, e, b)
        if isinstance(want, type):
            assert got is want
        else:
            assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()

    @given(_exprs(2))
    @settings(max_examples=150, deadline=None)
    def test_nf_ring_gives_the_same_normal_form(self, e):
        got = _outcome(lambda: evaluate(e, Ring("nf"), {}))
        want = _outcome(ref._to_nf, e)
        if isinstance(want, type):
            assert got is want
        else:
            assert got == want
            assert (got.num, got.den) == (want.num, want.den)


class TestNfRing:
    def test_transcendental_node_stops_before_its_argument(self):
        # sqrt(1 - x1) has no normal form (negative leading coefficient), but
        # Phi of it is transcendental first, so the expr ring takes it
        reg = KernelRegistry([parse("1 - x1")])
        e = parse("Phi(sqrt(1 - x1))", reg)
        with pytest.raises(AlgebraError) as err:
            _to_nf(e.arg)
        assert not isinstance(err.value, TranscendentalResidueError)
        with pytest.raises(TranscendentalResidueError, match="NormCdf"):
            _to_nf(e)
        ring, values = edgeworth._ring_of((e,), reg)
        assert ring.kind == "expr" and values == [e]

    def test_memo_kept_across_calls_maps_a_shared_subtree_once(self):
        shared = pow_(parse("x1 + sigma"), 3)
        ring = Ring("nf")
        calls = []

        def counting_pow(base, q):
            calls.append(q)
            return base.pow(q)

        ring.pow = counting_pow
        memo = {}
        first = evaluate(add(shared, Var(2)), ring, memo)
        second = evaluate(mul(shared, Sym("mu")), ring, memo)
        assert calls == [3]
        assert first == _to_nf(parse("(x1 + sigma)^3 + x2"))
        assert second == _to_nf(parse("(x1 + sigma)^3*mu"))
