"""Expression language for statistics and symbolic results.

An :class:`Expr` is a hash-consed DAG over exact rational constants, named
symbols, power-mean slots ``x1..xd``, sums, products, rational powers and the
primitives ``exp``, ``Phi`` (standard normal CDF) and ``phi`` (its density).
Every structure is built once: constructing a node equal to a live one
returns that node, so ``==`` and ``hash`` are identity and O(1), and memos
keyed by the node share work between structurally equal subtrees.
Decimal literals are rejected on input: every constant is an exact
``Fraction`` so that derived coefficients like ``5/72`` stay exact.

Half-integer powers (``sqrt``) are only allowed over bases known to be
positive: positive rational literals, symbols flagged positive (``sigma``,
``pi``, ``lambda``), or expressions registered in a :class:`KernelRegistry`.
Registration happens automatically when a model's asymptotic-variance
expression is formed, and can be requested explicitly for statistic
definitions such as ``sqrt(x2 - x1^2)``.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


class ExprError(Exception):
    """Base error for the expression layer."""


class ParseError(ExprError):
    """Syntax error, with position information in the message."""


class PositivityError(ExprError):
    """Half-integer power requested over a base not known to be positive."""


class UnsupportedExponentError(ExprError):
    """Exponent is not an integer or half-integer rational."""


# Symbols with fixed semantics.  ``mu`` is the mean, ``sigma`` the scale,
# ``Gamma1`` the skewness, ``kappa1`` the excess kurtosis, ``mu5``... the
# higher standardized central moments, ``lambda`` an acceptance limit and
# ``pi`` the circle constant (used by the normal density's normalizer).
POSITIVE_SYMBOLS = frozenset({"sigma", "pi", "lambda"})
RESERVED_SYMBOLS = frozenset(
    {"mu", "sigma", "Gamma1", "kappa1", "lambda", "pi"}
)

_FUNCTIONS = ("exp", "sqrt", "Phi", "phi")


# (node class, *fields) -> weak reference to the live node with those fields.
# Weak, so the table keeps no node alive; an entry goes with its node.
_INTERNED: dict[tuple, _Entry] = {}


class _Entry(weakref.ref):
    """The table's reference to a node; knows its key for the removal."""

    __slots__ = ("key",)


def _evict(entry: _Entry, table=_INTERNED) -> None:
    # a callback can run after an equal node was interned anew (by another
    # callback of the same death): that node's entry stays
    if table.get(entry.key) is entry:
        del table[entry.key]


class _Interned(type):
    """Metaclass that hash-conses nodes (Filliatre & Conchon, 2006).

    ``Cls(*fields)`` returns the live node built from equal fields if there
    is one.  Children are interned before their parents, so a key hashes and
    compares in O(arity): child nodes by identity, constants by value.
    """

    def __call__(cls, *args):
        key = (cls, *args)
        entry = _INTERNED.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = super().__call__(*args)
            entry = _INTERNED[key] = _Entry(node, _evict)
            entry.key = key
        return node


class Expr(metaclass=_Interned):
    """Base class for expression nodes.  Instances are immutable and
    interned: equal structures are one object."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # hands back the interned node
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # Operator sugar so generic coefficient arithmetic can run on Expr,
    # NormalForm or float values alike.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} into an Expr")


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True, eq=False)
class Sym(Expr):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class Var(Expr):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ExprError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True, slots=True, eq=False)
class Add(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True, slots=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True, slots=True, eq=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, eq=False)
class NormCdf(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, eq=False)
class NormPdf(Expr):
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


class KernelRegistry:
    """Set of expressions that may sit under a square root.

    Shared, append-only; registering the same expression twice is a no-op.
    A fresh registry already knows ``kappa1 + 2`` (the excess-kurtosis
    radicand, strictly positive for absolutely continuous distributions).
    """

    def __init__(self, extra: Iterable[Expr] = ()):  # noqa: D401
        # kappa1 + 2, in canonical form (constant term last)
        self._registered: set[Expr] = {Add((Sym("kappa1"), Const(Fraction(2))))}
        for e in extra:
            self.register(e)

    def register(self, e: Expr) -> None:
        self._registered.add(e)

    def contains(self, e: Expr) -> bool:
        return e in self._registered


#: Default registry used when no explicit one is supplied.
DEFAULT_KERNELS = KernelRegistry()


def is_positive_known(e: Expr, kernels: KernelRegistry | None = None) -> bool:
    """Syntactic positivity check backing half-integer power construction."""
    kernels = kernels or DEFAULT_KERNELS
    if kernels.contains(e):
        return True
    if isinstance(e, Const):
        return e.value > 0
    if isinstance(e, Sym):
        return e.name in POSITIVE_SYMBOLS
    if isinstance(e, Var):
        # Even power-mean slots are raw moments of even powers: positive.
        return e.index % 2 == 0
    if isinstance(e, (Exp, NormCdf, NormPdf)):
        return True
    if isinstance(e, Mul):
        return all(is_positive_known(f, kernels) for f in e.factors)
    if isinstance(e, Add):
        return all(is_positive_known(t, kernels) for t in e.terms)
    if isinstance(e, Pow):
        if e.exponent.denominator == 1 and e.exponent.numerator % 2 == 0:
            return True  # even power: nonnegative, zero excluded at eval time
        return is_positive_known(e.base, kernels)
    return False


# ---------------------------------------------------------------------------
# Canonical constructors.  They flatten and fold constants but never reorder
# non-constant operands, so canonical form is stable under printing.
# ---------------------------------------------------------------------------

def const(value: Rational) -> Const:
    return Const(Fraction(value))


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    c = Fraction(0)
    for t in terms:
        if isinstance(t, Add):
            for sub_t in t.terms:
                if isinstance(sub_t, Const):
                    c += sub_t.value
                else:
                    flat.append(sub_t)
        elif isinstance(t, Const):
            c += t.value
        else:
            flat.append(t)
    if c != 0 or not flat:
        flat.append(Const(c))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    # canonical factor order: constant, numerator factors, then negative
    # powers (matches the printed a*b/c layout, keeping print/parse stable)
    num: list[Expr] = []
    den: list[Expr] = []
    c = Fraction(1)

    def take(f: Expr) -> None:
        nonlocal c
        if isinstance(f, Const):
            c *= f.value
        elif isinstance(f, Pow) and f.exponent < 0:
            den.append(f)
        else:
            num.append(f)

    for f in factors:
        if isinstance(f, Mul):
            for sub_f in f.factors:
                take(sub_f)
        else:
            take(f)
    if c == 0:
        return ZERO
    out: list[Expr] = []
    if c != 1 or not (num or den):
        out.append(Const(c))
    out.extend(num)
    out.extend(den)
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def _split_square(m: int) -> tuple[int, int]:
    """m = a^2 * b with b squarefree, up to a trial-division bound.

    Factors beyond ~1e4 are only detected when the residual is a perfect
    square, so huge literals (e.g. exact binary fractions of doubles) stay
    under the radical instead of triggering unbounded factorization.
    """
    a, b = 1, 1
    d = 2
    while d * d <= m and d <= 10_000:
        while m % (d * d) == 0:
            a *= d
            m //= d * d
        if m % d == 0:
            b *= d
            m //= d
        d += 1
    root = math.isqrt(m)
    if root * root == m:
        return a * root, b
    return a, b * m


def rational_sqrt(v: Fraction) -> tuple[Fraction, int]:
    """``sqrt(v) = coeff * sqrt(rad)`` for a positive rational ``v``, as
    ``(coeff, rad)`` with ``rad`` a square-reduced positive integer."""
    pa, pb = _split_square(v.numerator)
    qa, qb = _split_square(v.denominator)
    # sqrt(p/q) = (pa/qa) * sqrt(pb*qb) / qb
    return Fraction(pa, qa * qb), pb * qb


def pow_(base: Expr, exponent: Rational, kernels: KernelRegistry | None = None) -> Expr:
    q = Fraction(exponent)
    if q.denominator not in (1, 2):
        raise UnsupportedExponentError(
            f"exponent {q} not supported: integer or half-integer required"
        )
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0:
            if q < 0:
                raise ExprError("division by zero constant")
            return ZERO
        if q.denominator == 1:
            return Const(base.value ** q.numerator)
        if base.value < 0:
            raise PositivityError(f"sqrt of negative constant {base.value}")
        # v^(m/2) = coeff^m * rad^(m // 2) * sqrt(rad), as m is odd here
        m = q.numerator
        coeff, rad = rational_sqrt(base.value)
        out = Const(coeff**m * Fraction(rad) ** (m // 2))
        if rad == 1:
            return out
        return mul(out, Pow(Const(Fraction(rad)), Fraction(1, 2)))
    if isinstance(base, Pow):
        folded = base.exponent * q
        if q.denominator == 1 or is_positive_known(base.base, kernels):
            return pow_(base.base, folded, kernels)
    if q.denominator == 2 and not is_positive_known(base, kernels):
        raise PositivityError(
            f"half-integer power of a base not registered as positive: {pretty_print(base)}"
        )
    return Pow(base, q)


def neg(e: Expr) -> Expr:
    return mul(Const(Fraction(-1)), e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def div(a: Expr, b: Expr, kernels: KernelRegistry | None = None) -> Expr:
    return mul(a, pow_(b, Fraction(-1), kernels))


def sqrt(e: Expr, kernels: KernelRegistry | None = None) -> Expr:
    return pow_(e, Fraction(1, 2), kernels)


def sym(name: str) -> Sym:
    return Sym(name)


def var(index: int) -> Var:
    return Var(index)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, NormCdf, NormPdf)):
        return (e.arg,)
    return ()


def _nodes(e: Expr) -> Iterator[Expr]:
    """Every distinct node of ``e``, each once: a shared subtree is visited
    once, so the walk is linear in the DAG, not in the tree it prints as."""
    seen = {e}
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        for child in _children(node):
            if child not in seen:
                seen.add(child)
                stack.append(child)


def arity(e: Expr) -> int:
    """Largest variable index occurring in ``e`` (0 for constant expressions)."""
    return max((n.index for n in _nodes(e) if isinstance(n, Var)), default=0)


def free_symbols(e: Expr) -> set[str]:
    return {n.name for n in _nodes(e) if isinstance(n, Sym)}


# ---------------------------------------------------------------------------
# Parser: recursive descent over
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ['^' exponent]
#   atom   := number | ident | ident '(' expr ')' | '(' expr ')'
# Numbers are nonnegative integer literals; decimals are rejected.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+)|(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")
_TOKEN_KINDS = (None, "decimal", "num", "ident", "op")  # by _TOKEN_RE group
_PAREN_RE = re.compile(r"[()]")
_VAR_RE = re.compile(r"^x(\d+)$")


class _Tokens:
    """Token cursor over one ``parse`` call's text, read on demand.

    ``close`` maps the position of each ``(`` to that of its matching ``)``
    (one scan up front), so that :meth:`skip_to` can step over a group whose
    text is already in ``groups``, the call's memo of parsed groups keyed
    by their exact source text, without tokenizing it again.
    """

    def __init__(self, text: str):
        self.text = text
        self.close: dict[int, int] = {}
        opened: list[int] = []
        for m in _PAREN_RE.finditer(text):
            i = m.start()
            if text[i] == "(":
                opened.append(i)
            elif opened:
                self.close[opened.pop()] = i
        self.groups: dict[str, Expr] = {}
        self.pos = 0  # where the token after the current one starts
        self.tok: tuple[str, str, int] | None = None

    def peek(self) -> tuple[str, str, int]:
        if self.tok is None:
            self.tok = self._read()
        return self.tok

    def _read(self) -> tuple[str, str, int]:
        text, pos = self.text, self.pos
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                return ("eof", "", len(text))
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        self.pos = m.end()
        k = m.lastindex
        if k == 1:
            raise ParseError(
                f"decimal literal {m.group(1)!r} at position {m.start(1)}: "
                "constants must be exact rationals"
            )
        return (_TOKEN_KINDS[k], m.group(k), m.start(k))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.tok = None
        return tok

    def skip_to(self, pos: int) -> None:
        self.pos = pos
        self.tok = None

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r} at position {pos}, got {value or kind!r}")


def parse(text: str, kernels: KernelRegistry | None = None) -> Expr:
    """Parse ``text`` into a canonical AST.

    Raises :class:`ParseError` with position info on bad syntax, and
    :class:`PositivityError` when ``sqrt`` is applied to an expression that
    is not a registered positive kernel.

    Each distinct parenthesised group or function call (``(...)``,
    ``sqrt(...)``, ``exp(...)``, ...) is parsed once per call: a repeat of the
    same source text returns the same object without being read again.  The
    cost is the text's distinct groups plus the length of the text.
    """
    toks = _Tokens(text)
    try:
        e = _parse_expr(toks, kernels)
    except RecursionError:
        # each nested group costs a few frames of the recursive descent
        raise ParseError(f"parentheses nested too deeply at position {toks.pos}") from None
    kind, value, pos = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r} at position {pos}")
    return e


def _parse_expr(toks: _Tokens, kernels) -> Expr:
    sign = 1
    kind, value, _ = toks.peek()
    if kind == "op" and value in "+-":
        toks.next()
        sign = -1 if value == "-" else 1
    e = _parse_term(toks, kernels)
    if sign < 0:
        e = neg(e)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            rhs = _parse_term(toks, kernels)
            e = add(e, rhs if value == "+" else neg(rhs))
        else:
            return e


def _parse_term(toks: _Tokens, kernels) -> Expr:
    e = _parse_factor(toks, kernels)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            rhs = _parse_factor(toks, kernels)
            e = mul(e, rhs) if value == "*" else div(e, rhs, kernels)
        else:
            return e


def _parse_factor(toks: _Tokens, kernels) -> Expr:
    base = _parse_atom(toks, kernels)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        return pow_(base, _parse_exponent(toks), kernels)
    return base


def _parse_exponent(toks: _Tokens) -> Fraction:
    # Bare exponents are (signed) integers; rational exponents need parens,
    # so that x^3/36 keeps its conventional meaning (x^3)/36.
    kind, value, pos = toks.peek()
    parenthesized = kind == "op" and value == "("
    if parenthesized:
        toks.next()
    sign = 1
    kind, value, pos = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        sign = -1
    kind, value, pos = toks.next()
    if kind != "num":
        raise ParseError(f"expected integer exponent at position {pos}")
    num = int(value)
    den = 1
    if parenthesized:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "/":
            toks.next()
            kind, value, pos = toks.next()
            if kind != "num":
                raise ParseError(f"expected exponent denominator at position {pos}")
            den = int(value)
        toks.expect_op(")")
    return Fraction(sign * num, den)


def _parse_atom(toks: _Tokens, kernels) -> Expr:
    kind, value, pos = toks.next()
    if kind == "num":
        return Const(Fraction(int(value)))
    if kind == "op" and value == "(":
        return _parse_group(toks, kernels, pos, pos, None)
    if kind == "ident":
        nkind, nvalue, npos = toks.peek()
        if nkind == "op" and nvalue == "(":
            if value not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {value!r} at position {pos}")
            toks.next()
            return _parse_group(toks, kernels, pos, npos, value)
        m = _VAR_RE.match(value)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise ParseError(f"invalid variable {value!r} at position {pos}")
            return Var(idx)
        return Sym(value)
    raise ParseError(f"unexpected token {value or kind!r} at position {pos}")


def _parse_group(toks: _Tokens, kernels, start: int, opened: int, func: str | None) -> Expr:
    """The group whose ``(`` at ``opened`` was just read; ``start`` is where
    its source text begins (at ``func``'s name for a function call)."""
    close = toks.close.get(opened)
    key = toks.text[start:close + 1] if close is not None else None
    e = toks.groups.get(key)
    if e is not None:
        toks.skip_to(close + 1)
        return e
    arg = _parse_expr(toks, kernels)
    toks.expect_op(")")
    if func is None:
        e = arg
    elif func == "exp":
        e = Exp(arg)
    elif func == "sqrt":
        e = sqrt(arg, kernels)
    elif func == "Phi":
        e = NormCdf(arg)
    else:
        e = NormPdf(arg)
    if key is not None:
        toks.groups[key] = e
    return e


# ---------------------------------------------------------------------------
# Pretty printer.  Deterministic; parse(pretty_print(e)) is e for canonical
# ASTs.
# ---------------------------------------------------------------------------

def pretty_print(e: Expr) -> str:
    """Render ``e`` in the syntax :func:`parse` reads.

    Each distinct node is rendered once per (precedence, sign) context it
    occurs in, memoised by structure for the call (nodes are interned, so
    the node is the key), so a DAG that shares subexpressions costs
    its distinct nodes plus the length of the output.
    """
    return _Printer().show(e, 0)


def _is_negative_leading(e: Expr) -> bool:
    if isinstance(e, Const):
        return e.value < 0
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Const):
        return e.factors[0].value < 0
    return False


class _Printer:
    """One ``pretty_print`` call; strings memoised by structure, keyed by
    ``(node, prec, negated)``."""

    def __init__(self):
        self.memo: dict[tuple[Expr, int, bool], str] = {}

    def show(self, e: Expr, prec: int, negated: bool = False) -> str:
        key = (e, prec, negated)
        s = self.memo.get(key)
        if s is None:
            s = self.memo[key] = self._render(e, prec, negated)
        return s

    def _render(self, e: Expr, prec: int, negated: bool) -> str:
        # precedence: 0 sum, 1 product, 2 power, 3 atom.  ``negated`` prints
        # -e; sums ask for it on their negative-leading terms only.
        if isinstance(e, Const):
            v = -e.value if negated else e.value
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            if (v < 0 or v.denominator != 1) and prec >= 1:
                return f"({s})" if prec >= 2 or v < 0 else s
            return s
        if isinstance(e, Sym):
            return e.name
        if isinstance(e, Var):
            return f"x{e.index}"
        if isinstance(e, Exp):
            return f"exp({self.show(e.arg, 0)})"
        if isinstance(e, NormCdf):
            return f"Phi({self.show(e.arg, 0)})"
        if isinstance(e, NormPdf):
            return f"phi({self.show(e.arg, 0)})"
        if isinstance(e, Add):
            parts = []
            for i, t in enumerate(e.terms):
                if _is_negative_leading(t):
                    parts.append((" - " if i else "-") + self.show(t, 1, True))
                else:
                    parts.append((" + " if i else "") + self.show(t, 1))
            s = "".join(parts)
            return f"({s})" if prec >= 1 else s
        if isinstance(e, (Mul, Pow)):
            s = self._product(e, negated)
            if prec >= 2 or (prec >= 1 and s.startswith("-")):
                return f"({s})"
            return s
        raise ExprError(f"unprintable node {e!r}")

    def _product(self, e: Expr, negated: bool) -> str:
        factors = e.factors if isinstance(e, Mul) else (e,)
        coeff = Fraction(-1 if negated else 1)
        num_parts: list[str] = []
        den_parts: list[str] = []
        for f in factors:
            if isinstance(f, Const):
                coeff *= f.value
            elif isinstance(f, Pow) and f.exponent < 0:
                den_parts.append(self._power(f.base, -f.exponent))
            elif isinstance(f, Pow):
                num_parts.append(self._power(f.base, f.exponent))
            else:
                num_parts.append(self.show(f, 1))
        sign = "-" if coeff < 0 else ""
        coeff = abs(coeff)
        if coeff.numerator != 1 or not num_parts:
            num_parts.insert(0, str(coeff.numerator))
        if coeff.denominator != 1:
            den_parts.insert(0, str(coeff.denominator))
        s = sign + "*".join(num_parts)
        if den_parts:
            s += "/" + "/".join(den_parts)
        return s

    def _power(self, base: Expr, q: Fraction) -> str:
        if q == 1:
            # only reached for denominator factors: base must bind tighter than /
            return self.show(base, 2)
        if q == Fraction(1, 2):
            return f"sqrt({self.show(base, 0)})"
        base_s = self.show(base, 2)
        if q.denominator == 1:
            return f"{base_s}^{q.numerator}"
        return f"{base_s}^({q.numerator}/{q.denominator})"
