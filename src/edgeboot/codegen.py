"""Export symbolic results as scalar assignments in a generic math dialect.

One ``name = expression;`` line per pair, infix operators, ``^`` powers,
``sqrt``/``exp``/``Phi``/``phi`` calls, and exact rational literals
(``-1/6``, never floating point) so re-imported expressions are value-exact.
"""

from __future__ import annotations

import re

from .expr import Expr, KernelRegistry, parse, pretty_print

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class CodegenError(Exception):
    pass


def emit_assignments(pairs: list[tuple[str, Expr]]) -> str:
    lines = []
    for name, e in pairs:
        if not _IDENT_RE.match(name):
            raise CodegenError(f"invalid identifier {name!r}")
        lines.append(f"{name} = {_emit_expr(e)};")
    return "\n".join(lines) + "\n" if lines else ""


def _emit_expr(e: Expr) -> str:
    # widen the printer's spacing: binary * and / get spaces for readability
    # (the printer writes both only between operands, never spaced)
    return pretty_print(e).replace("*", " * ").replace("/", " / ")


def reimport_check(text: str, kernels: KernelRegistry | None = None) -> list[tuple[str, Expr]]:
    """Parse emitted assignments back; a parse failure signals a codegen bug."""
    out: list[tuple[str, Expr]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith(";") or "=" not in line:
            raise CodegenError(f"malformed assignment line {line!r}")
        name, rhs = line[:-1].split("=", 1)
        name = name.strip()
        if not _IDENT_RE.match(name):
            raise CodegenError(f"invalid identifier {name!r}")
        out.append((name, parse(rhs.strip(), kernels)))
    return out
