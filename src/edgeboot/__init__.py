"""Second-order Edgeworth/Cornish-Fisher expansions, BCA acceleration
constants, and bootstrap/Monte Carlo validation for statistics that are
smooth functions of sample power-means.

The names of ``rearrange``, ``bootstrap`` and ``harness`` load on first use,
because those modules import numpy: ``import edgeboot`` loads neither numpy,
scipy nor sympy.
"""

import importlib

from .expr import Expr, KernelRegistry, arity, parse, pretty_print
from .algebra import (
    Bindings,
    NormalForm,
    differentiate,
    eval_numeric,
    normalize,
    substitute,
    sym_compare,
    sym_equal,
)
from .moments import (
    MomentSpec,
    cross_moment,
    empirical_spec,
    exponential_spec,
    gaussian_spec,
    raw_moment,
    symbolic_spec,
)
from .edgeworth import (
    AccelResult,
    CumulantCoeffs,
    Mode,
    Poly,
    StatModel,
    accel_constant,
    build_model,
    cdf_eval,
    cornish_fisher_polys,
    cumulant_coeffs,
    edgeworth_polys,
    quantile_eval,
    scale_adjust,
)
from .codegen import emit_assignments, reimport_check

__version__ = "0.1.0"

_LAZY = {
    "rearrange": ("clip01", "rearrange_increasing"),
    "bootstrap": (
        "BcaResult",
        "BootConfig",
        "accel_plugin",
        "bca_from_replicates",
        "bca_interval",
        "resample_distribution",
    ),
    "harness": ("McConfig", "compare_and_emit", "parse_grid", "simulate_statistic_cdf"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOME})
