"""Second-order Edgeworth/Cornish-Fisher expansions, BCA acceleration
constants, and bootstrap/Monte Carlo validation for statistics that are
smooth functions of sample power-means."""

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
    MomentTable,
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
from .rearrange import Curve, clip01, rearrange_increasing
from .bootstrap import (
    BcaResult,
    BootConfig,
    accel_plugin,
    bca_from_replicates,
    bca_interval,
    resample_distribution,
    statistic_evaluator,
)
from .harness import McConfig, compare_and_emit, parse_grid, simulate_statistic_cdf
from .codegen import emit_assignments, reimport_check

__version__ = "0.1.0"
