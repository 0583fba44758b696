"""Command-line front end.

Subcommands: ``expand`` (cumulant coefficients and polynomials), ``accel``
(acceleration constant), ``cdf``, ``quantile``, ``mc`` (Monte Carlo CSV
comparison), ``bca`` (bootstrap interval) and ``export`` (assignment-style
code emission).  ``--format json`` reports the same numbers as text mode.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError
from .codegen import CodegenError, emit_assignments
from .config import (
    ConfigError,
    FullConfig,
    load_config,
    model_from_config,
    statistic_from_config,
)
from .edgeworth import (
    CumulantCoeffs,
    Mode,
    ModelError,
    Poly,
    StatModel,
    accel_constant,
    as_expr,
    cdf_eval,
    cornish_fisher_polys,
    cumulant_coeffs,
    edgeworth_polys,
    quantile_eval,
)
from .expr import Expr, ExprError, Sym, pretty_print
from .moments import SCALE_KEYS, MomentError, _read_column, parse_number

# harness's and bootstrap's errors are ValueErrors, so they are reported without
# importing those modules (and numpy) here
_ERRORS = (
    AlgebraError,
    CodegenError,
    ConfigError,
    ExprError,
    ModelError,
    MomentError,
    OSError,
    ValueError,
)


# harness and bootstrap import numpy, so mc and bca import them on first call,
# through these module attributes
def parse_grid(text: str) -> tuple[float, ...]:
    from .harness import parse_grid

    return parse_grid(text)


def compare_and_emit(model, mc, p1, p2, out):
    from .harness import compare_and_emit

    return compare_and_emit(model, mc, p1, p2, out)


def bca_interval(data, boot, stat):
    from .bootstrap import bca_interval

    return bca_interval(data, boot, stat)


def _fmt(value) -> object:
    if isinstance(value, Expr):
        return pretty_print(value)
    return float(value)


def _fmt_poly(p: Poly) -> str:
    if all(isinstance(c, float) for c in p.coeffs):
        terms = []
        for k in range(p.degree, -1, -1):
            c = p.coeffs[k]
            if c == 0.0:
                continue
            mono = "" if k == 0 else ("*x" if k == 1 else f"*x^{k}")
            terms.append(f"{c!r}{mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"
    return pretty_print(p.to_expr(Sym("x")))


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        print(f"{key} = {value}")


def _statistic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stat", required=True, help="config file or preset name")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="acceptance limit parameter")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="statistic parameter override")
    p.add_argument("--format", choices=["text", "json"], default="text")


def _stat_args(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
    _statistic_args(p)
    p.add_argument("--mode", choices=["plain", "studentized"], default=None)
    p.add_argument("--moments", default=None,
                   help="override distribution: symbolic|gaussian|exponential|empirical|custom")
    p.add_argument("--mu", type=str, default=None)
    p.add_argument("--sigma", type=str, default=None)
    if seed_required:
        p.add_argument("--seed", type=int, required=True)


def _param_override(args) -> dict[str, float] | None:
    params: dict[str, float] = {}
    if args.lam is not None:
        params["lambda"] = parse_number(args.lam, "--lambda")
    for spec_text in args.param:
        name, _, value = spec_text.partition("=")
        if not value:
            raise ConfigError(f"bad --param {spec_text!r}, want NAME=VALUE")
        name = name.strip()
        params[name] = parse_number(value.strip(), f"--param {name}")
    return params or None


def _build_model(args) -> tuple[StatModel, FullConfig]:
    cfg = load_config(args.stat)
    moments_override: dict[str, str] = {}
    if args.moments:
        moments_override["distribution"] = args.moments
    dist = (args.moments or cfg.moments.get("distribution", "symbolic")).strip().lower()
    for key in ("mu", "sigma", "scale"):  # mc alone has --scale
        value = getattr(args, key, None)
        if value is not None:
            parse_number(value, f"--{key}")  # a bad value names its flag
            if key not in SCALE_KEYS.get(dist, (key,)):  # an unknown dist fails later
                raise ConfigError(f"--{key} does not apply to {dist} moments")
            moments_override[key] = value
    mode = Mode.parse(args.mode) if args.mode else None
    model = model_from_config(cfg, mode=mode,
                              moments_override=moments_override or None,
                              param_override=_param_override(args))
    return model, cfg


def _polys(model: StatModel) -> tuple[CumulantCoeffs, Poly, Poly, Poly, Poly]:
    k = cumulant_coeffs(model)
    p1, p2 = edgeworth_polys(k)
    p11, p21 = cornish_fisher_polys(p1, p2)
    return k, p1, p2, p11, p21


def _cmd_expand(args) -> int:
    model, _ = _build_model(args)
    k, p1, p2, p11, p21 = _polys(model)
    acc = accel_constant(model)
    report = {
        "k12": _fmt(k.k12),
        "k22": _fmt(k.k22),
        "k31": _fmt(k.k31),
        "k41": _fmt(k.k41),
        "p1": _fmt_poly(p1),
        "p2": _fmt_poly(p2),
        "p11": _fmt_poly(p11),
        "p21": _fmt_poly(p21),
        "A": _fmt(acc.A_value),
        "a_over_sqrtn": _fmt(acc.a_over_sqrtn),
    }
    _print_report(report, args.format)
    return 0


def _cmd_accel(args) -> int:
    model, _ = _build_model(args)
    acc = accel_constant(model)
    report = {
        "A": _fmt(acc.A_value),
        "a_over_sqrtn": _fmt(acc.a_over_sqrtn),
    }
    _print_report(report, args.format)
    return 0


def _cmd_cdf(args) -> int:
    model, _ = _build_model(args)
    _, p1, p2, _, _ = _polys(model)
    value = cdf_eval(p1, p2, args.n, args.x, order=args.order)
    _print_report({"x": args.x, "n": args.n, "order": args.order, "cdf": value},
                  args.format)
    return 0


def _cmd_quantile(args) -> int:
    model, _ = _build_model(args)
    _, _, _, p11, p21 = _polys(model)
    value = quantile_eval(p11, p21, args.n, args.alpha)
    _print_report({"alpha": args.alpha, "n": args.n, "quantile": value}, args.format)
    return 0


def _run_setting(args, cfg: FullConfig, name: str, limit: float | None = None):
    """The value of ``--<name>``, else of ``[run] <name>``.  A value over
    ``limit`` is an error that names where it came from."""
    value, source = getattr(args, name), f"--{name}"
    if value is None:
        value, source = getattr(cfg.run, name), f"[run] {name.lower()}"
    if limit is not None and value > limit:
        raise ConfigError(f"{source} {value} is more than the limit of {limit}")
    return value


def _cmd_mc(args) -> int:
    from .harness import MAX_REPS, McConfig, check_drawable

    model, cfg = _build_model(args)
    # the draws come from the moment spec, checked before the expansion (which
    # over symbolic moments can take seconds); --dist only checks it
    check_drawable(model.spec)
    if args.dist not in (None, model.spec.distribution):
        raise ConfigError(f"--dist {args.dist} does not match the "
                          f"{model.spec.distribution} moments mc draws from")
    _, p1, p2, _, _ = _polys(model)
    grid = parse_grid(_run_setting(args, cfg, "grid"))
    mc = McConfig(
        n=_run_setting(args, cfg, "n"),
        reps=_run_setting(args, cfg, "reps", MAX_REPS),
        grid=grid,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        summary = compare_and_emit(model, mc, p1, p2, fh)
    report = {
        "out": args.out,
        "sup_dist_normal": summary.sup_normal,
        "sup_dist_edge1": summary.sup_edge1,
        "sup_dist_edge2": summary.sup_edge2,
        "sup_dist_edge1_rearranged": summary.sup_edge1_rearranged,
        "sup_dist_edge2_rearranged": summary.sup_edge2_rearranged,
        "excluded_draws": summary.excluded,
    }
    _print_report(report, args.format)
    return 0


def _cmd_bca(args) -> int:
    from .bootstrap import MAX_BOOT_B, BootConfig

    cfg = load_config(args.stat)
    # the interval reads only the data and the statistic, fitted to the data's moments
    stat = statistic_from_config(cfg, _param_override(args))
    data = _read_column(args.data)
    alpha = _run_setting(args, cfg, "alpha")
    boot = BootConfig(B=_run_setting(args, cfg, "B", MAX_BOOT_B), seed=args.seed,
                      alpha=alpha)
    result = bca_interval(data, boot, stat)
    report = {
        "theta_hat": result.theta_hat,
        "m_hat": result.m_hat,
        "a_hat": result.a_hat,
        "lower": result.lower,
        "upper": result.upper,
        "percentile_lower": result.percentile_lower,
        "percentile_upper": result.percentile_upper,
        "B": int(result.H_hat.size),
        "alpha": alpha,
        "nan_count": result.nan_count,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    _print_report(report, args.format)
    return 0


def _cmd_export(args) -> int:
    model, _ = _build_model(args)
    k, p1, p2, p11, p21 = _polys(model)
    acc = accel_constant(model)
    x = Sym("x")
    available: dict[str, Expr] = {
        "A": as_expr(acc.A_value),
        "a": as_expr(acc.a_over_sqrtn),
        "k12": as_expr(k.k12),
        "k22": as_expr(k.k22),
        "k31": as_expr(k.k31),
        "k41": as_expr(k.k41),
        "p1": p1.to_expr(x),
        "p2": p2.to_expr(x),
        "p11": p11.to_expr(x),
        "p21": p21.to_expr(x),
    }
    wanted = [w.strip() for w in args.what.split(",") if w.strip()]
    unknown = [w for w in wanted if w not in available]
    if unknown:
        raise ConfigError(f"unknown export items {unknown}; choose from {sorted(available)}")
    text = emit_assignments([(w, available[w]) for w in wanted])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgeboot",
        description="Edgeworth/Cornish-Fisher expansions and BCA bootstrap "
                    "for smooth functions of sample power-means",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="cumulant coefficients and polynomials")
    _stat_args(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("accel", help="BCA acceleration constant")
    _stat_args(p)
    p.set_defaults(fn=_cmd_accel)

    p = sub.add_parser("cdf", help="expansion CDF value")
    _stat_args(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, choices=[0, 1, 2], default=2)
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("quantile", help="Cornish-Fisher quantile")
    _stat_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_quantile)

    p = sub.add_parser("mc", help="Monte Carlo CDF comparison CSV")
    _stat_args(p, seed_required=True)
    p.add_argument("--dist", choices=["gaussian", "exponential"], default=None,
                   help="check that the moments are of this distribution")
    p.add_argument("--scale", default=None, help="override [moments] scale")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--grid", default=None, help="start:stop:step")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("bca", help="BCA bootstrap interval")
    _statistic_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True, help="one-column CSV, optional header")
    p.add_argument("--B", type=int, default=None, help="default: [run] b")
    p.add_argument("--alpha", type=float, default=None, help="default: [run] alpha")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bca)

    p = sub.add_parser("export", help="emit assignment-style code")
    _stat_args(p)
    p.add_argument("--what", default="A,a,p1,p2,p11,p21")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    joined = []
    i = 0
    while i < len(argv):
        # keep "--grid -3:3:0.1" working: the value starts with a dash
        if argv[i] == "--grid" and i + 1 < len(argv):
            joined.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    args = ap.parse_args(joined)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
