"""Statistic/moments/run configuration files (INI-style key = value).

Sections: ``[statistic]`` with name, g, mode, optional ``positive``
(semicolon-separated expressions registered as positive square-root kernels)
and any further keys as numeric statistic parameters (e.g. ``lambda = 1.0``),
each a symbol of g; ``[moments]`` as consumed by
:func:`edgeboot.moments.spec_from_config`; ``[run]`` with n, reps, grid,
B, alpha.  ``[moments]`` and ``[run]`` keys are case-insensitive, and
an unknown or repeated key is an error.
A malformed number is an error that names its section and key.

Built-in presets (mean, variance, ml_symmetric, ml_general) ship with the
package and can be referenced by name instead of a path.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .expr import KernelRegistry, free_symbols, parse
from .moments import MOMENT_KEYS, parse_number, spec_from_config
from .edgeworth import Mode, Statistic, StatModel, build_model, model_shape

_STAT_KEYS = {"name", "g", "mode", "positive"}
_RUN_KEYS = ("n", "reps", "grid", "b", "alpha")

PRESETS = ("mean", "variance", "ml_symmetric", "ml_general")


class ConfigError(Exception):
    pass


@dataclass
class StatisticConfig:
    name: str
    g_text: str
    mode: Mode
    positive: tuple[str, ...] = ()
    params: dict[str, float] = field(default_factory=dict)


@dataclass
class RunConfig:
    n: int = 10
    reps: int = 100000
    grid: str = "-4:4:0.02"
    B: int = 1999
    alpha: float = 0.05


@dataclass
class FullConfig:
    statistic: StatisticConfig
    moments: dict[str, str]
    run: RunConfig


def _resolve(path_or_name: str) -> str:
    p = Path(path_or_name)
    if p.exists():
        return p.read_text(encoding="utf-8")
    stem = path_or_name.removesuffix(".cfg")
    if stem in PRESETS:
        ref = resources.files("edgeboot").joinpath(f"presets/{stem}.cfg")
        return ref.read_text(encoding="utf-8")
    raise ConfigError(f"no such config file or preset: {path_or_name!r}")


def _section(cp: configparser.ConfigParser, name: str,
             known: tuple[str, ...]) -> dict[str, str]:
    """Section ``name`` with lower-cased keys (``Gamma1`` is ``gamma1``); a
    key outside ``known``, or one given twice, is an error."""
    out: dict[str, str] = {}
    for key, value in cp[name].items():
        low = key.lower()
        if low not in known:
            raise ConfigError(f"unknown [{name}] key {key!r}; known keys: {', '.join(known)}")
        if low in out:
            raise ConfigError(f"[{name}] key {key!r} given twice")
        out[low] = value
    return out


def load_config(path_or_name: str) -> FullConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep the case of parameters such as U and L
    cp.read_string(_resolve(path_or_name))
    if "statistic" not in cp:
        raise ConfigError("config needs a [statistic] section")
    st = cp["statistic"]
    if "g" not in st:
        raise ConfigError("[statistic] needs g = <expression>")
    params = {key: parse_number(value, f"[statistic] {key}")
              for key, value in st.items() if key not in _STAT_KEYS}
    positive = tuple(
        tok.strip() for tok in st.get("positive", "").split(";") if tok.strip()
    )
    stat = StatisticConfig(
        name=st.get("name", "statistic"),
        g_text=st["g"],
        mode=Mode.parse(st.get("mode", "plain")),
        positive=positive,
        params=params,
    )
    run = RunConfig()
    if "run" in cp:
        rn = _section(cp, "run", _RUN_KEYS)

        def number(key: str, default, convert=int):
            return parse_number(rn.get(key, default), f"[run] {key}", convert)

        run = RunConfig(
            n=number("n", run.n),
            reps=number("reps", run.reps),
            grid=rn.get("grid", run.grid),
            B=number("b", run.B),
            alpha=number("alpha", run.alpha, float),
        )
    moments = {"distribution": "symbolic"}
    if "moments" in cp:
        moments = _section(cp, "moments", MOMENT_KEYS)
    return FullConfig(statistic=stat, moments=moments, run=run)


def model_from_config(
    cfg: FullConfig,
    mode: Mode | None = None,
    moments_override: dict[str, str] | None = None,
    param_override: dict[str, float] | None = None,
) -> StatModel:
    """Build the statistic model a config describes."""
    stat = statistic_from_config(cfg, param_override)
    mode = mode or cfg.statistic.mode
    _, _, K = model_shape(stat.g, mode)
    spec = spec_from_config({**cfg.moments, **(moments_override or {})}, K)
    return build_model(stat.g, mode, spec, params=stat.params, kernels=stat.kernels)


def statistic_from_config(
    cfg: FullConfig, param_override: dict[str, float] | None = None
) -> Statistic:
    """The statistic a config describes, without its moment model.  A
    parameter that is not a symbol of g is an error."""
    stat = cfg.statistic
    reg = KernelRegistry()
    for text in stat.positive:
        reg.register(parse(text, reg))
    g = parse(stat.g_text, reg)
    params = {**stat.params, **(param_override or {})}
    symbols = free_symbols(g)
    unused = sorted(set(params) - symbols)
    if unused:
        raise ConfigError(f"parameter {unused[0]!r} is not a symbol of g "
                          f"(its symbols: {', '.join(sorted(symbols)) or 'none'})")
    return Statistic(g, params, reg)
