"""Statistic/moments/run configuration files (INI-style key = value).

Sections: ``[statistic]`` with name, g, mode, optional ``d`` (dimension
override), optional ``positive`` (semicolon-separated expressions registered
as positive square-root kernels) and any further keys as numeric statistic
parameters (e.g. ``lambda = 1.0``); ``[moments]`` as consumed by
:func:`edgeboot.moments.spec_from_config`; ``[run]`` with n, reps, grid,
seed, B, alpha.

Built-in presets (mean, variance, ml_symmetric, ml_general) ship with the
package and can be referenced by name instead of a path.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .bootstrap import Statistic
from .expr import Expr, KernelRegistry, arity, parse
from .moments import spec_from_config
from .edgeworth import Mode, StatModel, build_model

_STAT_KEYS = {"name", "g", "mode", "d", "positive"}

PRESETS = ("mean", "variance", "ml_symmetric", "ml_general")


class ConfigError(Exception):
    pass


@dataclass
class StatisticConfig:
    name: str
    g_text: str
    mode: Mode
    d: int | None = None
    positive: tuple[str, ...] = ()
    params: dict[str, float] = field(default_factory=dict)

    def registry(self) -> KernelRegistry:
        reg = KernelRegistry()
        for text in self.positive:
            reg.register(parse(text, reg))
        return reg

    def parse_g(self, reg: KernelRegistry | None = None) -> Expr:
        return parse(self.g_text, reg or self.registry())

    def merged_params(self, override: dict[str, float] | None = None) -> dict[str, float]:
        return {**self.params, **(override or {})}


@dataclass
class RunConfig:
    n: int = 10
    reps: int = 100000
    grid: str = "-4:4:0.02"
    seed: int | None = None
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


def load_config(path_or_name: str) -> FullConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep case: Gamma1, U, L
    cp.read_string(_resolve(path_or_name))
    if "statistic" not in cp:
        raise ConfigError("config needs a [statistic] section")
    st = cp["statistic"]
    if "g" not in st:
        raise ConfigError("[statistic] needs g = <expression>")
    params = {}
    for key, value in st.items():
        if key not in _STAT_KEYS:
            params[key] = float(Fraction(value))
    positive = tuple(
        tok.strip() for tok in st.get("positive", "").split(";") if tok.strip()
    )
    stat = StatisticConfig(
        name=st.get("name", "statistic"),
        g_text=st["g"],
        mode=Mode.parse(st.get("mode", "plain")),
        d=int(st["d"]) if "d" in st else None,
        positive=positive,
        params=params,
    )
    run = RunConfig()
    if "run" in cp:
        rn = cp["run"]
        run = RunConfig(
            n=int(rn.get("n", run.n)),
            reps=int(rn.get("reps", run.reps)),
            grid=rn.get("grid", run.grid),
            seed=int(rn["seed"]) if "seed" in rn else None,
            B=int(rn.get("B", rn.get("b", run.B))),
            alpha=float(rn.get("alpha", run.alpha)),
        )
    moments = dict(cp["moments"]) if "moments" in cp else {"distribution": "symbolic"}
    return FullConfig(statistic=stat, moments=moments, run=run)


def model_from_config(
    cfg: FullConfig,
    mode: Mode | None = None,
    moments_override: dict[str, str] | None = None,
    param_override: dict[str, float] | None = None,
) -> StatModel:
    """Build the statistic model a config describes."""
    stat = cfg.statistic
    mode = mode or stat.mode
    reg = stat.registry()
    g = stat.parse_g(reg)
    d = stat.d if stat.d is not None else max(arity(g), 1)
    dims = d if mode is Mode.NONSTUDENTIZED else 2 * d
    required_K = max(2 * d, 4 * dims)
    section = dict(cfg.moments)
    if moments_override:
        section.update(moments_override)
    spec = spec_from_config(section, required_K)
    return build_model(g, mode, spec, d=stat.d, params=stat.merged_params(param_override),
                       kernels=reg)


def statistic_from_config(
    cfg: FullConfig, param_override: dict[str, float] | None = None
) -> Statistic:
    """The statistic a config describes, without its moment model."""
    stat = cfg.statistic
    reg = stat.registry()
    return Statistic(stat.parse_g(reg), stat.merged_params(param_override), reg)
