"""Start-up: importing edgeboot loads neither numpy, scipy nor sympy, and
every command works from a fresh interpreter, where only its own imports
have run.  pytest and the other tests import numpy, so these checks start
their own interpreters."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeboot
from edgeboot.cli import main

SRC = Path(edgeboot.__file__).resolve().parents[1]

# the names edgeboot re-exports from the modules that import numpy
LAZY_NAMES = {
    "rearrange": ("Curve", "clip01", "rearrange_increasing"),
    "bootstrap": ("BcaResult", "BootConfig", "accel_plugin", "bca_from_replicates",
                  "bca_interval", "resample_distribution"),
    "harness": ("McConfig", "compare_and_emit", "parse_grid", "simulate_statistic_cdf"),
}


def _fresh(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=300)


_IMPORT_AND_EXPAND = """
import sys
import edgeboot, edgeboot.cli
from edgeboot.config import PRESETS, load_config
for name in PRESETS:
    load_config(name)
code = edgeboot.cli.main(["expand", "--stat", "mean", "--moments", "gaussian", "--mu", "1"])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy", "sympy")))
"""


def test_import_config_and_numeric_expand_load_no_numeric_stack():
    proc = _fresh("-c", _IMPORT_AND_EXPAND)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 []"


def _commands(tmp_path) -> dict[str, list[str]]:
    data = tmp_path / "data.csv"
    data.write_text("\n".join(str(v) for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]))
    gaussian = ["--mode", "studentized", "--moments", "gaussian"]
    return {
        "expand": ["expand", "--stat", "variance", "--moments", "symbolic"],
        "accel": ["accel", "--stat", "ml_symmetric", "--sigma", "1", "--lambda", "1"],
        "cdf": ["cdf", "--stat", "mean", *gaussian, "--n", "10", "--x", "0.5"],
        "quantile": ["quantile", "--stat", "mean", *gaussian, "--n", "10",
                     "--alpha", "0.975"],
        "export": ["export", "--stat", "ml_symmetric", "--moments", "gaussian"],
        "mc": ["mc", "--stat", "mean", *gaussian, "--n", "5", "--reps", "500",
               "--grid", "-2:2:0.5", "--seed", "1", "--out", str(tmp_path / "mc.csv")],
        "bca": ["bca", "--stat", "mean", "--data", str(data), "--B", "99", "--seed", "1"],
    }


@pytest.mark.parametrize("command", ["expand", "accel", "cdf", "quantile", "export",
                                     "mc", "bca"])
def test_each_command_from_a_fresh_interpreter(command, tmp_path, capsys):
    argv = _commands(tmp_path)[command]
    proc = _fresh("-m", "edgeboot.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the same report as from this process, where every module is loaded
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["mc", "--reps", "50000001"],
     "--reps 50000001 is more than the limit of 50000000"),
    (["mc", "--grid", "3:1:1"], "bad grid spec '3:1:1'"),
    (["bca", "--B", "10000001"], "--B 10000001 is more than the limit of 10000000"),
    (["bca", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
])
def test_errors_of_the_numeric_commands_are_one_line(argv, message, tmp_path):
    (tmp_path / "data.csv").write_text("1.0\n2.0\n4.0\n")
    if argv[0] == "mc":
        argv = [*argv, "--moments", "gaussian", "--seed", "1", "--out", "x.csv"]
    else:
        argv = [*argv, "--data", "data.csv", "--seed", "1"]
    proc = _fresh("-m", "edgeboot.cli", *argv, "--stat", "mean", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in LAZY_NAMES.items()
                                          for n in names])
def test_lazy_names_are_the_module_attributes(module, name):
    assert getattr(edgeboot, name) is getattr(importlib.import_module(f"edgeboot.{module}"),
                                              name)
    assert name in dir(edgeboot)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        edgeboot.no_such_name  # noqa: B018
