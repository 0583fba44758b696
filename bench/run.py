"""edgeboot benchmark.

    python3 bench/run.py --workload exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10
    python3 bench/run.py --workload resample --seed 1 --seconds 10 --repeat 5

Run from the root of a checkout: the package is imported from ``src/``.
One run makes one untimed warm-up pass over the workload's operations, then
times whole passes while another fits in ``--seconds`` (at least one, and
the warm-up counts against the time), then checks the outputs and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``setup_s`` and ``wall_s`` are scaled to a
reference machine speed sampled while they run (``speed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes after the warm-up and reports the
per-layer metrics, the tracing overhead, and writes the spans to
``bench/out/``.  ``--repeat N`` runs N seeds in fresh interpreters and
prints each metric's median and quartiles; ``--workload all`` runs every
workload in turn, each in its own interpreter.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pool would otherwise start nproc threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("exact", "transcendental", "resample")
MODULES = ("expr", "algebra", "moments", "edgeworth", "rearrange", "bootstrap",
           "harness", "codegen", "config", "cli")
SETUP_RUNS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_kb": "kB"}


def import_edgeboot() -> dict:
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"edgeboot.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: edgeboot was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def measure_setup(configs: tuple[str, ...]) -> tuple[float, float]:
    """Median over fresh interpreters of the time to import edgeboot and load
    the workload's configs: (at the reference speed, as measured)."""
    code = ("import sys, json; sys.path.insert(0, {!r}); from speed import SpeedSampler\n"
            "with SpeedSampler() as clock:\n"
            "    sys.path.insert(0, {!r}); import edgeboot, edgeboot.cli\n"
            "    from edgeboot.config import load_config\n"
            "    [load_config(c) for c in {!r}]\n"
            "print(json.dumps([clock.scaled_s, clock.own_s]))").format(
                str(BENCH), str(SRC), configs)
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              capture_output=True, text=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(s for s, _ in samples),
            statistics.median(w for _, w in samples))


def one_pass(wl, mods, caches, tracer=None):
    """Run the workload's operations once; return (seconds, seconds at the
    reference speed or None when traced, results, operations)."""
    from speed import SpeedSampler
    from workloads import OpResult

    for cache in caches:  # a CLI user starts every command with empty caches
        cache.cache_clear()
    gc.collect()
    results: dict[str, OpResult] = {}
    ops = wl.ops()

    def run_ops():
        for op in ops:
            if tracer is not None:
                tracer.op += 1
                tracer.op_name = op.name
                span = tracer.open(op.name, "bench")
            t = time.perf_counter()
            try:
                out, ok, err = op.fn(), True, ""
            except Exception as exc:  # an operation that fails is counted, not fatal
                out, ok, err = "", False, f"{type(exc).__name__}: {exc}"[:300]
            seconds = time.perf_counter() - t
            if tracer is not None:
                tracer.close(span)
            results[op.name] = OpResult(op.name, seconds, ok, err, out)

    if tracer is None:
        with SpeedSampler() as clock:
            run_ops()
        return clock.own_s, clock.scaled_s, results, ops
    tracer.install(mods)
    start = time.perf_counter()
    run_ops()
    wall = time.perf_counter() - start
    tracer.uninstall()
    return wall, None, results, ops


def layer_metrics(tracer, traced: int, traced_wall: float, untraced_wall: float) -> dict:
    from tracing import LAYERS

    s = tracer.summary()
    inc, calls, attrs = s["inclusive"], s["calls"], s["attrs"]
    m = {
        "config.load_s": inc["config.load_config"],
        "expr.parse_s": inc["expr.parse"],
        "expr.print_s": inc["expr.pretty_print"],
        "expr.result_dag_nodes": tracer.printed_dag,
        "expr.result_tree_nodes": tracer.printed_tree,
        "algebra.differentiate_s": inc["algebra.differentiate"],
        "algebra.substitute_s": inc["algebra.substitute"],
        "algebra.eval_numeric_s": inc["algebra.eval_numeric"],
        "algebra.eval_numeric_calls": calls["algebra.eval_numeric"],
        "algebra.normal_form_s": inc["algebra._to_nf"],
        "algebra.canonical_s": inc["algebra.canonical"],
        "algebra.canonical_calls": calls["algebra.canonical"],
        "algebra.nf_terms": attrs["nf_terms"],
        "moments.cross_moment_s": inc["moments.cross_moment"],
        "moments.cross_moment_calls": calls["moments.cross_moment"],
        "edgeworth.build_model_s": inc["edgeworth.build_model"],
        "edgeworth.coeffs_s": inc["edgeworth.cumulant_coeffs"],
        "edgeworth.polys_s": inc["edgeworth.edgeworth_polys"] + inc["edgeworth.cornish_fisher_polys"],
        "edgeworth.accel_s": inc["edgeworth.accel_constant"],
        "codegen.emit_s": inc["codegen.emit_assignments"],
        "codegen.reimport_s": inc["codegen.reimport_check"],
        "harness.simulate_s": inc["harness.simulate_statistic_values"],
        "harness.compare_s": inc["harness.compare_and_emit"],
        "harness.excluded_draws": attrs["excluded_draws"],
        "bootstrap.resample_s": inc["bootstrap.resample_distribution"],
        "bootstrap.accel_plugin_s": inc["bootstrap.accel_plugin"],
        "bootstrap.interval_s": inc["bootstrap.bca_from_replicates"],
        "bootstrap.nan_replicates": attrs["nan_replicates"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s["self"][layer]
        m[f"{layer}.calls"] = s["layer_calls"][layer]
    m = {k: v / traced for k, v in m.items()}
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count"


def run_workload(args) -> int:
    mods = import_edgeboot()
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}"
    out.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](mods, args.seed, out)
    caches = (mods["moments"].raw_moment, mods["moments"].cross_moment)

    setup_s, setup_raw_s = measure_setup(wl.configs)
    tracer = Tracer() if args.trace else None
    walls, scaled, traced_walls, passes = [], [], [], []
    timed: list[dict] = []  # results of the timed untraced passes
    first_outputs = None
    changed: list[str] = []
    deadline = time.perf_counter() + args.seconds

    def run_pass(t):
        nonlocal first_outputs
        wall, at_ref, results, ops = one_pass(wl, mods, caches, t)
        passes.append((results, ops))
        if t is None and passes[1:]:
            timed.append(results)
        outputs = {n: r.output for n, r in results.items()}
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            changed.extend(n for n in outputs if outputs[n] != first_outputs.get(n))
        return wall, at_ref

    # The first pass warms up imports and caches and is not timed; it is
    # the one a CLI user's process would run, so the peak RSS is read there.
    warmup_wall, _ = run_pass(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Then whole rounds (one untraced pass, plus one traced pass when
    # tracing) while another round still fits in --seconds; at least one.
    while True:
        wall, at_ref = run_pass(None)
        walls.append(wall)
        scaled.append(at_ref)
        if tracer is not None:
            traced_walls.append(run_pass(tracer)[0])
        round_s = statistics.median(walls) + (statistics.median(traced_walls)
                                              if traced_walls else 0.0)
        if time.perf_counter() + round_s > deadline:
            break

    attempted = failed = 0
    problems = [f"output of {n} differs between passes" for n in sorted(set(changed))]
    for results, ops in passes:
        for op in ops:
            r = results[op.name]
            attempted += 1
            if not r.ok:
                failed += 1
                if op.expect_fail is None or not r.error.startswith(op.expect_fail):
                    problems.append(f"{op.name} failed: {r.error}")
    last_results, last_ops = passes[-1]
    if not problems:  # the checks read every operation's output
        try:
            problems += wl.check(last_results)
        except Exception as exc:  # a check that cannot run marks the run incorrect
            traceback.print_exc()
            problems.append(f"check raised {type(exc).__name__}: {exc}")

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
            "output_kb": sum(len(r.output) for r in last_results.values()) / 1000,
        }
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, len(traced_walls), statistics.median(traced_walls),
                                statistics.median(walls))
        units = {k: unit_of(k) for k in metrics}
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        mean_traced = sum(traced_walls) / len(traced_walls)
        if layer_self > mean_traced * (1 + 1e-9):
            problems.append(f"layer self times sum to {layer_self}, more than the "
                            f"traced pass {mean_traced}")

    print(f"workload {args.workload}  seed {args.seed}  passes 1 warm-up + {len(walls)} untraced"
          f"{f' + {len(traced_walls)} traced' if tracer else ''}  "
          f"attempted {attempted}  failed {failed}")
    print(f"pass walls (s): warm-up {warmup_wall:.3f} untraced " + " ".join(f"{w:.3f}" for w in walls)
          + (" traced " + " ".join(f"{w:.3f}" for w in traced_walls) if tracer else ""))
    print("pass at reference speed (s): " + " ".join(f"{w:.3f}" for w in scaled)
          + f"; setup {setup_s:.4f} (as measured {setup_raw_s:.4f})")
    print(f"{'operation':44s} {'median_s':>9s} {'ring':>10s}  status")
    for op in last_ops:
        times = [res[op.name].seconds for res in timed]
        r = last_results[op.name]
        ring = ",".join(sorted(tracer.rings[op.name])) if tracer is not None else ""
        status = "ok" if r.ok else ("known failure: " if op.expect_fail else "FAILED: ") + r.error
        print(f"{op.name:44s} {statistics.median(times):9.4f} {ring or '-':>10s}  {status[:100]}")
    cases = [wl.case_metrics(res) for res in timed]
    for name in sorted(cases[0]):
        value = statistics.median(c[name][0] for c in cases)
        print(f"case {name} = {value:.6g} {cases[0][name][1]}")
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    for k, v in metrics.items():
        print(f"metric {k} = {v:.6g} {units[k]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: {workload} seed {seed} exited with {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for w in WORKLOAD_NAMES:
        text, res = child(w, args.seed, args.seconds, args.trace)
        print(text)
        print(f"== {w}: correct {res['correct']}  attempted {res['attempted']}  "
              f"failed {res['failed']}")
        for k, m in res["metrics"].items():
            print(f"== {w}: {k} = {m['value']:.6g} {m['unit']}")
        print()
        ok = ok and res["correct"]
    return 0 if ok else 1


def run_repeat(args) -> int:
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for w in names:
        runs = []
        for i in range(args.repeat):
            text, res = child(w, args.seed + i, args.seconds, args.trace)
            for line in text.splitlines():  # "case <name> = <value> <unit>"
                if line.startswith("case "):
                    name, _, rest = line[5:].partition(" = ")
                    value, unit = rest.split()
                    res["metrics"][name] = {"value": float(value), "unit": unit}
            runs.append(res)
            print(f"{w} seed {args.seed + i}: correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)
        ok = ok and all(r["correct"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{w}: failed share per run {shares}")
        print(f"{w}: {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
        for k in runs[0]["metrics"]:
            vals = [r["metrics"][k]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w}: {k:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds in fresh interpreters and summarize")
    args = ap.parse_args()
    if not (SRC / "edgeboot" / "__init__.py").is_file():
        sys.exit(f"bench: no edgeboot package under {SRC}; run from a repository checkout")
    if args.repeat:
        return run_repeat(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
