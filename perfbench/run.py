"""Solve benchmark for the sparsa package.

Run from the repository root:

    python3 perfbench/run.py --workload bpdn-sweep --seed 0 --seconds 36 --trace 0

One run generates the workload's instances from ``--seed``, makes at least
two passes (generate every instance, solve every cell) and more while one
more fits in ``--seconds``, and checks every solve. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics; the traced passes record spans (see
``tracer.py``) and those of the last one are written to ``perfbench/out/``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The BLAS thread count is pinned to ``BLAS_THREADS`` before numpy is
imported, because it changes the solve path: counts compare only at equal
settings. That is why numpy, the package and the modules beside this one
are imported inside functions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"  # names the metrics and their units
SPANS_DIR = BENCH_DIR / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# The references are tight solves (make_reference.py), so a gap below
# -REF_SLACK means the reference, not the solve, is wrong.
REF_SLACK = 1e-6
# Replayed acceptance inequalities may be violated by rounding only.
ACCEPT_TOL = 1e-12
# Set-up is cheap and short, so every pass times it this many extra times.
EXTRA_SETUPS = 4
# At least this many passes: with --trace 1, one untraced and one traced.
MIN_PASSES = 2

# Counts that must repeat bit for bit across passes (traced or not).
EXACT_COUNTS = ("matvecs", "iters", "backtracks")


def prepare():
    """Pin the BLAS thread count and make the package importable.

    Must run before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    if not (SRC_DIR / "sparsa" / "__init__.py").is_file():
        raise FileNotFoundError(f"package sources not found under {SRC_DIR}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC_DIR))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas_library": blas_lib,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# -- one solve --------------------------------------------------------------


@dataclass
class Solve:
    instance: int
    label: str
    seconds: float = 0.0
    matvecs: int = 0
    iters: int = 0
    backtracks: int = 0
    final_obj: float = math.nan
    gap: float = math.nan  # (final_obj - reference) / max(1, |reference|)
    errors: list[str] = field(default_factory=list)

    def counts(self) -> tuple:
        return (self.instance, self.label) + tuple(getattr(self, c) for c in EXACT_COUNTS)


def stage_traces(result):
    """Split a continuation trace at stage boundaries (tau changes there)."""
    from sparsa.solver import Trace

    if not hasattr(result, "stages"):
        return [result.trace]
    traces, start = [], 0
    for i, stage in enumerate(result.stages):
        records = result.trace.records[start : start + stage["iters"]]
        last = i == len(result.stages) - 1
        traces.append(Trace(records, result.trace.summary if last else None))
        start += stage["iters"]
    return traces


def run_solve(instance: int, cell, problem, reference: float, gap_tol: float) -> Solve:
    """Solve one cell, timing only the solve call, then check the result."""
    import numpy as np
    from sparsa import continuation, solver

    out = Solve(instance, cell.label)
    op = problem.op
    before = op.forward_count + op.adjoint_count
    t0 = time.perf_counter()
    try:
        if cell.continuation:
            schedule = continuation.ContinuationSchedule(tau_target=cell.tau)
            result = continuation.solve_with_continuation(problem, schedule, cell.cfg)
        else:
            result = solver.solve(problem, cell.cfg)
    except Exception as exc:  # a failed solve is a measurement, not a crash
        out.seconds = time.perf_counter() - t0
        out.errors.append(f"raised {type(exc).__name__}: {exc}")
        return out
    out.seconds = time.perf_counter() - t0
    # per-solve deltas: the generators also apply the operator during set-up
    out.matvecs = op.forward_count + op.adjoint_count - before
    out.iters = len(result.trace.records)
    out.backtracks = sum(r.backtracks for r in result.trace.records)
    out.final_obj = result.trace.summary.final_obj

    if result.status != "converged":
        out.errors.append(f"status {result.status}")
    if not np.all(np.isfinite(result.x)):
        out.errors.append("non-finite x")
    violation = max(solver.acceptance_violation(t, cell.cfg.sigma) for t in stage_traces(result))
    if violation > ACCEPT_TOL:
        out.errors.append(f"acceptance violated by {violation:.3e}")
    # scaled as acceptance_violation scales: relative above 1, absolute below
    out.gap = (out.final_obj - reference) / max(1.0, abs(reference))
    if out.gap < -REF_SLACK:
        out.errors.append(f"objective {out.gap:.3e} below the reference optimum")
    elif not out.gap <= gap_tol:
        out.errors.append(f"objective {out.gap:.3e} above the reference optimum "
                          f"(tolerance {gap_tol:g})")
    return out


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    setup_s: list[float]
    solves: list[Solve]
    layers: dict | None = None

    @property
    def solve_s(self) -> float:
        return sum(s.seconds for s in self.solves)

    def total(self, count: str) -> int:
        return sum(getattr(s, count) for s in self.solves)


def generate(workload, instances) -> tuple[float, list]:
    problems = []
    t0 = time.perf_counter()
    for instance in instances:
        for cell in workload.cells:
            problems.append((instance, cell, workload.generate(instance, cell)))
    return time.perf_counter() - t0, problems


def run_pass(workload, instances, references, tracer=None) -> Pass:
    setup_s = [generate(workload, instances)[0] for _ in range(EXTRA_SETUPS)]
    seconds, problems = generate(workload, instances)
    setup_s.append(seconds)
    with tracer or contextlib.nullcontext():
        solves = [run_solve(instance, cell, problem, references[str(instance)][f"{cell.tau:g}"],
                            workload.gap_tol)
                  for instance, cell, problem in problems]
    return Pass(setup_s, solves, tracer.metrics() if tracer is not None else None)


def run_passes(workload, instances, references, seconds: float, traced: bool):
    """At least ``MIN_PASSES`` passes, and more while one more pass of the
    mean length still ends within ``seconds``.

    With ``traced``, untraced and traced passes alternate so that both see
    the same machine conditions. Returns the passes and the tracer of the
    last traced pass.
    """
    from tracer import Tracer

    passes, tracer = [], None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        if traced and len(passes) % 2:
            tracer = Tracer()
            passes.append(run_pass(workload, instances, references, tracer))
        else:
            passes.append(run_pass(workload, instances, references))
    return passes, tracer


def median_solve_s(passes: list[Pass]) -> float:
    """Sum over the solves of each solve's median time across the passes,
    so that a burst of machine load in one pass moves few of the terms."""
    return sum(statistics.median(times) for times in zip(*([s.seconds for s in p.solves] for p in passes)))


class CountMismatch(RuntimeError):
    """Exact counts differed between passes: the run is not repeatable."""


def check_exact_counts(passes: list[Pass]):
    first = [s.counts() for s in passes[0].solves]
    for i, p in enumerate(passes[1:], start=2):
        if [s.counts() for s in p.solves] != first:
            raise CountMismatch(f"per-solve counts of pass {i} differ from pass 1")
    traced = [p for p in passes if p.layers is not None]
    for i, p in enumerate(traced, start=1):
        lay = p.layers
        seen = {
            "matvecs": lay["linops.apply_calls"] + lay["linops.adjoint_calls"],
            "iters": lay["solver.iterations"],
            "backtracks": lay["solver.backtracks"],
            "tv_inner_iters": lay["regularizers.tv_inner_iters"],
        }
        expected = {c: p.total(c) for c in EXACT_COUNTS}
        expected["tv_inner_iters"] = traced[0].layers["regularizers.tv_inner_iters"]
        if seen != expected:
            raise CountMismatch(f"traced pass {i} counted {seen}, expected {expected}")


# -- reporting --------------------------------------------------------------


def layer_metrics(traced: list[Pass], untraced: list[Pass]) -> dict:
    """Median over traced passes; the overhead compares with untraced ones."""
    values = {name: statistics.median(p.layers[name] for p in traced)
              for name in traced[0].layers if name != "trace.root_s"}
    values["trace.overhead_frac"] = median_solve_s(traced) / median_solve_s(untraced) - 1.0
    # Each root span is the solve call run_solve times, so the layer self times
    # add up to the traced solve time by construction; this reports the rest.
    values["trace.residue_frac"] = statistics.median(
        (p.solve_s - p.layers["trace.root_s"]) / p.solve_s for p in traced
    )
    return values


def print_solves(p: Pass):
    totals: dict[int, list[int]] = {}
    for s in p.solves:
        verdict = "; ".join(s.errors) or "ok"
        print(f"solve instance={s.instance} cell={s.label} matvecs={s.matvecs} "
              f"iters={s.iters} backtracks={s.backtracks} obj={s.final_obj:.10g} "
              f"gap={s.gap:.3e} seconds={s.seconds:.4f} check={verdict}")
        total = totals.setdefault(s.instance, [0, 0])
        total[0] += s.matvecs
        total[1] += s.iters
    for instance, (matvecs, iters) in totals.items():
        print(f"instance {instance}: matvecs={matvecs} iters={iters}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparsa solve benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so that no workload's peak memory carries over
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    instances = workload.instance_seeds(args.seed)
    references = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    missing = [i for i in instances if str(i) not in references]
    if missing:
        print(f"error: no reference optima for instances {missing}", file=sys.stderr)
        return 2

    metrics = json.loads(BENCHMARK_JSON.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} instances {instances}")

    passes, tracer = run_passes(workload, instances, references, args.seconds, bool(args.trace))
    try:
        check_exact_counts(passes)
    except CountMismatch as exc:
        print(f"error: exact-count guard failed: {exc}", file=sys.stderr)
        return 3

    first = passes[0]
    print_solves(first)
    for i, p in enumerate(passes, start=1):
        kind = "traced" if p.layers is not None else "untraced"
        print(f"pass {i} {kind}: setup_s={statistics.median(p.setup_s):.6f} solve_s={p.solve_s:.6f}")
    attempted = sum(len(p.solves) for p in passes)
    failed = sum(bool(s.errors) for p in passes for s in p.solves)

    if args.trace:
        traced = [p for p in passes if p.layers is not None]
        values = layer_metrics(traced, [p for p in passes if p.layers is None])
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        print(f"spans of the last traced pass written to {spans_path.relative_to(REPO_ROOT)}")
    else:
        values = {
            "solve_s": median_solve_s(passes),
            "setup_s": statistics.median(t for p in passes for t in p.setup_s),
            "matvecs": first.total("matvecs"),
            "iters": first.total("iters"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    worst = max((s.gap for p in passes for s in p.solves if not math.isnan(s.gap)), default=math.nan)
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed} of {attempted} solves)")
    print(f"largest objective gap {worst:.3e} (tolerance {workload.gap_tol:g})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
