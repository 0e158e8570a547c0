"""The benchmark's per-solve check runs against the package as it is.

``perfbench/run.py`` reads the config's ``sigma``, the result's ``status``
and its ``stages``. These tests call its ``run_solve`` on a small
spike-recovery cell, plain and with continuation, on two full-size ones,
whose solves switch from float32 to float64, and on a small deblur cell,
so a refactor that breaks one of those names,
or the blur/Haar operator the deblur workload solves through, fails here
rather than in a benchmark run. ``perfbench/make_reference.py`` passes the
TV regularizer's inner settings and ``problem.replaced``; its
``reference_optimum`` runs here on each workload at a tiny size.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sparsa import continuation, problems, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TAU = 1e-4


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    return run, workloads


def small_bpdn():
    return problems.gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=TAU)


@pytest.mark.parametrize("use_continuation", [False, True], ids=["plain", "continuation"])
def test_run_solve_passes_its_checks(perfbench, use_continuation):
    run, workloads = perfbench
    reference = solver.solve(small_bpdn(), solver.SolverConfig(eps=1e-10)).trace.summary.final_obj
    cell = workloads.Cell("gll", TAU, workloads.GLL, continuation=use_continuation)
    problem = small_bpdn()
    out = run.run_solve(0, cell, problem, reference, gap_tol=1e-3)
    assert out.errors == []
    assert out.matvecs > 0 and out.iters > 0
    assert abs(out.gap) <= 1e-3


@pytest.mark.parametrize(
    "use_continuation, matvecs", [(False, 4), (True, 6)], ids=["plain", "continuation"]
)
def test_run_solve_accepts_an_exact_optimum(perfbench, use_continuation, matvecs):
    # above ||A^T b||_inf the optimum is x = 0, the starting point itself
    run, workloads = perfbench
    plain = small_bpdn()
    tau = 2.0 * float(np.max(np.abs(plain.op.adjoint(plain.b))))
    problem = plain.replaced(regularizer=plain.regularizer.with_tau(tau))
    reference = 0.5 * float(plain.b @ plain.b)
    cell = workloads.Cell("gll", tau, workloads.GLL, continuation=use_continuation)
    out = run.run_solve(0, cell, problem, reference, gap_tol=1e-3)
    assert out.errors == []
    assert out.matvecs == matvecs


def test_stage_traces_split_a_continuation_run(perfbench):
    run, workloads = perfbench
    schedule = continuation.ContinuationSchedule(tau_target=TAU)
    result = continuation.solve_with_continuation(small_bpdn(), schedule, workloads.GLL)
    traces = run.stage_traces(result)
    assert len(traces) == len(result.stages) > 1
    assert sum(len(t.records) for t in traces) == len(result.trace.records)
    assert traces[-1].summary is result.trace.summary


@pytest.mark.parametrize("label", ["gll@0.001", "gll-cont@0.0001"])
def test_full_size_bpdn_cell_passes_its_checks(perfbench, label):
    # at 256x1024 every solve runs a float32 stage before its float64 one
    run, workloads = perfbench
    sweep = workloads.WORKLOADS["bpdn-sweep"]
    cell = next(c for c in sweep.cells if c.label == label)
    references = json.loads((run.REFERENCE_DIR / "bpdn-sweep.json").read_text())
    reference = references["0"][f"{cell.tau:g}"]
    out = run.run_solve(0, cell, sweep.generate(0, cell), reference, sweep.gap_tol)
    assert out.errors == []
    assert out.matvecs > 0 and out.iters > 0

    problem = sweep.generate(0, cell)
    if cell.continuation:
        schedule = continuation.ContinuationSchedule(tau_target=cell.tau)
        result = continuation.solve_with_continuation(problem, schedule, cell.cfg)
    else:
        result = solver.solve(problem, cell.cfg)
    traces = run.stage_traces(result)
    precisions = [s["precision"] for s in result.stages]
    assert precisions[-2:] == ["float32", "float64"]
    assert len(traces) == len(result.stages)
    assert [len(t.records) for t in traces] == [s["iters"] for s in result.stages]
    assert [t.summary for t in traces[:-1]] == [None] * (len(traces) - 1)
    assert traces[-1].summary is result.trace.summary


def test_deblur_cell_passes_its_checks(perfbench):
    run, workloads = perfbench
    deblur = workloads.WORKLOADS["deblur"]
    cell = deblur.cells[0]

    def small_deblur():
        image = problems.test_pattern(32, 32)
        return problems.gen_deblur(image, mask_size=4, levels=2, seed=0, tau=cell.tau)

    reference = solver.solve(small_deblur(), solver.SolverConfig(eps=1e-6)).trace.summary.final_obj
    out = run.run_solve(0, cell, small_deblur(), reference, gap_tol=deblur.gap_tol)
    assert out.errors == []
    assert out.matvecs > 0 and out.iters > 0


def test_size_rule_splits_the_image_workloads(perfbench):
    # deblur's 256x256 blur with Haar has a float32 stage; tv-phantom's
    # 128x128 partial Fourier operator has none at any size
    _, workloads = perfbench
    for name, staged in (("deblur", True), ("tv-phantom", False)):
        workload = workloads.WORKLOADS[name]
        problem = workload.generate(0, workload.cells[0])
        assert (problem.float32_stage() is not None) == staged, name


TINY = {
    "bpdn-sweep": (1e-3, lambda i, tau: problems.gen_bpdn(k=32, n=128, spikes=10, seed=i, tau=tau)),
    "tv-phantom": (0.01, lambda i, tau: problems.gen_tv_phantom(rows=16, cols=16, seed=i, tau=tau)),
    "deblur": (5e-5, lambda i, tau: problems.gen_deblur(
        problems.test_pattern(16, 16), mask_size=4, levels=2, seed=i, tau=tau)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_reference_maker_runs(perfbench, name):
    _, workloads = perfbench
    import make_reference

    tau, make = TINY[name]
    workload = dataclasses.replace(workloads.WORKLOADS[name], make=make)
    reference = make_reference.reference_optimum(workload, 0, tau)
    default = solver.solve(make(0, tau), solver.SolverConfig()).trace.summary.final_obj
    assert np.isfinite(reference)
    assert reference <= default
