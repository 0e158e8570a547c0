"""The benchmark tracer's counts close against the package's own counters.

``perfbench/tracer.py`` patches the solve-path names of the package from
outside. These tests run small solves under it, called through the module
attributes as ``perfbench/run.py`` calls them, so a refactor that moves one
of the patched names breaks here rather than in a benchmark run.
"""

import functools
from pathlib import Path

import pytest

from sparsa import continuation, harness, linops, problems, regularizers, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def patched_names():
    """(owner, attribute) of every name the tracer replaces."""
    names = [
        (cls, attr)
        for cls in vars(linops).values()
        if isinstance(cls, type) and issubclass(cls, linops.LinearOperator)
        for attr in ("apply", "adjoint")
        if attr in cls.__dict__
    ]
    names += [
        (cls, attr)
        for cls in vars(regularizers).values()
        if isinstance(cls, type) and issubclass(cls, regularizers.Regularizer)
        for attr in ("value", "prox")
        if attr in cls.__dict__
    ]
    names += [
        (cls, attr)
        for cls in (problems.LeastSquaresProblem, problems.OracleProblem)
        for attr in ("f_value", "f_grad")
    ]
    names += [(regularizers, "tv_prox"), (regularizers, "tv_divergence")]
    names += [(solver, "line_search_step")]
    names += [(module, "solve") for module in (solver, continuation, harness)]
    names += [(module, "solve_with_continuation") for module in (continuation, harness)]
    return names


def test_every_regularizer_kind_defines_its_own_prox_and_value():
    # the tracer wraps prox and value per class and reads the TV fallbacks
    # from TVIsoRegularizer.prox's own return; a prox inherited from the
    # base class would escape it and leave those metrics at 0
    kinds = [
        cls for cls in vars(regularizers).values()
        if isinstance(cls, type) and issubclass(cls, regularizers.Regularizer)
        and cls is not regularizers.Regularizer
    ]
    assert kinds
    for cls in kinds:
        assert "prox" in cls.__dict__ and "value" in cls.__dict__, cls.__name__


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    return Tracer


def bpdn():
    problem = problems.gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3)
    return problem, lambda: solver.solve(problem, solver.SolverConfig(eps=1e-6))


def bpdn_continuation():
    problem = problems.gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-4)
    schedule = continuation.ContinuationSchedule(tau_target=1e-4)
    return problem, lambda: continuation.solve_with_continuation(
        problem, schedule, solver.SolverConfig(eps=1e-6)
    )


def tv_phantom():
    problem = problems.gen_tv_phantom(rows=16, cols=16, seed=0, tau=0.01)
    return problem, lambda: solver.solve(problem, solver.SolverConfig(eps=1e-5))


def deblur():
    image = problems.test_pattern(32, 32)
    problem = problems.gen_deblur(image, mask_size=4, levels=2, seed=0, tau=5e-5)
    return problem, lambda: solver.solve(problem, solver.SolverConfig(eps=1e-4))


@pytest.mark.parametrize(
    "make", [bpdn, bpdn_continuation, tv_phantom, deblur], ids=lambda f: f.__name__
)
def test_traced_counts_match_package_counters(tracer_cls, make, monkeypatch):
    problem, run = make()
    op = problem.op
    inner_steps = []  # dual steps per tv_prox call: each runs its max_iters
    untraced_tv_prox = regularizers.tv_prox

    @functools.wraps(untraced_tv_prox)
    def tv_prox_with_budget(*args, **kwargs):
        inner_steps.append(kwargs["max_iters"])
        return untraced_tv_prox(*args, **kwargs)

    monkeypatch.setattr(regularizers, "tv_prox", tv_prox_with_budget)
    before = op.forward_count + op.adjoint_count
    with tracer_cls() as tracer:
        result = run()
    m = tracer.metrics()
    assert m["linops.apply_calls"] + m["linops.adjoint_calls"] == (
        op.forward_count + op.adjoint_count - before
    ) > 0
    assert m["solver.iterations"] == len(result.trace.records) > 0
    if hasattr(result, "stages"):
        assert m["continuation.stages"] == len(result.stages) > 1
    # the tracer counts tv_divergence calls: one per dual step plus one per call
    assert m["regularizers.tv_inner_iters"] == sum(inner_steps)
    assert (sum(inner_steps) > 0) == (make is tv_phantom)
    if make is tv_phantom:  # every TV prox span wraps exactly one tv_prox call
        assert m["regularizers.prox_calls"] == len(inner_steps) > 0
    if make is deblur:  # one span per application: no operator span inside another
        names = [span[0] for span in tracer.spans]
        assert not any(
            name.startswith("linops.") and parent >= 0 and names[parent].startswith("linops.")
            for name, _start, _end, parent, _note in tracer.spans
        )


def test_uninstall_restores_every_patched_name(tracer_cls):
    names = patched_names()
    originals = [owner.__dict__[attr] for owner, attr in names]
    tracer = tracer_cls().install()
    try:
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(names, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(names, originals))
