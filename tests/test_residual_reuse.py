"""A gradient reuses the residual its point's objective formed.

``solve`` evaluates ``f_value(x)``, which returns ``(f(x), r)``, and builds
the gradient at an accepted point as ``f_grad(x, r)``, one adjoint product.
The iterates must be those of a solve whose gradient forms ``A x - b``
again, bit for bit, and no residual may outlive the gradient it feeds.
"""

import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from sparsa.continuation import ContinuationSchedule, solve_with_continuation
from sparsa.problems import (
    LeastSquaresProblem,
    gen_bpdn,
    gen_deblur,
    gen_group,
    gen_tv_phantom,
)
from sparsa.problems import test_pattern as make_test_pattern
from sparsa.regularizers import L1Regularizer
from sparsa.solver import BacktrackLimitExceeded, NonFiniteObjective, SolverConfig, solve
from conftest import stage_traces


class RecomputingProblem(LeastSquaresProblem):
    """The reference: each evaluation forms A x - b itself, and hands none out."""

    def f_value(self, x):
        r = self.op.apply(x)
        r -= self.b
        return 0.5 * float(r @ r), None

    def f_grad(self, x, r=None):
        r = self.op.apply(x)
        r -= self.b
        return self.op.adjoint(r)


class WatchedProblem(LeastSquaresProblem):
    """Keeps a weak reference to each residual it hands out in ``residuals``.

    ``alive_at_call`` records, per ``f_value`` call, how many residuals
    handed out earlier are still alive when the call starts.
    """

    def f_value(self, x):
        self.alive_at_call.append(sum(ref() is not None for ref in self.residuals))
        value, r = super().f_value(x)
        self.residuals.append(weakref.ref(r))
        return value, r


def recast(cls, problem):
    return cls(**{f.name: getattr(problem, f.name) for f in fields(problem)})


def run(problem, cfg, continuation):
    if continuation:
        schedule = ContinuationSchedule(tau_target=problem.regularizer.tau)
        return solve_with_continuation(problem, schedule, cfg)
    return solve(problem, cfg)


FAMILIES = {
    "bpdn-32x128": (lambda: gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3), SolverConfig(eps=1e-6)),
    "bpdn-256x1024": (lambda: gen_bpdn(k=256, n=1024, spikes=40, seed=0, tau=1e-3), SolverConfig(eps=1e-5)),
    "group": (
        lambda: gen_group(seed=0, k=64, n=256, num_groups=16, active_groups=3),
        SolverConfig(eps=1e-6),
    ),
    "deblur": (
        lambda: gen_deblur(make_test_pattern(32, 32), mask_size=4, levels=2, seed=0, tau=5e-5),
        SolverConfig(eps=1e-4),
    ),
    "tv-phantom": (lambda: gen_tv_phantom(rows=16, cols=16, seed=0, tau=0.01), SolverConfig(eps=1e-5)),
}

VOLATILE = ("matvecs", "wall_time")  # the only record and summary fields allowed to differ


@pytest.mark.parametrize("continuation", [False, True], ids=["plain", "continuation"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_iterates_match_a_recomputing_gradient(family, continuation):
    make, cfg = FAMILIES[family]
    res = run(make(), cfg, continuation)
    ref = run(recast(RecomputingProblem, make()), cfg, continuation)

    assert res.x.dtype == ref.x.dtype and res.x.tobytes() == ref.x.tobytes()
    assert len(res.trace.records) == len(ref.trace.records) > 0
    for a, b in zip(res.trace.records, ref.trace.records):
        for f in fields(a):
            if f.name not in VOLATILE:
                assert getattr(a, f.name) == getattr(b, f.name), f.name
    for f in fields(res.trace.summary):
        if f.name not in VOLATILE:
            assert getattr(res.trace.summary, f.name) == getattr(ref.trace.summary, f.name), f.name
    assert [{**s, "matvecs": 0} for s in res.stages] == [{**s, "matvecs": 0} for s in ref.stages]
    if family == "bpdn-256x1024":
        assert [s["precision"] for s in res.stages][-2:] == ["float32", "float64"]
    assert (len(res.stages) > 1) == (continuation or family == "bpdn-256x1024")

    # a stage start costs an objective and its gradient (2 matvecs); each
    # trial one forward and each accepted one an adjoint. The reference pays
    # a forward more per gradient.
    for stage, ref_stage, trace in zip(res.stages, ref.stages, stage_traces(res)):
        iters = stage["iters"]
        trials = iters + sum(r.backtracks for r in trace.records)
        assert stage["matvecs"] == 2 + trials + iters
        assert ref_stage["matvecs"] == 3 + trials + 2 * iters
    sizing = 2 if continuation else 0
    assert res.trace.summary.matvecs == sum(s["matvecs"] for s in res.stages) + sizing


def arrays_held(problem) -> set[int]:
    """Identities of the arrays reachable through the problem's attributes."""
    held, seen, todo = set(), set(), [problem]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held.add(id(obj))
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return held


class PenalizedAwayFromZero(L1Regularizer):
    """An l1 weight whose value is ``penalty`` at every nonzero point."""

    def __init__(self, tau, penalty):
        super().__init__(tau)
        self.penalty = penalty

    def value(self, x):
        return super().value(x) if not np.any(x) else self.penalty


class TestNoResidualOutlivesItsGradient:
    def test_each_objective_call_finds_no_earlier_residual_alive(self):
        problem = recast(WatchedProblem, gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3))
        problem.residuals, problem.alive_at_call = [], []
        before = arrays_held(problem)
        res = solve(problem, SolverConfig(eps=1e-6))
        assert sum(r.backtracks for r in res.trace.records) > 0
        # a rejected trial's residual went before the next trial's product,
        # an accepted one's once its gradient was built
        calls = problem.matvec_total - len(res.trace.records) - 1  # all but the adjoints
        assert len(problem.residuals) == calls
        assert problem.alive_at_call == [0] * calls
        assert all(ref() is None for ref in problem.residuals)
        assert arrays_held(problem) == before

    @pytest.mark.parametrize("failure", [NonFiniteObjective, BacktrackLimitExceeded])
    def test_a_failed_solve_leaves_no_residual_on_the_problem(self, failure):
        # from x1 = 0 every trial is nonzero: its residual is formed, then
        # the objective is NaN, or finite but never acceptable
        problem = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3)
        away_from_zero = np.nan if failure is NonFiniteObjective else 1e300
        problem.regularizer = PenalizedAwayFromZero(problem.regularizer.tau, away_from_zero)
        before = arrays_held(problem)
        with pytest.raises(failure):
            solve(problem, SolverConfig(eps=1e-6))
        assert problem.matvec_total > 2  # the start's products and at least one trial's
        assert arrays_held(problem) == before


def test_traced_peak_is_no_higher_than_a_recomputing_gradients():
    # a 256x256 deblur solve with backtracking: holding a residual past its
    # gradient, or a rejected one into the next trial, raises the peak by a
    # residual (512 KiB). Each side runs once untraced first, so that lazy
    # set-up counts on neither; repeated runs of one side still differ by
    # about 1 KiB of Python objects, well inside the 16 KiB allowed.
    cfg = SolverConfig(eps=1e-4, max_iters=40)
    peaks = {}
    for cls in (RecomputingProblem, LeastSquaresProblem):
        problem = recast(cls, gen_deblur(make_test_pattern(256, 256), seed=0))
        solve(problem, cfg.replaced(max_iters=3))
        tracemalloc.start()
        try:
            res = solve(problem, cfg)
            peaks[cls] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r.backtracks for r in res.trace.records) > 0
    assert peaks[LeastSquaresProblem] <= peaks[RecomputingProblem] + problem.b.nbytes // 32
