from dataclasses import asdict, replace

import numpy as np
import pytest

from sparsa import solver
from sparsa.continuation import INNER_EPS, ContinuationSchedule, solve_with_continuation
from sparsa.harness import ExperimentSpec, Variant, run_experiment, run_one
from sparsa.problems import GeneratorSpec, OracleProblem, gen_bpdn
from sparsa.regularizers import L1Regularizer, soft_threshold
from sparsa.solver import (
    BacktrackLimitExceeded,
    SolverConfig,
    acceptance_violation,
    line_search_step,
    solve,
)
from conftest import stage_traces, stationarity_residual


def stitched_continuation(problem, schedule, cfg):
    """Continuation written as one warm-started ``solve`` per weight.

    Each weight's records are renumbered and their ``matvecs`` offset by
    what the sizing gradient and the earlier weights spent; the summary is
    the last weight's, with the run's iterations and matvecs. Returns
    ``(x, records, stages, summary)``; wall times are not stitched.
    """
    before = problem.matvec_total
    scale = float(np.max(np.abs(problem.f_grad(np.zeros_like(problem.x1)))))
    x, records, stages = problem.x1, [], []
    for tau, eps in schedule.weights(scale, cfg.eps):
        spent, offset = problem.matvec_total - before, len(records)
        result = solve(
            problem.replaced(regularizer=problem.regularizer.with_tau(tau), x1=x),
            cfg.replaced(eps=eps),
        )
        records += [replace(r, k=r.k + offset, matvecs=r.matvecs + spent) for r in result.trace.records]
        stages += result.stages
        x = result.x
    summary = replace(
        result.trace.summary, iters=len(records), matvecs=problem.matvec_total - before
    )
    return x, records, stages, summary


def without_wall_time(record) -> dict:
    fields = asdict(record)
    del fields["wall_time"]
    return fields


FAMILIES = [
    GeneratorSpec("bpdn", {"k": 16, "n": 64, "spikes": 4}),
    GeneratorSpec("group", {"k": 8, "n": 16, "num_groups": 4, "active_groups": 1}),
    GeneratorSpec("deblur", {"rows": 16, "cols": 16}),
    GeneratorSpec("tv-phantom", {"rows": 8, "cols": 8}),
    GeneratorSpec("bpdn", {"k": 256, "n": 1024, "tau": 1e-4}),  # float32, then float64
]


@pytest.mark.parametrize("continuation", [False, True], ids=["plain", "continuation"])
@pytest.mark.parametrize(
    "spec", FAMILIES, ids=["bpdn", "group", "deblur", "tv-phantom", "bpdn-256x1024"]
)
def test_every_family_accounts_for_every_stage(spec, continuation):
    problem = spec.make()
    before = problem.matvec_total
    res = run_one(problem, SolverConfig(), continuation)
    summary = res.trace.summary
    assert res.status == "converged"
    assert sum(s["iters"] for s in res.stages) == len(res.trace.records) == summary.iters
    sizing = 2 if continuation else 0  # the gradient at zero that sizes the weights
    assert sum(s["matvecs"] for s in res.stages) + sizing == summary.matvecs
    assert summary.matvecs == problem.matvec_total - before
    for trace in stage_traces(res):
        assert acceptance_violation(trace, SolverConfig.sigma) <= 1e-12


class TestSchedule:
    def test_strictly_decreasing_and_ends_at_target(self):
        sched = ContinuationSchedule(tau_target=1e-4)
        weights = sched.weights(scale=1.0, eps=1e-6)
        taus = [tau for tau, _ in weights]
        assert taus[-1] == 1e-4
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert taus[0] == pytest.approx(0.9)
        # every weight but the last stops at INNER_EPS, the last at the caller's eps
        assert weights == [(t, INNER_EPS) for t in taus[:-1]] + [(1e-4, 1e-6)]

    def test_degenerate_when_target_above_scale(self):
        sched = ContinuationSchedule(tau_target=2.0)
        assert sched.weights(scale=1.0, eps=1e-6) == [(2.0, 1e-6)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationSchedule(tau_target=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=str)
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="tau_target"):
            ContinuationSchedule(tau_target=bad)

    @pytest.mark.parametrize("bad", [True, "1e-3"], ids=repr)
    def test_non_number_target_rejected(self, bad):
        with pytest.raises(ValueError, match="tau_target must be a number"):
            ContinuationSchedule(tau_target=bad)


class TestSolveWithContinuation:
    def test_single_stage_matches_plain_solve(self):
        base = gen_bpdn(k=32, n=128, spikes=10, seed=0)
        # the first stage's weight itself, so the schedule collapses to the target
        tau = 0.9 * np.max(np.abs(base.op.matrix.T @ base.b))
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=0, tau=tau)
        res = solve_with_continuation(prob, ContinuationSchedule(tau_target=tau), SolverConfig(eps=1e-7))
        assert len(res.stages) == 1

        plain = gen_bpdn(k=32, n=128, spikes=10, seed=0, tau=tau)
        plain_res = solve(plain, SolverConfig(eps=1e-7))
        assert np.array_equal(res.x, plain_res.x)
        assert len(res.trace.records) == len(plain_res.trace.records)
        for a, b in zip(res.trace.records, plain_res.trace.records):
            assert a.obj == b.obj
            assert a.alpha_accepted == b.alpha_accepted

    def test_tau_above_gradient_scale_returns_zero(self):
        prob = gen_bpdn(k=16, n=32, spikes=4, seed=1)
        scale = np.max(np.abs(prob.op.matrix.T @ prob.b))
        prob = prob.replaced(regularizer=prob.regularizer.with_tau(2.0 * scale))
        sched = ContinuationSchedule(tau_target=2.0 * scale)
        res = solve_with_continuation(prob, sched, SolverConfig())
        assert np.all(res.x == 0)
        assert res.status == "converged"
        assert len(res.trace.records) == 1
        assert res.trace.summary.final_residual == 0.0
        # sizing gradient (2), the start's objective and gradient (2), one
        # trial (1) and its gradient's adjoint (1)
        assert res.trace.summary.matvecs == 6

    def test_warm_start_objective_consistency(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=2, tau=1e-3)
        sched = ContinuationSchedule(tau_target=1e-3)
        cfg = SolverConfig(eps=1e-6)
        res = solve_with_continuation(prob, sched, cfg)
        taus = [tau for tau, _ in sched.weights(np.max(np.abs(prob.op.matrix.T @ prob.b)), 1e-6)]
        assert [s["tau"] for s in res.stages] == taus
        # each stage's first record objective equals the previous stage's
        # final iterate re-evaluated under the new weight
        boundaries = np.cumsum([s["iters"] for s in res.stages])[:-1]
        for idx in boundaries:
            rec = res.trace.records[idx]
            prev = res.trace.records[idx - 1]
            assert rec.obj <= prev.phi_ref + 1e-12  # new weight only shrinks psi

    def test_cumulative_accounting(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3)
        sched = ContinuationSchedule(tau_target=1e-3)
        res = solve_with_continuation(prob, sched, SolverConfig(eps=1e-6))
        assert res.trace.summary.matvecs == prob.matvec_total
        assert res.trace.summary.iters == len(res.trace.records)
        ks = [r.k for r in res.trace.records]
        assert ks == list(range(1, len(ks) + 1))
        # stage increments plus the initial weight-sizing gradient cover the total
        assert sum(s["matvecs"] for s in res.stages) + 2 == prob.matvec_total

    @pytest.mark.parametrize(
        "make, precisions",
        [
            (lambda: gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-4), ["float64"]),
            (lambda: gen_bpdn(k=256, n=1024, spikes=40, seed=0, tau=1e-4), ["float32", "float64"]),
        ],
        ids=["bpdn-32x128", "bpdn-256x1024"],
    )
    def test_one_loop_matches_warm_started_solves(self, make, precisions):
        schedule, cfg = ContinuationSchedule(tau_target=1e-4), SolverConfig(eps=1e-6)
        res = solve_with_continuation(make(), schedule, cfg)
        x, records, stages, summary = stitched_continuation(make(), schedule, cfg)
        assert np.array_equal(res.x, x)
        assert res.stages == stages
        assert [s["precision"] for s in stages] == precisions * (len(stages) // len(precisions))
        assert len({s["tau"] for s in stages}) > 1
        assert len(res.trace.records) == len(records)
        for got, want in zip(res.trace.records, records):
            assert without_wall_time(got) == without_wall_time(want)
        assert without_wall_time(res.trace.summary) == without_wall_time(summary)

    def test_schedule_must_end_at_the_problem_weight(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3)
        with pytest.raises(ValueError, match=r"tau_target 0\.0001 .* tau 0\.001$"):
            solve_with_continuation(prob, ContinuationSchedule(tau_target=1e-4))
        assert prob.matvec_total == 0

    def test_failed_stage_keeps_its_cause(self, monkeypatch, tmp_path):
        taus = []  # the weights line_search_step has seen, in order

        def failing_step(x, g, phi_ref, alpha_seed, f_value, reg, *rest):
            if reg.tau not in taus:
                taus.append(reg.tau)
            if len(taus) == 2:
                raise BacktrackLimitExceeded("line search gave up")
            return line_search_step(x, g, phi_ref, alpha_seed, f_value, reg, *rest)

        monkeypatch.setattr(solver, "line_search_step", failing_step)
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-4)
        with pytest.raises(RuntimeError) as exc:
            solve_with_continuation(prob, ContinuationSchedule(tau_target=1e-4))
        message = (
            f"continuation weight 1 (tau={taus[1]:g}) failed: "
            "BacktrackLimitExceeded: line search gave up"
        )
        assert str(exc.value) == message
        assert isinstance(exc.value.__cause__, BacktrackLimitExceeded)

        taus.clear()
        spec = ExperimentSpec(
            generator=GeneratorSpec("bpdn", {"k": 32, "n": 128, "spikes": 10, "tau": 1e-4}, 3),
            variants=[Variant("c", continuation=True)],
        )
        _, manifest = run_experiment(spec, tmp_path)
        assert manifest["cells"][0]["error"] == f"RuntimeError: {message}"

    def test_iteration_cap_applies_to_each_weight(self):
        prob = gen_bpdn(k=256, n=1024, spikes=40, seed=1, tau=1e-4)
        res = solve_with_continuation(
            prob, ContinuationSchedule(tau_target=1e-4), SolverConfig(max_iters=4)
        )
        assert res.status == "iter-limit"
        # 2 matvecs at the start of a weight, then per iteration one trial
        # (no backtracks) and one adjoint for its gradient; the sizing gradient adds 2
        assert [(s["iters"], s["matvecs"], s["precision"]) for s in res.stages] == [
            (4, 10, "float32")
        ] * 7
        assert res.trace.summary.matvecs == 7 * 10 + 2 == 72

    def test_merged_columns_never_decrease(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-3)
        solve(prob, SolverConfig(eps=1e-6))  # earlier work on the same operator
        before = prob.matvec_total
        res = solve_with_continuation(
            prob, ContinuationSchedule(tau_target=1e-3), SolverConfig(eps=1e-6)
        )
        assert len(res.stages) > 1
        # per-call count: the sizing gradient plus every stage, nothing earlier
        assert res.trace.summary.matvecs == prob.matvec_total - before
        assert res.trace.summary.matvecs == sum(s["matvecs"] for s in res.stages) + 2
        matvecs = res.trace.matvec_values()
        walls = np.array([r.wall_time for r in res.trace.records])
        assert np.all(np.diff(matvecs) > 0)
        assert matvecs[-1] <= res.trace.summary.matvecs
        assert np.all(np.diff(walls) >= 0)
        assert walls[-1] <= res.trace.summary.wall_time

    def test_oracle_problem_with_known_l1_solution(self):
        # f(x) = 0.5 sum d_i (x_i - c_i)^2 with tau ||x||_1 is solved
        # coordinatewise by x_i = soft(c_i, tau / d_i)
        rng = np.random.default_rng(12)
        d = rng.uniform(0.5, 4.0, size=20)
        c = rng.standard_normal(20)
        tau = 1e-3
        prob = OracleProblem(
            value_fn=lambda x: 0.5 * float(np.sum(d * (x - c) ** 2)),
            grad_fn=lambda x: d * (x - c),
            regularizer=L1Regularizer(tau),
            x1=np.zeros(20),
        )
        res = solve_with_continuation(
            prob, ContinuationSchedule(tau_target=tau), SolverConfig(eps=1e-10)
        )
        assert len(res.stages) > 1
        assert res.stages[-1]["tau"] == tau
        assert res.status == "converged"
        assert np.max(np.abs(res.x - soft_threshold(c, tau / d))) <= 1e-8

    def test_beats_plain_solve_at_small_tau(self):
        wins = 0
        for seed in range(10):
            base = gen_bpdn(k=64, n=256, spikes=16, seed=seed)
            tau = 1e-4 * np.max(np.abs(base.op.matrix.T @ base.b))

            plain = gen_bpdn(k=64, n=256, spikes=16, seed=seed, tau=tau)
            solve(plain, SolverConfig(eps=1e-5))

            cont = gen_bpdn(k=64, n=256, spikes=16, seed=seed, tau=tau)
            solve_with_continuation(
                cont, ContinuationSchedule(tau_target=tau), SolverConfig(eps=1e-5)
            )
            if cont.matvec_total < plain.matvec_total:
                wins += 1
        assert wins >= 8

    def test_final_stage_honors_caller_tolerance(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=4, tau=5e-4)
        res = solve_with_continuation(
            prob, ContinuationSchedule(tau_target=5e-4), SolverConfig(eps=1e-6)
        )
        assert res.status == "converged"
        assert res.trace.records[-1].step_inf <= 1e-6  # the stop rule
        oracle = stationarity_residual(prob.regularizer, res.x, prob.f_grad(res.x))
        assert oracle <= res.trace.summary.final_residual + 1e-14
