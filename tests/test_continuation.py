import numpy as np
import pytest

from sparsa import continuation
from sparsa.continuation import ContinuationSchedule, solve_with_continuation
from sparsa.problems import OracleProblem, gen_bpdn
from sparsa.regularizers import L1Regularizer, soft_threshold
from sparsa.solver import SolverConfig, solve
from conftest import stationarity_residual


class TestSchedule:
    def test_strictly_decreasing_and_ends_at_target(self):
        sched = ContinuationSchedule(tau_target=1e-4)
        taus = sched.stages(scale=1.0)
        assert taus[-1] == 1e-4
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert taus[0] == pytest.approx(0.9)

    def test_degenerate_when_target_above_scale(self):
        sched = ContinuationSchedule(tau_target=2.0)
        assert sched.stages(scale=1.0) == [2.0]

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
        assert res.trace.summary.matvecs == 8

    def test_warm_start_objective_consistency(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=2, tau=1e-3)
        sched = ContinuationSchedule(tau_target=1e-3)
        cfg = SolverConfig(eps=1e-6)
        res = solve_with_continuation(prob, sched, cfg)
        taus = sched.stages(np.max(np.abs(prob.op.matrix.T @ prob.b)))
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

    def test_stage_costs_are_the_stage_summaries(self, monkeypatch):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=3, tau=1e-4)
        summaries = []

        def recording_solve(problem, cfg):
            result = solve(problem, cfg)
            summaries.append(result.trace.summary)
            return result

        monkeypatch.setattr(continuation, "solve", recording_solve)
        res = solve_with_continuation(
            prob, ContinuationSchedule(tau_target=1e-4), SolverConfig(eps=1e-6)
        )
        assert len(res.stages) == len(summaries) > 1
        for stage, own in zip(res.stages, summaries):
            assert (stage["iters"], stage["matvecs"]) == (own.iters, own.matvecs)
        sizing = 2  # one gradient at zero: a forward and an adjoint
        merged = res.trace.summary
        assert merged.matvecs == sizing + sum(s.matvecs for s in summaries) == prob.matvec_total
        assert merged.iters == sum(s.iters for s in summaries)
        assert merged.wall_time == sum(s.wall_time for s in summaries)
        last = summaries[-1]
        assert (merged.status, merged.final_obj, merged.final_residual) == (
            last.status, last.final_obj, last.final_residual
        )
        assert merged is not last

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
