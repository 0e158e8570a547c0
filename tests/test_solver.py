import json
import math
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sparsa import regularizers
from sparsa.continuation import ContinuationSchedule, solve_with_continuation
from sparsa.problems import (
    LeastSquaresProblem,
    OracleProblem,
    gen_bpdn,
    gen_deblur,
    gen_tv_phantom,
)
from sparsa.problems import test_pattern as make_test_pattern
from sparsa.regularizers import GroupL2Regularizer, L1Regularizer
from sparsa.solver import (
    BacktrackLimitExceeded,
    NonFiniteObjective,
    SolverConfig,
    Trace,
    acceptance_violation,
    adaptive_reference,
    bb_seed,
    cyclic_seed,
    gll_reference,
    line_search_step,
    solve,
)
from conftest import (
    IdentityOperator,
    adaptive_reference_oracle,
    running_window_max,
    stationarity_residual,
)

# Reference optimum for the 32x128 spike-recovery instance with seed 7,
# computed by 10^6 iterations of fixed-step iterative shrinkage with step
# 1/||A||^2 (regenerated by test_ista_oracle_regeneration below).
ISTA_ORACLE_OBJ = 0.27368940380462253

LINE_SEARCH_CONSTANTS = [
    "eta", "sigma", "alpha_min", "alpha_max", "memory_M",
    "adapt_L", "adapt_Delta", "max_backtracks", "first_seed",
]


def quadratic_problem(center=3.0):
    return OracleProblem(
        value_fn=lambda x: 0.5 * (x[0] - center) ** 2,
        grad_fn=lambda x: np.array([x[0] - center]),
        regularizer=L1Regularizer(0.0),
        x1=np.array([0.0]),
    )


class TestBbSeed:
    def test_ratio(self):
        cfg = SolverConfig()
        assert bb_seed([1.0, 0.0], [2.0, 0.0], cfg) == pytest.approx(2.0)

    def test_negative_curvature_gives_alpha_min(self):
        cfg = SolverConfig()
        assert bb_seed([1.0], [-1.0], cfg) == cfg.alpha_min

    def test_zero_s_gives_alpha_min(self):
        cfg = SolverConfig()
        assert bb_seed([0.0, 0.0], [1.0, 1.0], cfg) == cfg.alpha_min

    def test_clamped_at_alpha_max(self):
        cfg = SolverConfig()
        assert bb_seed([1e-20], [1e20], cfg) == 1e30

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^y: expected vector of length 1"):
            bb_seed([1.0], [1.0, 2.0], SolverConfig())


class TestCyclicSeed:
    def test_cycle_one_recomputes_every_iteration(self):
        cfg = SolverConfig()
        s, y = np.array([1.0]), np.array([2.0])
        for k in range(2, 6):
            assert cyclic_seed(k, cfg, stored=99.0, s=s, y=y, cycle_m=1) == 2.0

    def test_cycle_three_reuses_stored_value(self):
        cfg = SolverConfig()
        s, y = np.array([1.0]), np.array([2.0])
        fresh = cyclic_seed(4, cfg, stored=99.0, s=s, y=y, cycle_m=3)
        assert fresh == 2.0  # start of the second cycle recomputes
        for k in (5, 6):
            assert cyclic_seed(k, cfg, stored=fresh, s=s, y=y, cycle_m=3) == fresh

    def test_first_iteration_without_history_uses_fallback(self):
        cfg = SolverConfig()
        assert cyclic_seed(1, cfg, stored=50.0, s=None, y=None, cycle_m=3) == 1.0

    def test_config_derives_cycle_from_tau(self):
        cfg = SolverConfig()
        assert cfg.effective_cycle_m(0.5) == 1
        assert cfg.effective_cycle_m(1e-2) == 1
        assert cfg.effective_cycle_m(9e-3) == 3
        assert SolverConfig(cycle_m=5).effective_cycle_m(0.5) == 5


class TestReferenceValues:
    def test_gll_is_window_max(self):
        assert gll_reference([5.0, 3.0, 4.0]) == 5.0

    def test_gll_single_entry(self):
        assert gll_reference([7.0]) == 7.0

    def test_gll_memory_one_is_current_objective(self):
        assert gll_reference([4.2]) == 4.2

    def test_adaptive_first_iteration_is_initial_objective(self):
        cfg = SolverConfig(ref_policy="adaptive")
        assert adaptive_reference(1, [10.0], None, 10.0, cfg) == 10.0

    def test_adaptive_resets_to_window_max_on_schedule(self):
        cfg = SolverConfig(ref_policy="adaptive")
        objs = [10.0, 9.0, 8.0, 7.0]
        # k = L hits the modular reset and returns exactly the window max
        assert adaptive_reference(4, objs, 9.5, 9.0, cfg) == 9.0

    def test_adaptive_keeps_previous_reference_between_resets(self):
        cfg = SolverConfig(ref_policy="adaptive")
        objs = [10.0, 6.0, 5.0]
        assert adaptive_reference(3, objs, 9.0, 7.0, cfg) == 9.0

    def test_adaptive_stall_trigger_forces_reset(self):
        cfg = SolverConfig(ref_policy="adaptive")
        objs = [9.0, 9.0 - 1e-9, 9.0 - 2e-9]  # decrease over the window below threshold
        assert adaptive_reference(3, objs, 9.8, 9.0 - 1e-9, cfg) == 9.0 - 1e-9


class TestAdaptiveReferenceFromWindow:
    """The solver keeps only the last ``memory_M`` objectives; the adaptive
    reference must still equal the one computed from the full history."""

    def test_window_holds_what_the_reference_reads(self):
        cfg = SolverConfig()
        assert cfg.memory_M >= cfg.adapt_L + 1

    def test_first_seed_needs_no_clamp(self):
        cfg = SolverConfig()
        assert cfg.alpha_min <= cfg.first_seed <= cfg.alpha_max

    @staticmethod
    def assert_matches_oracle(records, cfg):
        objs = [r.obj for r in records]
        refs = [r.phi_ref for r in records]
        assert refs == adaptive_reference_oracle(objs, cfg.adapt_L, cfg.adapt_Delta, cfg.memory_M)

    def test_plain_bpdn(self):
        cfg = SolverConfig(ref_policy="adaptive", eps=1e-7)
        res = solve(gen_bpdn(k=32, n=128, spikes=10, seed=4, tau=1e-3), cfg)
        assert len(res.trace.records) > cfg.memory_M
        self.assert_matches_oracle(res.trace.records, cfg)

    def test_each_continuation_stage(self):
        cfg = SolverConfig(ref_policy="adaptive", eps=1e-6)
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=4, tau=1e-4)
        res = solve_with_continuation(prob, ContinuationSchedule(tau_target=1e-4), cfg)
        assert len(res.stages) > 1
        start = 0
        for stage in res.stages:
            self.assert_matches_oracle(res.trace.records[start : start + stage["iters"]], cfg)
            start += stage["iters"]
        assert start == len(res.trace.records)

    def test_tv_phantom(self):
        cfg = SolverConfig(ref_policy="adaptive", eps=1e-5)
        res = solve(gen_tv_phantom(rows=16, cols=16, seed=0, tau=0.01), cfg)
        assert len(res.trace.records) > cfg.memory_M
        self.assert_matches_oracle(res.trace.records, cfg)


class TestLineSearch:
    def test_accepts_first_trial_on_easy_quadratic(self):
        cfg = SolverConfig()
        prob = quadratic_problem(center=1.0)
        x = np.array([0.0])
        g = np.array([-1.0])
        z, obj, alpha, j, step, step_sq = line_search_step(
            x, g, phi_ref=0.5, alpha_seed=1.0, f_value=prob.f_value,
            reg=L1Regularizer(0.0), cfg=cfg,
        )
        assert z[0] == pytest.approx(0.5)
        assert obj == pytest.approx(0.125)
        assert alpha == 1.0
        assert j == 0
        assert np.array_equal(step, z - x)
        assert step_sq == float(step @ step)

    def test_fixed_point_at_minimizer(self):
        cfg = SolverConfig()
        prob = OracleProblem(
            value_fn=lambda x: 0.5 * x[0] ** 2,
            grad_fn=lambda x: np.array([x[0]]),
            regularizer=L1Regularizer(1.0),
            x1=np.array([0.0]),
        )
        x = np.array([0.0])
        z, obj, alpha, j, _, _ = line_search_step(
            x, np.array([0.0]), phi_ref=0.0, alpha_seed=1.0,
            f_value=prob.f_value, reg=prob.regularizer, cfg=cfg,
        )
        assert np.array_equal(z, x)

    def test_backtrack_count_matches_exhaustive_scan(self):
        # stiff 1-D quadratic from a deliberately tiny seed
        cfg = SolverConfig()
        seed = 1e-3
        x0, g0, phi0 = 1.0, 100.0, 50.0

        expected_j = None
        for j in range(61):
            alpha = seed * cfg.eta**j
            u = x0 - g0 / (2 * alpha)
            if 0.5 * (10 * u) ** 2 <= phi0 - cfg.sigma * alpha * (u - x0) ** 2:
                expected_j = j
                break

        z, obj, alpha, j, _, _ = line_search_step(
            np.array([x0]), np.array([g0]), phi_ref=phi0, alpha_seed=seed,
            f_value=lambda x: 0.5 * (10 * x[0]) ** 2, reg=L1Regularizer(0.0), cfg=cfg,
        )
        assert j == expected_j

    def test_backtrack_limit_exceeded(self):
        cfg = SolverConfig()
        # an "objective" that never satisfies the acceptance test
        with pytest.raises(BacktrackLimitExceeded):
            line_search_step(
                np.array([1.0]), np.array([1.0]), phi_ref=0.0, alpha_seed=1.0,
                f_value=lambda x: 1.0, reg=L1Regularizer(0.0), cfg=cfg,
            )

    def test_non_finite_objective_raises(self):
        cfg = SolverConfig()
        with pytest.raises(NonFiniteObjective):
            line_search_step(
                np.array([1.0]), np.array([1.0]), phi_ref=1.0, alpha_seed=1.0,
                f_value=lambda x: float("nan"), reg=L1Regularizer(0.0), cfg=cfg,
            )


class TestSolve:
    def test_unconstrained_quadratic(self):
        res = solve(quadratic_problem(3.0), SolverConfig(eps=1e-10))
        assert res.status == "converged"
        assert res.x[0] == pytest.approx(3.0, abs=1e-8)

    def test_identity_data_term_recovers_soft_threshold(self):
        prob = LeastSquaresProblem(
            op=IdentityOperator(4),
            b=np.array([2.0, 0.5, -2.0, 0.0]),
            regularizer=L1Regularizer(1.0),
            x1=np.zeros(4),
        )
        res = solve(prob, SolverConfig(eps=1e-10))
        assert np.allclose(res.x, [1.0, 0.0, -1.0, 0.0], atol=1e-8)

    def test_matches_long_run_shrinkage_oracle(self):
        prob = gen_bpdn(k=32, n=128, spikes=16, seed=7)
        res = solve(prob, SolverConfig(eps=1e-9))
        assert res.status == "converged"
        rel = abs(res.trace.summary.final_obj - ISTA_ORACLE_OBJ) / ISTA_ORACLE_OBJ
        assert rel <= 1e-7

    @pytest.mark.slow
    def test_ista_oracle_regeneration(self):
        prob = gen_bpdn(k=32, n=128, spikes=16, seed=7)
        A = prob.op.matrix
        b = prob.b
        tau = prob.regularizer.tau
        step = 1.0 / np.linalg.norm(A, 2) ** 2
        AtA = A.T @ A
        Atb = A.T @ b
        x = np.zeros(128)
        for _ in range(1_000_000):
            v = x - step * (AtA @ x - Atb)
            x = np.sign(v) * np.maximum(np.abs(v) - step * tau, 0.0)
        obj = 0.5 * float(np.sum((A @ x - b) ** 2)) + tau * float(np.sum(np.abs(x)))
        assert obj == pytest.approx(ISTA_ORACLE_OBJ, rel=1e-12)

    def test_stationary_status_when_started_at_optimum(self):
        prob = LeastSquaresProblem(
            op=IdentityOperator(2),
            b=np.array([0.1, -0.1]),
            regularizer=L1Regularizer(1.0),
            x1=np.zeros(2),  # optimum: threshold dominates the gradient
        )
        res = solve(prob, SolverConfig())
        # the repeated iterate passes the stop test with step 0
        assert res.status == "converged"
        assert len(res.trace.records) == 1
        assert np.array_equal(res.x, np.zeros(2))
        assert res.trace.summary.final_residual == 0.0
        assert res.trace.summary.matvecs == 6

    def test_iter_limit_status(self):
        res = solve(quadratic_problem(), SolverConfig(eps=1e-14, max_iters=3))
        assert res.status == "iter-limit"
        assert len(res.trace.records) == 3

    def test_non_finite_start_rejected(self):
        prob = quadratic_problem()
        prob.x1 = np.array([np.nan])
        with pytest.raises(ValueError):
            solve(prob, SolverConfig())

    def test_objectives_never_exceed_initial_value(self):
        for seed in range(5):
            prob = gen_bpdn(k=32, n=128, spikes=10, seed=seed)
            res = solve(prob, SolverConfig(eps=1e-7))
            objs = res.trace.objective_values()
            assert np.all(objs <= objs[0] + 1e-12 * max(1.0, abs(objs[0])))

    def test_acceptance_inequality_replay(self):
        for policy in ("gll-max", "adaptive"):
            prob = gen_bpdn(k=32, n=128, spikes=10, seed=3)
            cfg = SolverConfig(ref_policy=policy, eps=1e-7)
            res = solve(prob, cfg)
            assert acceptance_violation(res.trace, cfg.sigma) <= 1e-10

    def test_gll_window_max_nonincreasing(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=1)
        cfg = SolverConfig(ref_policy="gll-max", eps=1e-7)
        res = solve(prob, cfg)
        phimax = running_window_max(res.trace.objective_values(), cfg.memory_M)
        assert np.all(np.diff(phimax) <= 0)

    def test_reference_between_current_and_initial_objective(self):
        for policy in ("gll-max", "adaptive"):
            prob = gen_bpdn(k=32, n=128, spikes=10, seed=2)
            res = solve(prob, SolverConfig(ref_policy=policy, eps=1e-7))
            objs = [r.obj for r in res.trace.records]
            refs = [r.phi_ref for r in res.trace.records]
            assert all(ref >= ob for ob, ref in zip(objs, refs))
            assert all(ref <= objs[0] + 1e-12 for ref in refs)

    def test_adaptive_reset_in_every_window(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=4)
        cfg = SolverConfig(ref_policy="adaptive", eps=1e-7)
        res = solve(prob, cfg)
        objs = res.trace.objective_values()
        phimax = running_window_max(objs, cfg.memory_M)
        at_max = [rec.phi_ref <= phimax[i] + 1e-12 for i, rec in enumerate(res.trace.records)]
        L = cfg.adapt_L
        for start in range(len(at_max) - L + 1):
            assert any(at_max[start : start + L])

    def test_alpha_bounds(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=5)
        cfg = SolverConfig(eps=1e-7)
        res = solve(prob, cfg)
        for rec in res.trace.records:
            assert cfg.alpha_min <= rec.alpha_seed <= cfg.alpha_max
            assert rec.alpha_accepted <= cfg.eta**cfg.max_backtracks * cfg.alpha_max
            assert rec.alpha_accepted >= cfg.alpha_min

    def test_deterministic_traces(self):
        def run():
            prob = gen_bpdn(k=32, n=128, spikes=10, seed=6)
            return solve(prob, SolverConfig(eps=1e-7))

        r1, r2 = run(), run()
        assert len(r1.trace.records) == len(r2.trace.records)
        for a, b in zip(r1.trace.records, r2.trace.records):
            for field in ("k", "obj", "phi_ref", "alpha_seed", "alpha_accepted",
                          "backtracks", "step_norm", "step_inf", "matvecs"):
                assert getattr(a, field) == getattr(b, field)
        assert np.array_equal(r1.x, r2.x)

    def test_stored_objective_matches_recomputation(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=8)
        res = solve(prob, SolverConfig(eps=1e-7))
        recomputed = prob.f_value(res.x) + prob.regularizer.value(res.x)
        final = res.trace.summary.final_obj
        assert abs(recomputed - final) <= 1e-12 * max(1.0, abs(final))

    def test_matvec_accounting(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=9)
        res = solve(prob, SolverConfig(eps=1e-7))
        iters = len(res.trace.records)
        backtracks = sum(r.backtracks for r in res.trace.records)
        # start-up: 1 objective (1 fwd) + 1 gradient (2); per iteration: one
        # accepted trial objective (1 fwd) + backtrack objectives + gradient (2)
        trials = iters + backtracks
        expected = 3 + trials + 2 * iters
        assert prob.matvec_total == expected

    def test_matvecs_count_this_solve_only(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=9)
        first = solve(prob, SolverConfig(eps=1e-7))
        second = solve(prob, SolverConfig(eps=1e-7))
        assert first.trace.summary.matvecs == second.trace.summary.matvecs > 0
        assert second.trace.matvec_values().tolist() == first.trace.matvec_values().tolist()
        assert prob.matvec_total == 2 * first.trace.summary.matvecs


# gll at eps 1e-6 on the 32x32 phantom, seed 3: with a fixed TV inner budget
# of 40 dual steps at tol 1e-5 it ran 3,000 iterations (31,669 matvecs)
# without converging; the growing budget, starting at 8 steps, converges in
# about 550 and grows the cap to its ceiling of 640 on the way.
RUNAWAY_CFG = SolverConfig(ref_policy="gll-max", cycle_m=1, eps=1e-6, max_iters=1000)


@pytest.fixture(scope="module")
def runaway_solve():
    """The runaway case, with the keywords of every ``tv_prox`` call it made."""
    calls = []
    tv_prox = regularizers.tv_prox

    def recorder(*args, **kwargs):
        calls.append({k: v for k, v in kwargs.items() if k == "max_iters"})
        return tv_prox(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "tv_prox", recorder)
        result = solve(gen_tv_phantom(rows=32, cols=32, seed=3), RUNAWAY_CFG)
    return result, calls


class TestTvInnerBudget:
    def test_runaway_phantom_converges(self, runaway_solve):
        result, _ = runaway_solve
        assert result.status == "converged"

    def test_budget_reaches_tv_prox_as_keywords(self, runaway_solve):
        # perfbench's tracer reads kwargs["max_iters"] to count capped calls
        _, calls = runaway_solve
        assert calls and all(set(c) == {"max_iters"} for c in calls)
        budgets = [c["max_iters"] for c in calls]
        assert budgets[0] == 8
        ceiling = regularizers.TVProxState.MAX_ITERS_CEILING
        for cap, next_cap in zip(budgets, budgets[1:]):
            # a doubling past the ceiling is clamped to it (512 -> 640)
            assert next_cap in (cap, min(2 * cap, ceiling))
        assert 8 < max(budgets) <= ceiling

    @pytest.mark.parametrize("instance", [0, 2, 4])
    def test_default_budget_reaches_reference(self, instance):
        # the benchmark's tv-phantom cell; a start budget of 4 steps reads
        # a gap of 1.04e-4 on instance 4, and instance 2 holds the pool's
        # worst gap with the float32 dual loop, about 4.0e-5
        problem = gen_tv_phantom(rows=128, cols=128, seed=instance, tau=0.01)
        result = solve(problem, SolverConfig(eps=1e-5))
        references = Path(__file__).resolve().parents[1] / "perfbench/reference/tv-phantom.json"
        reference = json.loads(references.read_text())[str(instance)]["0.01"]
        assert result.status == "converged"
        gap = (result.trace.summary.final_obj - reference) / max(1.0, abs(reference))
        assert gap <= 1e-4

    def test_budget_is_per_solve(self):
        # one growth step in this run: a budget kept across solves would
        # change the second trace
        problem = gen_tv_phantom(rows=16, cols=16, seed=1)
        cfg = SolverConfig(ref_policy="gll-max", cycle_m=1, eps=1e-6)
        first, second = solve(problem, cfg), solve(problem, cfg)
        assert any(r.backtracks >= 3 for r in first.trace.records)
        assert len(first.trace.records) == len(second.trace.records)
        for a, b in zip(first.trace.records, second.trace.records):
            assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)
        assert replace(first.trace.summary, wall_time=0.0) == replace(
            second.trace.summary, wall_time=0.0
        )
        assert np.array_equal(first.x, second.x)


class TestStationarityResidual:
    """The closed-form oracle that the solver's certificate is checked against."""

    def test_zero_at_optimal_support_point(self):
        reg = L1Regularizer(1.0)
        assert stationarity_residual(reg, [1.0], [-1.0]) == 0.0

    def test_zero_inside_subdifferential_at_origin(self):
        reg = L1Regularizer(1.0)
        assert stationarity_residual(reg, [0.0], [0.5]) == 0.0

    def test_excess_beyond_threshold(self):
        reg = L1Regularizer(1.0)
        assert stationarity_residual(reg, [0.0], [1.5]) == pytest.approx(0.5)

    def test_group_blocks(self):
        reg = GroupL2Regularizer(1.0, [[0, 1]])
        x = np.array([3.0, 4.0])
        g = -x / 5.0  # exactly -tau x/||x||
        assert stationarity_residual(reg, x, g) == pytest.approx(0.0, abs=1e-15)
        assert stationarity_residual(reg, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_zero_regularizer_uses_gradient_norm(self):
        assert stationarity_residual(L1Regularizer(0.0), [1.0], [0.25]) == 0.25

    # a subgradient p of psi at x makes g = -p stationary
    @pytest.mark.parametrize(
        "reg, x, p, expected",
        [
            (L1Regularizer(1.0), [2.0, 0.0], [1.0, 0.5], 0.0),
            (L1Regularizer(1.0), [2.0, 0.0], [0.9, 0.0], 0.1),
            (GroupL2Regularizer(1.0, [[0, 1]]), [0.0, 0.0], [0.99, 0.0], 0.0),
            (GroupL2Regularizer(1.0, [[0, 1]]), [0.0, 0.0], [1.2, 0.0], 0.2),
        ],
        ids=["l1-certificate", "l1-wrong-sign", "group-inside-ball", "group-outside-ball"],
    )
    def test_subgradient_as_negative_gradient(self, reg, x, p, expected):
        assert stationarity_residual(reg, x, -np.array(p)) == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        for reg in (L1Regularizer(0.0), L1Regularizer(1.0)):
            with pytest.raises(ValueError, match="same length"):
                stationarity_residual(reg, np.zeros(3), np.zeros(2))


GLL_EPS_1E5 = SolverConfig(ref_policy="gll-max", cycle_m=1, eps=1e-5)


class TestCertifiedResidual:
    """``final_residual`` is an element of grad f + d psi at the final iterate."""

    def test_tv_reports_finite_positive_value(self):
        res = solve(gen_tv_phantom(rows=16, cols=16, seed=0), SolverConfig(eps=1e-5))
        assert res.status == "converged"
        assert 0.0 < res.trace.summary.final_residual < math.inf

    def test_iter_limit_certifies_last_step(self):
        # the closed form at x_K from the trace's own last step
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=2)
        res = solve(prob, SolverConfig(max_iters=5))
        assert res.status == "iter-limit"
        closed_form = stationarity_residual(prob.regularizer, res.x, prob.f_grad(res.x))
        assert closed_form <= res.trace.summary.final_residual + 1e-14

    @pytest.mark.parametrize(
        "make, cfg",
        [
            (lambda: gen_bpdn(k=256, n=1024, spikes=160, seed=0, tau=1e-2), GLL_EPS_1E5),
            (lambda: gen_bpdn(k=256, n=1024, spikes=160, seed=0, tau=1e-3), GLL_EPS_1E5),
            (lambda: gen_deblur(make_test_pattern(64, 64), seed=0), SolverConfig(eps=1e-4)),
        ],
        ids=["bpdn-tau1e-2", "bpdn-tau1e-3", "deblur-64"],
    )
    def test_equals_closed_form(self, make, cfg):
        # the stop values alpha ||dx||_inf are 9.73e-6, 8.57e-6 and 8.61e-5,
        # against residuals of 7.76e-5, 1.61e-5 and 1.71e-4
        prob = make()
        res = solve(prob, cfg)
        closed_form = stationarity_residual(prob.regularizer, res.x, prob.f_grad(res.x))
        assert res.trace.summary.final_residual == pytest.approx(closed_form, rel=1e-3)


class TestTraceSerialization:
    def test_csv_roundtrip_is_bitwise(self, tmp_path):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=11)
        res = solve(prob, SolverConfig(eps=1e-6))
        path = tmp_path / "trace.csv"
        res.trace.write_csv(path)
        back = Trace.read_csv(path)
        assert len(back.records) == len(res.trace.records)
        for a, b in zip(res.trace.records, back.records):
            for field in ("k", "obj", "phi_ref", "alpha_seed", "alpha_accepted",
                          "backtracks", "step_norm", "step_inf", "matvecs"):
                assert getattr(a, field) == getattr(b, field), field

    def test_summary_fields(self):
        prob = gen_bpdn(k=32, n=128, spikes=10, seed=11)
        res = solve(prob, SolverConfig(eps=1e-6))
        s = asdict(res.trace.summary)
        assert s["status"] == "converged"
        assert s["iters"] == len(res.trace.records)
        assert s["matvecs"] == prob.matvec_total
        assert res.trace.records[-1].step_inf <= 1e-6  # the stop rule
        oracle = stationarity_residual(prob.regularizer, res.x, prob.f_grad(res.x))
        assert oracle <= s["final_residual"] + 1e-14


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["eps"])
    def test_rejects_non_finite_float_field(self, name):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [True, "1e-3", None], ids=["bool", "string", "null"])
    def test_rejects_non_number_float_field(self, bad):
        with pytest.raises(ValueError, match="eps must be a number"):
            SolverConfig(eps=bad)

    @pytest.mark.parametrize("name", ["cycle_m", "max_iters"])
    def test_rejects_non_integral_int_field(self, name):
        for bad in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            SolverConfig(ref_policy="monotone")

    def test_dict_roundtrip(self):
        cfg = SolverConfig(cycle_m=4, ref_policy="adaptive", eps=1e-3)
        assert SolverConfig.from_dict(asdict(cfg)) == cfg

    def test_only_four_values_are_settable(self):
        names = ["cycle_m", "ref_policy", "eps", "max_iters"]
        assert [f.name for f in fields(SolverConfig)] == names
        assert list(asdict(SolverConfig())) == names

    @pytest.mark.parametrize("name", LINE_SEARCH_CONSTANTS)
    def test_constant_is_not_settable(self, name):
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{name: 3})
        with pytest.raises(TypeError, match=name):
            SolverConfig.from_dict({name: 3})
        with pytest.raises(FrozenInstanceError):
            setattr(SolverConfig(), name, 3)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.alpha_min == 1e-30
        assert cfg.alpha_max == 1e30
        assert cfg.eta == 5.0
        assert cfg.sigma == 1e-4
        assert cfg.memory_M == 10
        assert cfg.adapt_L == 2
        assert cfg.adapt_Delta == 1e-6
        assert cfg.max_backtracks == 100
        assert cfg.first_seed == 1.0
