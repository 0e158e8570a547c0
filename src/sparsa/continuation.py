"""Homotopy in the regularization weight: solve a decreasing tau sequence.

Small-tau problems are ill conditioned for first-order methods; solving a
geometric sequence of weights from near ||A^T b||_inf down to the target,
warm-starting each stage from the last, usually costs far fewer total
matvecs than attacking the target weight directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .solver import SolveResult, SolverConfig, Trace, TraceRecord, check_real, solve

# The first stage's weight as a fraction of ||A^T b||_inf, above which the
# l1 solution is identically zero.
TAU_INIT_FRACTION = 0.9
# Ratio between consecutive stage weights.
DECREASE_FACTOR = 0.25
# Stopping tolerance of every stage but the last.
INNER_EPS = 1e-3


@dataclass
class ContinuationSchedule:
    """Geometric weight schedule ending exactly at ``tau_target``.

    The first stage uses ``TAU_INIT_FRACTION`` of the natural scale
    ||A^T b||_inf; each stage multiplies by ``DECREASE_FACTOR`` until the
    target is reached. Intermediate stages stop at ``INNER_EPS``; the final
    stage uses the caller's tolerance.
    """

    tau_target: float

    def __post_init__(self):
        check_real("tau_target", self.tau_target, positive=True)

    def stages(self, scale: float) -> list[float]:
        """Strictly decreasing weights from the scale down to the target."""
        tau0 = TAU_INIT_FRACTION * scale
        if not np.isfinite(tau0) or tau0 <= self.tau_target:
            return [self.tau_target]
        taus = []
        t = tau0
        while t > self.tau_target:
            taus.append(t)
            t *= DECREASE_FACTOR
        taus.append(self.tau_target)
        return taus


def solve_with_continuation(
    problem,
    schedule: ContinuationSchedule,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Warm-started solves over the schedule's weights.

    The combined trace renumbers iterations across stages and offsets each
    stage's ``matvecs`` and ``wall_time`` columns by what the earlier
    stages spent, so both only go up. Matvecs count from the start of this
    call, including the one gradient evaluation used to size the initial
    weight; wall time is the sum of the stage solves. Every stage's cost
    comes from its own solve summary, and ``stages`` concatenates the
    solves' own, so a weight whose solve switched from float32 to float64
    has two entries.
    """
    cfg = cfg or SolverConfig()
    x_warm = np.asarray(problem.x1, dtype=float)
    before = problem.matvec_total
    scale = float(np.max(np.abs(problem.f_grad(np.zeros_like(x_warm)))))
    matvecs = problem.matvec_total - before
    taus = schedule.stages(scale)

    records: list[TraceRecord] = []
    stages: list[dict] = []
    wall_time = 0.0
    for i, tau_i in enumerate(taus):
        stage_problem = problem.replaced(
            regularizer=problem.regularizer.with_tau(tau_i),
            x1=x_warm,
        )
        stage_cfg = cfg.replaced(eps=cfg.eps if i == len(taus) - 1 else INNER_EPS)
        try:
            result = solve(stage_problem, stage_cfg)
        except Exception as exc:
            cause = f"{type(exc).__name__}: {exc}"
            raise RuntimeError(f"continuation stage {i} (tau={tau_i:g}) failed: {cause}") from exc
        spent = result.trace.summary
        offset = len(records)
        for rec in result.trace.records:
            records.append(
                replace(
                    rec,
                    k=rec.k + offset,
                    matvecs=rec.matvecs + matvecs,
                    wall_time=rec.wall_time + wall_time,
                )
            )
        stages += result.stages
        matvecs += spent.matvecs
        wall_time += spent.wall_time
        x_warm = result.x

    summary = replace(spent, iters=len(records), matvecs=matvecs, wall_time=wall_time)
    return SolveResult(x=result.x, trace=Trace(records, summary), stages=stages)
