"""Homotopy in the regularization weight: solve a decreasing tau sequence.

Small-tau problems are ill conditioned for first-order methods; solving a
geometric sequence of weights from near ||A^T b||_inf down to the target,
warm-starting each stage from the last, usually costs far fewer total
matvecs than attacking the target weight directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .solver import SolverConfig, SolveResult, Trace, TraceRecord, solve


@dataclass
class ContinuationSchedule:
    """Geometric weight schedule ending exactly at ``tau_target``.

    The first stage uses ``tau_init_fraction`` of the natural scale
    ||A^T b||_inf (above which the solution is identically zero for l1);
    each stage multiplies by ``decrease_factor`` until the target is
    reached. Intermediate stages stop at the looser ``inner_eps``; the
    final stage uses the caller's tolerance.
    """

    tau_target: float
    tau_init_fraction: float = 0.9
    decrease_factor: float = 0.25
    inner_eps: float = 1e-3

    def __post_init__(self):
        if self.tau_target <= 0:
            raise ValueError("tau_target must be positive")
        if not 0 < self.decrease_factor < 1:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.tau_init_fraction <= 0:
            raise ValueError("tau_init_fraction must be positive")

    def stages(self, scale: float) -> list[float]:
        """Strictly decreasing weights from the scale down to the target."""
        tau0 = self.tau_init_fraction * scale
        if not np.isfinite(tau0) or tau0 <= self.tau_target:
            return [self.tau_target]
        taus = []
        t = tau0
        while t > self.tau_target:
            taus.append(t)
            t *= self.decrease_factor
        taus.append(self.tau_target)
        return taus


@dataclass
class ContinuationResult:
    x: np.ndarray
    trace: Trace
    status: str
    stages: list[dict] = field(default_factory=list)


def solve_with_continuation(
    problem,
    schedule: ContinuationSchedule,
    cfg: SolverConfig | None = None,
) -> ContinuationResult:
    """Warm-started solves over the schedule's weights.

    The combined trace renumbers iterations across stages and offsets each
    stage's ``matvecs`` and ``wall_time`` columns by what the earlier
    stages spent, so both only go up. Matvecs count from the start of this
    call, including the one gradient evaluation used to size the initial
    weight; wall time is the sum of the stage solves. Stage summaries
    report per-stage iteration and matvec increments.
    """
    cfg = cfg or SolverConfig()
    matvecs_start = int(getattr(problem, "matvec_total", 0))
    scale = float(np.max(np.abs(problem.f_grad(np.zeros_like(np.asarray(problem.x1, dtype=float))))))
    taus = schedule.stages(scale)

    x_warm = np.asarray(problem.x1, dtype=float)
    records: list[TraceRecord] = []
    stages: list[dict] = []
    result: SolveResult | None = None
    offset = 0
    total_wall = 0.0
    matvecs_before = int(getattr(problem, "matvec_total", 0))

    for i, tau_i in enumerate(taus):
        last = i == len(taus) - 1
        stage_problem = problem.replaced(
            regularizer=problem.regularizer.with_tau(tau_i),
            x1=x_warm,
        )
        stage_cfg = cfg.replaced(eps=cfg.eps if last else schedule.inner_eps)
        try:
            result = solve(stage_problem, stage_cfg)
        except Exception as exc:
            raise RuntimeError(f"continuation stage {i} (tau={tau_i:g}) failed") from exc
        spent = matvecs_before - matvecs_start
        for rec in result.trace.records:
            records.append(
                replace(
                    rec,
                    k=rec.k + offset,
                    matvecs=rec.matvecs + spent,
                    wall_time=rec.wall_time + total_wall,
                )
            )
        offset += len(result.trace.records)
        now = int(getattr(problem, "matvec_total", 0))
        stages.append(
            {
                "tau": tau_i,
                "iters": result.trace.summary.iters,
                "matvecs": now - matvecs_before,
            }
        )
        matvecs_before = now
        total_wall += result.trace.summary.wall_time
        x_warm = result.x

    summary = result.trace.summary
    summary.iters = len(records)
    summary.matvecs = matvecs_before - matvecs_start
    summary.wall_time = total_wall
    return ContinuationResult(
        x=result.x,
        trace=Trace(records, summary),
        status=result.status,
        stages=stages,
    )
