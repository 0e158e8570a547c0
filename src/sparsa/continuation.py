"""Homotopy in the regularization weight: solve a decreasing tau sequence.

Small-tau problems are ill conditioned for first-order methods; solving a
geometric sequence of weights from near ||A^T b||_inf down to the target,
warm-starting each stage from the last, usually costs far fewer total
matvecs than attacking the target weight directly. This module holds the
schedule; :func:`sparsa.solver.solve` runs its weights in its one loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .solver import SolveResult, SolverConfig, check_real, solve

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

    def weights(self, scale: float, eps: float) -> list[tuple[float, float]]:
        """Each stage's ``(tau, tolerance)``, from the scale down to the target.

        The weights decrease strictly; every stage stops at ``INNER_EPS``
        but the last, which stops at ``eps``.
        """
        weights = []
        tau = TAU_INIT_FRACTION * scale
        while math.isfinite(tau) and tau > self.tau_target:
            weights.append((tau, INNER_EPS))
            tau *= DECREASE_FACTOR
        return weights + [(self.tau_target, eps)]


def solve_with_continuation(
    problem,
    schedule: ContinuationSchedule,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Warm-started solves over the schedule's weights, in one ``solve`` call.

    The trace numbers iterations across stages, and its ``matvecs`` and
    ``wall_time`` columns run on the one solve's counter and clock, from
    the start of this call: both include the one gradient evaluation that
    sizes the initial weight, and both only go up. ``stages`` lists each
    weight's precision stages in order, so a weight that switched from
    float32 to float64 has two entries.
    """
    return solve(problem, cfg, schedule)
