"""Separable-approximation proximal solver with nonmonotone line search.

Each iteration seeds a stepsize parameter ``alpha`` from a (cyclic)
Barzilai-Borwein rule, then increases it by factors of ``eta`` until the
candidate

    x_next = argmin_z  grad(x) . z + alpha ||z - x||^2 + psi(z)

satisfies the acceptance test

    phi(x_next) <= phi_ref - sigma * alpha * ||x_next - x||^2,

where ``phi = f + psi`` and ``phi_ref`` is a reference value picked by
either the max-of-recent-objectives policy ("gll-max") or a relaxed
adaptive policy ("adaptive"). The run stops when
``alpha * ||x_next - x||_inf <= eps`` (status "converged", also for an
exactly repeated iterate) or at the iteration cap (status "iter-limit").

The summary's ``final_residual`` certifies stationarity at no extra
cost. An exact prox gives ``0 in grad(x) + 2 alpha (x_next - x) +
d psi(x_next)``, so ``grad(x_next) - grad(x) - 2 alpha (x_next - x)``,
built from the spectral seed's ``y`` and ``s``, lies in ``grad f(x_next) +
d psi(x_next)``; its max norm is the residual, which the stop value
``alpha ||x_next - x||_inf`` only about halves. For tv-iso it holds up to
the inner TV solve's error.

Each weight runs a list of precision stages in one loop: the problem to
``eps`` or, when ``float32_stage()`` returns a float32 view of it (a
least-squares problem whose operator's ``float32()`` gives a twin: a large
dense or blur-Haar one), the view to ``max(eps, FLOAT32_EPS_FLOOR)`` and
then the problem to ``eps``. A stage starts by evaluating f and its
gradient at x through its own products; the first opens the window with
phi(x), a later one puts its float64 phi(x) in place of the window's last
entry, so ``phi_ref >= phi(x)`` still holds. The seed, ``(s, y)`` pair,
prox state and iteration count (capped by ``max_iters``) carry across the
stages. A stage that stops short of its test ends the weight, so a
converged solve's final objective and residual come from float64
products. ``SolveResult.stages`` reports each stage's cost.

A gradient reuses the data residual ``r = A x - b`` that its point's
objective evaluation formed (``f_value(x)`` returns ``(f(x), r)``, then
``f_grad(x, r)``), and ``r`` is dropped once the gradient is built. For
a least-squares problem a stage start then costs one forward and one
adjoint product, and an iteration one forward per trial plus one
adjoint: a stage with ``iters`` iterations and ``trials`` trials
(iterations plus backtracks) costs ``2 + trials + iters`` matvecs.

Under continuation (a ``schedule``, see :mod:`sparsa.continuation`) one
gradient at zero (2 matvecs: no residual is in hand) sizes a decreasing
sequence of weights, and the stage loop
runs once per weight from the last one's iterate: its own regularizer and
tolerance, a fresh window, seed, ``(s, y)`` pair and prox state, and its
own precision stages on the solve's one float32 view. The records and the
summary count across all weights.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import arrayio

if TYPE_CHECKING:  # regularizers imports this module's checks
    from .regularizers import Regularizer

STATUS_CONVERGED = "converged"
STATUS_ITER_LIMIT = "iter-limit"

REF_GLL = "gll-max"
REF_ADAPTIVE = "adaptive"

# A float32 stage stops at max(eps, this floor): the step test is then still
# well above what float32 products can resolve.
FLOAT32_EPS_FLOOR = 1e-5


class BacktrackLimitExceeded(RuntimeError):
    """Line search exhausted its backtrack budget (broken f or prox)."""


class NonFiniteObjective(FloatingPointError):
    """A trial objective evaluated to NaN or infinity."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """Return ``value`` as an int, or raise ``ValueError`` naming ``name``.

    ``value`` must be an integer (a bool is not one) and, when ``minimum``
    is given, at least ``minimum``; a minimum of 1 reads "must be positive".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        bound = "positive" if minimum == 1 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


def check_real(name: str, value, minimum: float | None = None, positive: bool = False) -> float:
    """Return ``value`` as a float, or raise ``ValueError`` naming ``name``.

    ``value`` must be a real number (a bool is not one) and finite; then at
    least ``minimum`` when that is given, and above 0 when ``positive``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value!r}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_vector(name: str, value, length: int | None = None) -> np.ndarray:
    """Return ``value`` as a float array, or raise ``ValueError`` naming ``name``.

    When ``length`` is given, the array must have shape ``(length,)``.
    """
    value = np.asarray(value, dtype=float)
    if length is not None and value.shape != (length,):
        raise ValueError(f"{name}: expected vector of length {length}, got shape {value.shape}")
    return value


@dataclass(frozen=True)
class SolverConfig:
    """The solver's settings: four fields a caller sets, the rest fixed.

    ``cycle_m`` is how many iterations reuse one spectral seed (``None``:
    1 when tau >= 1e-2, else 3); ``ref_policy`` picks the line search's
    reference value, "gll-max" or "adaptive"; ``eps`` and ``max_iters`` are
    the stopping tolerance and the iteration cap. The line-search constants
    are class attributes, not fields: the constructor rejects them and
    ``dataclasses.asdict`` leaves them out.
    """

    eta: ClassVar[float] = 5.0  # alpha grows by this factor per backtrack
    sigma: ClassVar[float] = 1e-4  # sufficient-decrease weight of the acceptance test
    alpha_min: ClassVar[float] = 1e-30  # spectral seeds are clamped to [alpha_min, alpha_max]
    alpha_max: ClassVar[float] = 1e30
    memory_M: ClassVar[int] = 10  # "gll-max" reference: max of the last M objectives
    # "adaptive" drops to that max every L-th iteration, and when the decrease
    # over the last L iterations is below Delta * max(1, |phi|)
    adapt_L: ClassVar[int] = 2
    adapt_Delta: ClassVar[float] = 1e-6
    max_backtracks: ClassVar[int] = 100  # trials beyond the first before giving up
    first_seed: ClassVar[float] = 1.0  # seed of iteration 1, before any (s, y) pair

    cycle_m: int | None = None
    ref_policy: str = REF_GLL
    eps: float = 1e-5
    max_iters: int = 100_000

    def __post_init__(self):
        if self.cycle_m is not None:
            check_integer("cycle_m", self.cycle_m, minimum=1)
        if self.ref_policy not in (REF_GLL, REF_ADAPTIVE):
            raise ValueError(f"unknown ref_policy {self.ref_policy!r}")
        check_real("eps", self.eps, positive=True)
        check_integer("max_iters", self.max_iters, minimum=1)

    def effective_cycle_m(self, tau: float) -> int:
        if self.cycle_m is not None:
            return self.cycle_m
        return 1 if tau >= 1e-2 else 3

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        return cls(**d)

    def replaced(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


@dataclass
class TraceRecord:
    """One solver iteration: objective, reference, stepsizes, costs.

    The fields, in order, are the trace CSV columns. Floats are written
    with 17 significant digits unless a field's ``csv_format`` metadata
    names another format.
    """

    k: int
    obj: float
    phi_ref: float
    alpha_seed: float
    alpha_accepted: float
    backtracks: int
    step_norm: float
    step_inf: float
    matvecs: int
    wall_time: float = field(metadata={"csv_format": ".6f"})


@dataclass
class SolveSummary:
    """The end of a run: stop reason, cost, final objective and residual.

    ``final_residual`` is the certificate of the module docstring at the
    last accepted step, an element of ``grad f + d psi`` at the final
    iterate (for tv-iso, up to the inner solve's error).
    """

    status: str
    iters: int
    matvecs: int
    final_obj: float
    final_residual: float
    wall_time: float


@dataclass
class Trace:
    """Per-iteration records plus the end-of-run summary."""

    records: list[TraceRecord] = field(default_factory=list)
    summary: SolveSummary | None = None

    def objective_values(self, include_final: bool = True) -> np.ndarray:
        """phi(x_1), ..., phi(x_K) and, optionally, the final iterate's value."""
        objs = [r.obj for r in self.records]
        if include_final and self.summary is not None:
            objs.append(self.summary.final_obj)
        return np.array(objs)

    def matvec_values(self) -> np.ndarray:
        return np.array([r.matvecs for r in self.records])

    def write_csv(self, path):
        arrayio.write_records_csv(path, TraceRecord, self.records)

    @classmethod
    def read_csv(cls, path) -> "Trace":
        records = arrayio.read_records_csv(path, TraceRecord)
        if not records:  # no rate fit or curve reads an empty trace
            raise ValueError(f"{path} holds no trace records")
        return cls(records=records)


@dataclass
class SolveResult:
    """The final iterate, the run's trace and its stages; the status is the summary's.

    ``stages`` holds one ``{tau, iters, matvecs, precision}`` entry per
    stage, in trace order: ``iters`` consecutive records at weight ``tau``
    whose objectives come from ``precision`` ("float32" or "float64")
    products, at a cost of ``matvecs``. A solve has one stage, or two when
    it switches from float32 to float64; continuation lists each weight's.
    """

    x: np.ndarray
    trace: Trace
    stages: list[dict]

    @property
    def status(self) -> str:
        return self.trace.summary.status


# -- stepsize seeds and reference values --------------------------------------


def bb_seed(s: np.ndarray, y: np.ndarray, cfg: SolverConfig) -> float:
    """Safeguarded spectral stepsize: minimize ||alpha s - y|| over the box.

    The unconstrained minimizer is s.y / s.s; clamping to
    [alpha_min, alpha_max] realizes the constrained minimum, which lands
    on alpha_min whenever curvature is nonpositive (s.y <= 0) or s = 0.
    """
    s = check_vector("s", s)
    y = check_vector("y", y, s.size)
    ss = float(s @ s)
    if ss == 0.0:
        return cfg.alpha_min
    sy = float(s @ y)
    if sy <= 0.0:
        return cfg.alpha_min
    return min(max(sy / ss, cfg.alpha_min), cfg.alpha_max)


def cyclic_seed(
    k: int,
    cfg: SolverConfig,
    stored: float | None,
    s: np.ndarray | None,
    y: np.ndarray | None,
    cycle_m: int,
) -> float:
    """Cyclic reuse of the spectral seed.

    Recomputes the seed at iterations k = 1, 1+m, 1+2m, ... and returns
    the stored value elsewhere. At k = 1 there is no (s, y) history yet,
    so the constant ``first_seed`` is used as is: it lies inside
    [alpha_min, alpha_max], so no clamp applies.
    """
    if k < 1:
        raise ValueError("iteration index starts at 1")
    if (k - 1) % cycle_m != 0:
        return stored
    if s is None or y is None:
        return cfg.first_seed
    return bb_seed(s, y, cfg)


def gll_reference(history) -> float:
    """Max of the retained recent objective values."""
    if len(history) == 0:
        raise ValueError("objective history is empty")
    return max(history)


def adaptive_reference(
    k: int,
    recent,
    phi_ref_prev: float | None,
    phi_max: float,
    cfg: SolverConfig,
) -> float:
    """Relaxed reference value with periodic and stall-triggered resets.

    ``recent`` ends with phi(x_1), ..., phi(x_k), of which only the last
    ``adapt_L + 1`` are read: the solver passes its ``memory_M`` window.
    At k = 1 the reference is phi(x_1). Afterwards it is the permissive
    max(previous reference, recent-max) except on reset iterations, where
    it drops to the recent-max ``phi_max``. Resets fire every ``adapt_L``
    iterations and whenever the decrease over the last ``adapt_L``
    iterations is below the relative stall threshold, so a reset occurs
    in every window of ``adapt_L`` consecutive iterations.
    """
    current = float(recent[-1])
    if k == 1:
        return current
    L = cfg.adapt_L
    reset = k % L == 0
    if not reset and k > L:
        delta = cfg.adapt_Delta * max(1.0, abs(current))
        reset = float(recent[-L - 1]) - current <= delta
    if reset:
        return phi_max
    return max(phi_ref_prev, phi_max)


# -- line search and main loop -------------------------------------------------


def line_search_step(
    x: np.ndarray,
    g: np.ndarray,
    phi_ref: float,
    alpha_seed: float,
    f_value,
    reg: Regularizer,
    cfg: SolverConfig,
    prox_state=None,
):
    """Backtracking on alpha = eta^j * seed until acceptance.

    Requires phi_ref >= phi(x). ``f_value(z)`` returns f(z) and the
    residual a gradient at z may reuse (or ``None``). Returns
    ``(x_next, obj_next, alpha, j, step, step_sq, r)`` for the smallest j
    whose subproblem solution satisfies the acceptance inequality, where
    ``step = x_next - x``, ``step_sq = step . step`` and ``r`` is
    x_next's residual. Each trial forms ``u`` in one fresh vector and, once
    the prox has returned, writes the step into it; a rejected trial's
    residual is dropped before the next trial is formed.
    """
    for j in range(cfg.max_backtracks + 1):
        alpha = alpha_seed * cfg.eta**j
        u = np.divide(g, 2.0 * alpha)
        np.subtract(x, u, out=u)
        z = reg.prox(u, alpha, state=prox_state)
        psi_z = reg.value(z)  # first: its work array and the residual are never alive together
        f_z, r = f_value(z)
        obj_z = float(f_z) + psi_z
        if not math.isfinite(obj_z):
            raise NonFiniteObjective(
                f"objective is {obj_z} at alpha={alpha:g} (backtrack {j})"
            )
        diff = np.subtract(z, x, out=u)
        step_sq = float(diff @ diff)
        if obj_z <= phi_ref - cfg.sigma * alpha * step_sq:
            return z, obj_z, alpha, j, diff, step_sq, r
        del r
    raise BacktrackLimitExceeded(
        f"no acceptable step within {cfg.max_backtracks} backtracks "
        f"(seed {alpha_seed:g}); f may be non-smooth or the prox broken"
    )


def solve(problem, cfg: SolverConfig | None = None, schedule=None) -> SolveResult:
    """Run the solver on ``problem`` until a stopping test fires.

    ``problem`` must provide ``f_value(x)``, returning ``(f(x), r)``, and
    ``f_grad(x, r)`` (see :class:`~sparsa.problems.LeastSquaresProblem`), a
    ``regularizer``, a starting point ``x1``, a ``matvec_total``
    attribute and ``float32_stage()``, which returns the problem each
    weight's float32 stage runs on (over its operator's float32 twin), or
    ``None`` (see the module docstring).
    The count feeds the per-iteration cost column, counted from the start
    of this solve (the operator's earlier work excluded). The run is
    single-threaded, owns all mutable state, and is deterministic:
    identical inputs produce identical traces (wall times aside).

    A ``schedule`` (a ``ContinuationSchedule``) must end at the problem's
    own weight, else ``ValueError`` is raised before any product; an
    exception raised while its weight ``i`` runs is re-raised as a
    ``RuntimeError`` naming it.
    """
    cfg = cfg or SolverConfig()
    x = np.array(problem.x1, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point must be finite")
    t0 = time.perf_counter()
    matvecs0 = problem.matvec_total
    if schedule is None:
        weights = [(problem.regularizer, cfg.eps)]
    else:
        if schedule.tau_target != problem.regularizer.tau:
            raise ValueError(f"schedule.tau_target {schedule.tau_target:g} is not the "
                             f"problem's regularizer tau {problem.regularizer.tau:g}")
        scale = float(np.max(np.abs(problem.f_grad(np.zeros_like(x)))))
        weights = [(problem.regularizer.with_tau(tau), eps)
                   for tau, eps in schedule.weights(scale, cfg.eps)]
    view = problem.float32_stage()
    records: list[TraceRecord] = []
    stages: list[dict] = []

    for i, (reg, eps) in enumerate(weights):
        if view is None:
            precision_stages = [(problem, eps)]
        else:
            precision_stages = [(view, max(eps, FLOAT32_EPS_FLOOR)), (problem, eps)]
        try:
            # the window, seed, (s, y) pair, prox state and iteration count carry across them
            window = deque([None], maxlen=cfg.memory_M)
            cycle_m = cfg.effective_cycle_m(reg.tau)
            stored_seed = phi_ref_prev = s_prev = y_prev = None  # cyclic_seed sets the seed at k = 1
            prox_state = reg.make_prox_state()
            k = 0
            for stage, stage_eps in precision_stages:
                iters0, stage_matvecs0 = len(records), problem.matvec_total
                f_x, r = stage.f_value(x)
                obj = float(f_x) + reg.value(x)
                if not math.isfinite(obj):
                    raise NonFiniteObjective("objective at the starting point is not finite")
                g = stage.f_grad(x, r)
                del r
                # phi(x) opens the window or, after a precision switch, takes
                # the place of its last entry, so phi_ref >= phi(x) still holds
                window[-1] = obj
                status = STATUS_ITER_LIMIT
                while k < cfg.max_iters:
                    k += 1
                    stored_seed = cyclic_seed(k, cfg, stored_seed, s_prev, y_prev, cycle_m)
                    phi_max = gll_reference(window)
                    if cfg.ref_policy == REF_GLL:
                        phi_ref = phi_max
                    else:
                        phi_ref = adaptive_reference(k, window, phi_ref_prev, phi_max, cfg)
                    phi_ref_prev = phi_ref

                    z, obj_z, alpha, j, diff, step_sq, r = line_search_step(
                        x, g, phi_ref, stored_seed, stage.f_value, reg, cfg, prox_state
                    )
                    if prox_state is not None:
                        prox_state.note_backtracks(j)
                    step_inf = alpha * float(np.abs(diff).max())
                    records.append(
                        TraceRecord(
                            k=len(records) + 1,
                            obj=obj,
                            phi_ref=phi_ref,
                            alpha_seed=stored_seed,
                            alpha_accepted=alpha,
                            backtracks=j,
                            step_norm=math.sqrt(step_sq),
                            step_inf=step_inf,
                            matvecs=problem.matvec_total - matvecs0,
                            wall_time=time.perf_counter() - t0,
                        )
                    )

                    g_new = stage.f_grad(z, r)
                    del r  # no residual outlives its gradient
                    s_prev = diff
                    y_prev = g_new - g
                    x, g, obj = z, g_new, obj_z
                    window.append(obj)
                    if step_inf <= stage_eps:
                        status = STATUS_CONVERGED
                        break
                stages.append({
                    "tau": reg.tau,
                    "iters": len(records) - iters0,
                    "matvecs": problem.matvec_total - stage_matvecs0,
                    "precision": "float64" if stage is problem else "float32",
                })
                if status != STATUS_CONVERGED:
                    break  # a stage that did not pass its test ends the weight
        except Exception as exc:
            if schedule is None:
                raise
            cause = f"{type(exc).__name__}: {exc}"
            raise RuntimeError(f"continuation weight {i} (tau={reg.tau:g}) failed: {cause}") from exc

    summary = SolveSummary(
        status=status,
        iters=len(records),
        matvecs=problem.matvec_total - matvecs0,
        final_obj=obj,
        # y_prev - 2 alpha s_prev lies in grad f(x) + d psi(x)
        final_residual=float(np.max(np.abs(y_prev - 2.0 * alpha * s_prev))),
        wall_time=time.perf_counter() - t0,
    )
    return SolveResult(x=x, trace=Trace(records, summary), stages=stages)


def acceptance_violation(trace: Trace, sigma: float) -> float:
    """Largest relative violation of the logged acceptance inequalities.

    Replays ``obj_{k+1} <= phi_ref_k - sigma * alpha_k * step_norm_k^2``
    across consecutive records, using the summary's final objective for
    the last one. Nonpositive means every inequality holds as logged.
    """
    if not trace.records:
        return 0.0
    worst = -math.inf
    for rec, nxt in zip(trace.records, trace.objective_values()[1:].tolist()):
        bound = rec.phi_ref - sigma * rec.alpha_accepted * rec.step_norm**2
        worst = max(worst, (nxt - bound) / max(1.0, abs(rec.phi_ref)))
    return worst
