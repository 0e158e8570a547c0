"""Rate fitting and reproducible benchmark experiments.

Empirical counterparts of the solver's convergence guarantees: objective
errors of a convex run should admit a sublinear envelope a/(b + k)
(equivalently, reciprocals of the errors grow at least linearly), and a
strongly convex run should decay R-linearly, e_k <= c * theta^k with
theta < 1. Both are estimated from solve traces against a high-accuracy
reference optimum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import arrayio
from .continuation import ContinuationSchedule, solve_with_continuation
from .problems import GeneratorSpec
from .solver import SolveResult, SolverConfig, Trace, check_integer, check_real, solve


def default_burn_in(n_samples: int) -> int:
    """First 20% of the iterations: the rate bounds are asymptotic."""
    return n_samples // 5


def _usable(errors, burn_in: int):
    errors = np.asarray(errors, dtype=float)
    if burn_in < 0 or burn_in >= errors.size:
        raise ValueError(f"burn_in must be in [0, {errors.size}), got {burn_in}")
    ks = np.arange(1, errors.size + 1)[burn_in:]
    es = errors[burn_in:]
    keep = es > 0
    ks, es = ks[keep], es[keep]
    if es.size < 5:
        raise ValueError(
            f"only {es.size} samples after burn-in {burn_in} lie above phi_star; need >= 5"
        )
    return ks, es


def fit_sublinear(errors, burn_in: int = 0):
    """Fit e_k ~ a / (b + k) by least squares on reciprocals.

    Regresses 1/e_k on k over the post-burn-in samples with e_k > 0,
    giving a_hat = 1/slope and b_hat = intercept/slope. ``ok`` requires a
    positive slope and every increment of 1/e_k to be >= -1e-9 (the
    reciprocal-growth signature of a sublinear-or-better decay).
    """
    ks, es = _usable(errors, burn_in)
    recip = 1.0 / es
    slope, intercept = np.polyfit(ks, recip, 1)
    increments = np.diff(recip)
    ok = bool(slope > 0 and (increments.size == 0 or increments.min() >= -1e-9))
    if slope <= 0:
        return float("nan"), float("nan"), ok
    return 1.0 / slope, intercept / slope, ok


def fit_linear(errors, burn_in: int = 0):
    """Fit e_k ~ c * theta^k by least squares on log errors.

    Returns (theta_hat, c_hat, r2). A constant error sequence yields
    theta_hat = 1 and, being fit exactly by a horizontal line, r2 = 1.
    """
    ks, es = _usable(errors, burn_in)
    logs = np.log(es)
    slope, intercept = np.polyfit(ks, logs, 1)
    predicted = slope * ks + intercept
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    # variance at rounding level means the horizontal line is an exact fit
    degenerate = len(logs) * (1e-12 * max(1.0, abs(float(logs.mean())))) ** 2
    if ss_tot <= degenerate:
        r2 = 1.0 if ss_res <= degenerate else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), float(np.exp(intercept)), r2


@dataclass
class RateFit:
    """Estimated rate parameters from one trace."""

    a_hat: float = float("nan")
    b_hat: float = float("nan")
    sublinear_ok: bool = False
    theta_hat: float = float("nan")
    c_hat: float = float("nan")
    residual_r2: float = float("nan")
    burn_in: int = 0


def fit_rates(trace: Trace, phi_star: float, burn_in: int | None = None) -> RateFit:
    """Run both fits on a trace's objective errors against a finite ``phi_star``."""
    phi_star = check_real("phi_star", phi_star)
    errors = trace.objective_values(include_final=False) - phi_star
    if burn_in is None:
        burn_in = default_burn_in(errors.size)
    a_hat, b_hat, ok = fit_sublinear(errors, burn_in)
    theta_hat, c_hat, r2 = fit_linear(errors, burn_in)
    return RateFit(
        a_hat=a_hat,
        b_hat=b_hat,
        sublinear_ok=ok,
        theta_hat=theta_hat,
        c_hat=c_hat,
        residual_r2=r2,
        burn_in=burn_in,
    )


def error_vs_matvec_curve(trace: Trace, phi_star: float) -> np.ndarray:
    """(cumulative matvecs, objective error) pairs, one per iteration.

    ``phi_star`` must be finite and must not exceed the best objective
    observed in the trace by more than 1e-9, otherwise the reference
    optimum is inconsistent.
    """
    phi_star = check_real("phi_star", phi_star)
    objs = trace.objective_values(include_final=False)
    best = float(trace.objective_values().min())
    if phi_star > best + 1e-9:
        raise ValueError(f"phi_star={phi_star!r} exceeds the best observed objective {best!r}")
    return np.column_stack([trace.matvec_values(), objs - phi_star])


@dataclass
class CurvePoint:
    """One iteration of an error-versus-cost curve; the fields are the CSV columns."""

    matvecs: int
    error: float


def write_curve_csv(path, curve: np.ndarray):
    points = [CurvePoint(int(mv), float(err)) for mv, err in curve]
    arrayio.write_records_csv(path, CurvePoint, points)


# -- benchmark experiments -------------------------------------------------------


@dataclass
class Variant:
    """Named solver configuration, optionally run under continuation."""

    name: str
    config: SolverConfig = field(default_factory=SolverConfig)
    continuation: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"variant name must be a string, got {self.name!r}")
        if not isinstance(self.continuation, bool):
            raise ValueError(f"continuation must be true or false, got {self.continuation!r}")

    @property
    def file_stem(self) -> str:
        """The name as it starts trace file names: a '/' would open a directory."""
        return self.name.replace("/", "-")

    @classmethod
    def from_dict(cls, d: dict) -> "Variant":
        """Missing keys take their defaults; an unknown key is a ``TypeError``."""
        return cls(**d | {"config": SolverConfig.from_dict(d.get("config", {}))})


def default_variants() -> list[Variant]:
    """The standard comparison: recent-max reference with plain spectral
    seeds versus the adaptive reference with cyclic seeds, each with and
    without continuation."""
    return [
        Variant("gll", SolverConfig(ref_policy="gll-max", cycle_m=1)),
        Variant("adaptive", SolverConfig(ref_policy="adaptive")),
        Variant("gll/c", SolverConfig(ref_policy="gll-max", cycle_m=1), continuation=True),
        Variant("adaptive/c", SolverConfig(ref_policy="adaptive"), continuation=True),
    ]


@dataclass
class ExperimentSpec:
    """A benchmark: one generator, several variants, a tolerance sweep.

    Repetition r generates the problem once, with seed
    ``generator.seed + r``, and every (tolerance, variant) cell solves that
    same instance (paired comparison). Sharing it is safe: each solve
    counts its own matvecs and owns its prox state. A cell stops at its
    tolerance, so a variant's config must leave ``eps`` at its default.
    """

    generator: GeneratorSpec
    variants: list[Variant] = field(default_factory=default_variants)
    tolerances: list[float] = field(default_factory=lambda: [1e-5])
    repetitions: int = 1

    def __post_init__(self):
        if not self.variants or not self.tolerances:
            raise ValueError("an experiment needs at least one variant and one tolerance")
        self.tolerances = [check_real("tolerances", eps, positive=True) for eps in self.tolerances]
        check_integer("repetitions", self.repetitions, minimum=1)
        if len({v.file_stem for v in self.variants}) < len(self.variants):
            names = [v.name for v in self.variants]
            raise ValueError(f"variant names must stay distinct with '/' read as '-': {names}")
        for variant in self.variants:
            if variant.config.eps != SolverConfig.eps:
                raise ValueError(
                    f"variant {variant.name!r} sets eps={variant.config.eps!r}, but every cell "
                    "runs at its tolerance: list it in tolerances instead"
                )
        # trace files and table rows are keyed by the tolerance as :g prints it
        labels = [f"{eps:g}" for eps in self.tolerances]
        colliding = [eps for eps, label in zip(self.tolerances, labels) if labels.count(label) > 1]
        if colliding:
            raise ValueError(f"tolerances must stay distinct when printed with :g: {colliding}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """As ``Variant.from_dict``; an empty ``variants`` list means the defaults."""
        converted = {
            "generator": GeneratorSpec.from_dict(d["generator"]),
            "variants": [Variant.from_dict(v) for v in d.get("variants", [])]
            or default_variants(),
        }
        return cls(**d | converted)


def run_one(problem, cfg: SolverConfig, continuation: bool) -> SolveResult:
    """Solve one cell, under ``continuation`` through the weight schedule."""
    if continuation:
        schedule = ContinuationSchedule(tau_target=problem.regularizer.tau)
        return solve_with_continuation(problem, schedule, cfg)
    return solve(problem, cfg)


def solve_record(result: SolveResult) -> dict:
    """The JSON view of a solve: its summary plus its stages."""
    return asdict(result.trace.summary) | {"stages": result.stages}


@dataclass
class TableRow:
    """One ``table.csv`` row: means over a (variant, eps) pair's finished cells."""

    variant: str
    eps: float
    mean_matvecs: float
    mean_wall_time: float = field(metadata={"csv_format": ".6f"})
    mean_final_obj: float
    runs: int


def run_experiment(spec: ExperimentSpec, out_dir) -> tuple[list[TableRow], dict]:
    """Run every cell; write ``table.csv``, ``manifest.json`` and ``traces/`` to ``out_dir``.

    Returns (table rows, manifest). A manifest cell is its (variant, eps,
    rep, seed) and the ``solve_record`` of ``run_one`` at that tolerance, less
    its wall time, so rerunning reproduces every cell bit for bit.
    The table's wall time is the mean of the summaries' own. A failed cell
    is recorded in the manifest and skipped in the means.

    Nothing is written before the first repetition's problem is built and,
    when a variant runs under continuation, its weight has a schedule: a
    generator that rejects its arguments, or a zero weight, raises first.
    """
    out = Path(out_dir)
    cells = []
    finished = {}  # (variant name, eps) -> summaries of the cells that finished
    for rep in range(spec.repetitions):
        seed = spec.generator.seed + rep
        problem = spec.generator.with_seed(seed).make()
        if rep == 0:
            if any(v.continuation for v in spec.variants):
                ContinuationSchedule(tau_target=problem.regularizer.tau)
            (out / "traces").mkdir(parents=True, exist_ok=True)
        for eps in spec.tolerances:
            for variant in spec.variants:
                cell = {"variant": variant.name, "eps": eps, "rep": rep, "seed": seed}
                cells.append(cell)
                try:
                    res = run_one(problem, variant.config.replaced(eps=eps), variant.continuation)
                except Exception as exc:  # record and continue with other cells
                    cell["error"] = f"{type(exc).__name__}: {exc}"
                    continue
                cell |= solve_record(res)
                del cell["wall_time"]  # reported only in the table
                finished.setdefault((variant.name, eps), []).append(res.trace.summary)
                trace_name = f"{variant.file_stem}_eps{eps:g}_rep{rep}.csv"
                res.trace.write_csv(out / "traces" / trace_name)

    rows = [
        TableRow(
            variant=variant.name,
            eps=eps,
            mean_matvecs=float(np.mean([s.matvecs for s in done])),
            mean_wall_time=float(np.mean([s.wall_time for s in done])),
            mean_final_obj=float(np.mean([s.final_obj for s in done])),
            runs=len(done),
        )
        for variant in spec.variants
        for eps in spec.tolerances
        if (done := finished.get((variant.name, eps)))
    ]
    manifest = {
        "spec": asdict(spec),
        "seeds": [spec.generator.seed + r for r in range(spec.repetitions)],
        "cells": cells,
    }
    arrayio.write_records_csv(out / "table.csv", TableRow, rows)
    arrayio.write_json(out / "manifest.json", manifest)
    return rows, manifest
