"""Workload definitions: which problems a pass generates and how it solves them.

A workload owns a pool of problem instances; the instance number is the
generator seed. A run with benchmark seed ``s`` solves the ``per_run``
consecutive instances starting at ``s`` (modulo the pool size), so seed 0
starts at instance 0, the instance the recorded reference counts
describe. Several instances per run keep the spread of the totals across
seeds small. Each instance has a committed reference optimum per tau (see
``make_reference.py``), which is why the pool is finite.

Import this module only after the BLAS thread count is pinned.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from sparsa import problems
from sparsa.solver import SolverConfig

GLL = SolverConfig(ref_policy="gll-max", cycle_m=1, eps=1e-5)
ADAPTIVE = SolverConfig(ref_policy="adaptive", eps=1e-5)


@dataclass(frozen=True)
class Cell:
    """One solve of an instance: a weight, a config, and plain or continuation."""

    label: str
    tau: float
    cfg: SolverConfig
    continuation: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (instance, tau) -> a fresh problem: the set-up work
    cells: tuple[Cell, ...]
    per_run: int
    pool: int
    # Largest accepted objective gap, (final - reference) / max(1, |reference|),
    # set with a margin above what the workload's eps reaches on the pool.
    gap_tol: float

    def instance_seeds(self, seed: int) -> list[int]:
        return [(seed + i) % self.pool for i in range(self.per_run)]

    def generate(self, instance: int, cell: Cell):
        return self.make(instance, cell.tau)


def spike_recovery(instance: int, tau: float):
    return problems.gen_bpdn(k=256, n=1024, spikes=160, seed=instance, tau=tau)


def tv_phantom(instance: int, tau: float):
    return problems.gen_tv_phantom(rows=128, cols=128, seed=instance, tau=tau)


def deblur(instance: int, tau: float):
    image = problems.test_pattern(256, 256)
    return problems.gen_deblur(image, mask_size=8, levels=3, seed=instance, tau=tau)


# The criterion-7 cells of the spike-recovery sweep (tests/test_acceptance.py).
BPDN_CELLS = tuple(
    [Cell(f"gll@{t:g}", t, GLL) for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    + [Cell(f"adaptive@{t:g}", t, ADAPTIVE) for t in (1e-3, 1e-4)]
    + [Cell(f"gll-cont@{t:g}", t, GLL, continuation=True) for t in (1e-4, 1e-5)]
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("bpdn-sweep", spike_recovery, BPDN_CELLS, per_run=3, pool=20, gap_tol=1e-3),
        Workload("tv-phantom", tv_phantom, (Cell("default@0.01", 0.01, SolverConfig(eps=1e-5)),),
                 per_run=2, pool=12, gap_tol=1e-4),
        Workload("deblur", deblur, (Cell("default@5e-05", 5e-5, SolverConfig(eps=1e-4)),),
                 per_run=5, pool=20, gap_tol=0.15),
    )
}
