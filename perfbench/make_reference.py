"""Regenerate the committed reference optima in ``perfbench/reference/``.

Each reference is the final objective of one tight-tolerance solve per
(instance, tau), far tighter than the benchmark's own eps:

- bpdn-sweep: continuation with the adaptive policy at eps 1e-9;
- tv-phantom: adaptive policy at eps 1e-6 with 200 TV inner iterations
  and inner tolerance 1e-9;
- deblur: adaptive policy at eps 1e-6.

Every point's objective bounds the optimum from above, so these are upper
bounds that sit much closer to the optimum than any benchmark solve.

Usage, from the repository root (adds missing entries to the existing file):

    python3 perfbench/make_reference.py --workload tv-phantom --first 0 --count 12
"""

from __future__ import annotations

import argparse
import json
import time

from run import REFERENCE_DIR, prepare


def reference_optimum(workload, instance: int, tau: float) -> float:
    from sparsa.continuation import ContinuationSchedule, solve_with_continuation
    from sparsa.regularizers import TVIsoRegularizer
    from sparsa.solver import SolverConfig, solve

    cell = next(c for c in workload.cells if c.tau == tau)
    problem = workload.generate(instance, cell)
    if workload.name == "bpdn-sweep":
        cfg = SolverConfig(ref_policy="adaptive", eps=1e-9, max_iters=10**6)
        result = solve_with_continuation(problem, ContinuationSchedule(tau_target=tau), cfg)
    else:
        if workload.name == "tv-phantom":
            reg = problem.regularizer
            tight = TVIsoRegularizer(reg.tau, reg.grid, inner_max_iters=200, inner_tol=1e-9)
            problem = problem.replaced(regularizer=tight)
        result = solve(problem, SolverConfig(ref_policy="adaptive", eps=1e-6, max_iters=10**6))
    if result.status != "converged":
        raise RuntimeError(f"reference solve ended with status {result.status}")
    return result.trace.summary.final_obj


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--force", action="store_true", help="recompute existing entries")
    args = parser.parse_args()
    prepare()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    path = REFERENCE_DIR / f"{workload.name}.json"
    taus = sorted({c.tau for c in workload.cells}, reverse=True)
    for instance in range(args.first, args.first + args.count):
        done = load(path).get(str(instance), {})
        row = {}
        for tau in taus:
            key = f"{tau:g}"
            if key in done and not args.force:
                continue
            t0 = time.perf_counter()
            row[key] = reference_optimum(workload, instance, tau)
            print(f"{workload.name} instance {instance} tau {key}: {row[key]!r} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
        # re-read just before writing, so that runs on other instances can share the file
        table = load(path)
        table.setdefault(str(instance), {}).update(row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({k: table[k] for k in sorted(table, key=int)}, indent=1) + "\n")


def load(path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


if __name__ == "__main__":
    main()
