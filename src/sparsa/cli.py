"""Command-line front end: generate problems, solve, benchmark, fit rates."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import arrayio
from .harness import (
    ExperimentSpec,
    error_vs_matvec_curve,
    fit_rates,
    run_experiment,
    run_one,
    Variant,
    write_curve_csv,
)
from .linops import DenseOperator
from .problems import GeneratorSpec
from .solver import SolverConfig, Trace


def _load_json(path):
    return json.loads(Path(path).read_text())


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def cmd_generate(args):
    spec = GeneratorSpec.from_dict(_load_json(args.spec))
    problem = spec.make()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "spec.json", spec.to_dict())
    _write_json(out / "regularizer.json", problem.regularizer.to_dict())
    writer = arrayio.write_csv if args.format == "csv" else arrayio.write_raw
    ext = "csv" if args.format == "csv" else "raw"
    writer(out / f"b.{ext}", problem.b)
    writer(out / f"x1.{ext}", problem.x1)
    if problem.x_true is not None:
        writer(out / f"x_true.{ext}", problem.x_true)
    if isinstance(problem.op, DenseOperator):
        writer(out / f"A.{ext}", problem.op.matrix)
    print(f"wrote problem ({spec.family}, seed {spec.seed}) to {out}")
    return 0


def cmd_solve(args):
    if args.print_config:
        print(json.dumps(SolverConfig().to_dict(), indent=2))
        return 0
    spec = GeneratorSpec.from_dict(_load_json(Path(args.problem) / "spec.json"))
    problem = spec.make()
    cfg = SolverConfig.from_dict(_load_json(args.config) if args.config else {})
    if args.eps is not None:
        cfg = cfg.replaced(eps=args.eps)
    variant = Variant("cli", cfg, continuation=args.continuation)
    x, trace, status, stages = run_one(problem, variant, cfg.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv")
    summary = trace.summary.to_dict()
    if stages is not None:
        summary["stages"] = stages
    _write_json(out / "summary.json", summary)
    arrayio.write_raw(out / "x.raw", x)
    print(
        f"status={status} iters={trace.summary.iters} "
        f"matvecs={trace.summary.matvecs} final_obj={trace.summary.final_obj:.12g}"
    )
    return 0


def cmd_bench(args):
    if args.print_config:
        spec = ExperimentSpec(generator=GeneratorSpec("bpdn"))
        print(json.dumps(spec.to_dict(), indent=2))
        return 0
    spec = ExperimentSpec.from_dict(_load_json(args.spec))
    out_dir = args.out or spec.output_dir
    rows, _ = run_experiment(spec, out_dir=out_dir, write_traces=not args.no_traces)
    for row in rows:
        print(
            f"{row['variant']:>12}  eps={row['eps']:<8g} "
            f"Ax={row['mean_matvecs']:10.1f}  obj={row['mean_final_obj']:.6g}"
        )
    print(f"table and manifest written to {out_dir}")
    return 0


def cmd_rates(args):
    trace = Trace.read_csv(args.trace)
    fit = fit_rates(trace, args.phi_star, burn_in=args.burn_in)
    _write_json(args.out, fit.to_dict())
    print(json.dumps(fit.to_dict(), indent=2))
    return 0


def cmd_curve(args):
    trace = Trace.read_csv(args.trace)
    curve = error_vs_matvec_curve(trace, args.phi_star)
    write_curve_csv(args.out, curve)
    print(f"{curve.shape[0]} points written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsa",
        description="Proximal solvers for f(x) + psi(x) with spectral stepsizes "
        "and a nonmonotone line search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="materialize a generated problem to disk")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("raw", "csv"), default="raw")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve a generated problem")
    p.add_argument("--problem", help="problem directory from `generate`")
    p.add_argument("--config", help="solver config JSON (partial overrides)")
    p.add_argument("--eps", type=float, help="override stopping tolerance")
    p.add_argument("--continuation", action="store_true")
    p.add_argument("--out", help="output directory for trace/summary")
    p.add_argument("--print-config", action="store_true", help="print defaults and exit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment spec, emit table + manifest")
    p.add_argument("--spec", help="experiment spec JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--no-traces", action="store_true")
    p.add_argument("--print-config", action="store_true", help="print a template and exit")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rates", help="fit convergence rates from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--phi-star", type=float, required=True, dest="phi_star")
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--out", required=True, help="rate-fit JSON output")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("curve", help="error-versus-matvecs CSV from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--phi-star", type=float, required=True, dest="phi_star")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and not args.print_config:
        if not args.problem or not args.out:
            parser.error("solve requires --problem and --out (or --print-config)")
    if args.command == "bench" and not args.print_config:
        if not args.spec:
            parser.error("bench requires --spec (or --print-config)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
