"""Command-line front end: solve a generated problem, benchmark, fit rates.

``solve`` and ``bench`` rebuild each problem from its generator spec and
write no problem arrays: ``solve`` writes its trace, its summary and the
solution ``x.npy`` (``np.load`` reads it); traces feed ``rates`` and
``curve``. An input file that cannot be read, parsed or built, and an
option value the rate fit or the curve rejects, is a one-line usage error
(exit status 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .arrayio import write_json
from .continuation import ContinuationSchedule
from .harness import (
    ExperimentSpec,
    error_vs_matvec_curve,
    fit_rates,
    run_experiment,
    run_one,
    Variant,
    write_curve_csv,
)
from .problems import GeneratorSpec
from .solver import SolverConfig, Trace


def _load_json(path):
    return json.loads(Path(path).read_text())


class BadInput(Exception):
    """An input named on the command line cannot be read or built."""


@contextmanager
def _input(option):
    """Report a failure to read, parse or build ``option``'s input as ``BadInput``."""
    try:
        yield
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise BadInput(f"{option}: {type(exc).__name__}: {exc}") from None


def cmd_solve(args):
    if args.print_config:
        print(json.dumps(asdict(SolverConfig()), indent=2))
        return 0
    with _input("--config"):
        cfg = SolverConfig.from_dict(_load_json(args.config) if args.config else {})
    if args.eps is not None:
        with _input("--eps"):
            cfg = cfg.replaced(eps=args.eps)
    with _input("--spec"):
        problem = GeneratorSpec.from_dict(_load_json(args.spec)).make()
        if args.continuation:  # a zero weight has no schedule: fail before --out exists
            ContinuationSchedule(tau_target=problem.regularizer.tau)
    variant = Variant("cli", cfg, continuation=args.continuation)
    res = run_one(problem, variant, cfg.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    res.trace.write_csv(out / "trace.csv")
    summary = asdict(res.trace.summary)
    if variant.continuation:
        summary["stages"] = res.stages
    write_json(out / "summary.json", summary)
    np.save(out / "x.npy", res.x)
    print(
        f"status={res.status} iters={summary['iters']} "
        f"matvecs={summary['matvecs']} final_obj={summary['final_obj']:.12g}"
    )
    return 0


def cmd_bench(args):
    if args.print_config:
        spec = ExperimentSpec(generator=GeneratorSpec("bpdn"))
        print(json.dumps(asdict(spec), indent=2))
        return 0
    with _input("--spec"):
        spec = ExperimentSpec.from_dict(_load_json(args.spec))
        spec.generator.make()  # a generator argument out of range fails before --out exists
    rows, _ = run_experiment(spec, args.out)
    for row in rows:
        print(
            f"{row.variant:>12}  eps={row.eps:<8g} "
            f"Ax={row.mean_matvecs:10.1f}  obj={row.mean_final_obj:.6g}"
        )
    print(f"table and manifest written to {args.out}")
    return 0


def cmd_rates(args):
    with _input("--trace"):
        trace = Trace.read_csv(args.trace)
    with _input("--phi-star/--burn-in"):
        fit = fit_rates(trace, args.phi_star, burn_in=args.burn_in)
    payload = asdict(fit)
    write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_curve(args):
    with _input("--trace"):
        trace = Trace.read_csv(args.trace)
    with _input("--phi-star"):
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

    p = sub.add_parser("solve", help="solve a generated problem")
    p.add_argument("--spec", help="generator spec JSON (family, params, seed)")
    p.add_argument("--config", help="solver config JSON (partial overrides)")
    p.add_argument("--eps", type=float, help="override stopping tolerance")
    p.add_argument("--continuation", action="store_true")
    p.add_argument("--out", help="output directory for trace, summary and solution")
    p.add_argument("--print-config", action="store_true", help="print defaults and exit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment spec, emit table + manifest")
    p.add_argument("--spec", help="experiment spec JSON")
    p.add_argument("--out", help="output directory")
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


def _attach_negative_phi_star(argv):
    """Rewrite ``--phi-star -1e-3`` as ``--phi-star=-1e-3``.

    argparse takes a separate argument that starts with ``-`` as a value
    only when it reads as a plain negative decimal, so exponent forms and
    ``-inf`` would otherwise be reported as a missing value.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--phi-star" and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"--phi-star={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_phi_star(sys.argv[1:] if argv is None else argv))
    if args.command in ("solve", "bench") and not args.print_config:
        if not args.spec or not args.out:
            parser.error(f"{args.command} requires --spec and --out (or --print-config)")
        out = Path(args.out)
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            parser.error(f"--out: {nearest} exists and is not a directory")
    try:
        return args.func(args)
    except BadInput as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
