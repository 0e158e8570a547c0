import csv
import io
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from sparsa import cli
from sparsa.cli import main
from sparsa.harness import (
    CurvePoint,
    ExperimentSpec,
    RateFit,
    TableRow,
    Variant,
    error_vs_matvec_curve,
    run_experiment,
    run_one,
    write_curve_csv,
)
from sparsa.problems import GeneratorSpec
from sparsa.solver import SolverConfig, Trace, TraceRecord
from conftest import stationarity_residual


def write_bpdn_spec(path, seed=0):
    spec = {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": seed}
    path.write_text(json.dumps(spec))
    return spec


class TestSolve:
    def test_print_config(self, capsys):
        assert main(["solve", "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == asdict(SolverConfig())

    def test_solve_problem_dir(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        out = tmp_path / "run"
        assert main(["solve", "--spec", str(spec_path), "--out", str(out), "--eps", "1e-6"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert (out / "trace.csv").exists()
        x = np.load(out / "x.npy")
        assert x.shape == (64,)

    def test_solution_file_is_the_result_bit_for_bit(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec = write_bpdn_spec(spec_path)
        out = tmp_path / "run"
        assert main(["solve", "--spec", str(spec_path), "--out", str(out)]) == 0
        cfg = SolverConfig()
        res = run_one(GeneratorSpec.from_dict(spec).make(), Variant("cli", cfg), cfg.eps)
        x_path = out / "x.npy"
        assert np.load(x_path).tobytes() == res.x.tobytes()
        # the .npy header records the length, so a truncated file is refused
        x_path.write_bytes(x_path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            np.load(x_path)

    def test_solve_with_config_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ref_policy": "adaptive", "eps": 1e-4}))
        out = tmp_path / "run"
        main(["solve", "--spec", str(spec_path), "--config", str(cfg_path), "--out", str(out)])
        assert Trace.read_csv(out / "trace.csv").records[-1].step_inf <= 1e-4  # the stop rule
        problem = GeneratorSpec.from_dict(json.loads(spec_path.read_text())).make()
        x = np.load(out / "x.npy")
        oracle = stationarity_residual(problem.regularizer, x, problem.f_grad(x))
        assert oracle <= json.loads((out / "summary.json").read_text())["final_residual"] + 1e-14

    def test_removed_config_key_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eta": 3.0}))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--spec", str(spec_path), "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    def test_continuation_flag_adds_stage_summaries(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        out = tmp_path / "run"
        main(["solve", "--spec", str(spec_path), "--out", str(out), "--continuation"])
        summary = json.loads((out / "summary.json").read_text())
        assert isinstance(summary["stages"], list)
        assert {"tau", "iters", "matvecs"} <= set(summary["stages"][0])

    def test_continuation_trace_feeds_rates_and_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        out = tmp_path / "run"
        main(["solve", "--spec", str(spec_path), "--out", str(out), "--continuation"])
        trace_path = out / "trace.csv"
        phi_star = json.loads((out / "summary.json").read_text())["final_obj"]
        fit_out = tmp_path / "fit.json"
        assert main([
            "rates", "--trace", str(trace_path),
            "--phi-star", f"{phi_star - 1e-9}", "--out", str(fit_out),
        ]) == 0
        assert set(json.loads(fit_out.read_text())) == set(asdict(RateFit()))
        copy = tmp_path / "copy.csv"
        Trace.read_csv(trace_path).write_csv(copy)
        assert copy.read_bytes() == trace_path.read_bytes()


class TestBenchRatesCurve:
    def test_bench_and_downstream_tools(self, tmp_path, capsys):
        exp = {
            "generator": {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": 0},
            "variants": [
                {"name": "gll", "config": asdict(SolverConfig(cycle_m=1))},
            ],
            "tolerances": [1e-4],
            "repetitions": 2,
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(exp))
        out = tmp_path / "bench"
        assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
        table = (out / "table.csv").read_text().splitlines()
        assert table[0].startswith("variant,eps,mean_matvecs")
        assert len(table) == 2

        traces = sorted((out / "traces").glob("*.csv"))
        assert len(traces) == 2

        # rates on one produced trace
        summary_cells = json.loads((out / "manifest.json").read_text())["cells"]
        phi_star = min(c["final_obj"] for c in summary_cells)
        fit_out = tmp_path / "fit.json"
        assert main([
            "rates", "--trace", str(traces[0]),
            "--phi-star", f"{phi_star - 1e-9}", "--out", str(fit_out),
        ]) == 0
        fit = json.loads(fit_out.read_text())
        assert {"a_hat", "b_hat", "theta_hat", "c_hat", "residual_r2", "burn_in"} <= set(fit)

        curve_out = tmp_path / "curve.csv"
        assert main([
            "curve", "--trace", str(traces[0]),
            "--phi-star", f"{phi_star - 1e-9}", "--out", str(curve_out),
        ]) == 0
        assert curve_out.read_text().startswith("matvecs,error")

    def test_bench_rejects_removed_config_key(self, tmp_path, capsys):
        exp = {
            "generator": {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": 0},
            "variants": [{"name": "gll", "config": {"cycle_m": 1, "eta": 3.0}}],
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(exp))
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(spec_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_print_config(self, capsys):
        assert main(["bench", "--print-config"]) == 0
        template = json.loads(capsys.readouterr().out)
        assert "generator" in template and "variants" in template
        assert "output_dir" not in template

    def test_bench_requires_out_before_any_solve(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({"generator": {"family": "bpdn"}}))

        def no_run(*args, **kwargs):
            raise AssertionError("bench ran without --out")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(spec_path)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_args_error(self):
        with pytest.raises(SystemExit):
            main(["solve"])
        with pytest.raises(SystemExit):
            main(["bench"])


BPDN = {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}}
DEBLUR = {"family": "deblur", "params": {"rows": 16, "cols": 16}}
TV = {"family": "tv-phantom", "params": {"rows": 8, "cols": 8}}
GROUP = {"family": "group", "params": {"k": 8, "n": 16, "num_groups": 4, "active_groups": 1}}


def with_params(spec, **params):
    return {**spec, "params": {**spec["params"], **params}}


class TestBadInput:
    """A file that cannot be read or built is one usage line, not a traceback."""

    @pytest.mark.parametrize(
        "command, spec, config, needle",
        [
            ("solve", None, None, "No such file"),
            ("solve", "{not json", None, "JSONDecodeError"),
            ("solve", {**BPDN, "sed": 3}, None, "sed"),
            ("solve", {**BPDN, "params": {"spike": 4}}, None, "spike"),
            ("solve", {"family": "lasso"}, None, "lasso"),
            ("solve", BPDN, {"cycle_m": 0}, "cycle_m must be positive"),
            ("solve", BPDN, "[1, 2]", "--config"),
            ("bench", {"generator": BPDN, "tolerance": [1e-3]}, None, "tolerance"),
            ("bench", {"generator": BPDN, "repetitions": 0}, None, "repetitions"),
            ("bench", {"variants": []}, None, "generator"),
            ("bench", {"generator": {**BPDN, "params": {"spike": 4}}}, None, "spike"),
            ("bench", {"generator": BPDN, "tolerances": [-1]}, None, "tolerances must be positive"),
            ("solve", {**BPDN, "seed": 1.7}, None, "seed must be an integer"),
            ("bench", {"generator": BPDN, "tolerances": [1e-3, 1e-3]}, None, "distinct"),
            ("solve", {**DEBLUR, "params": {**DEBLUR["params"], "mask_size": 2.0}}, None,
             "mask_size must be an integer"),
            ("bench", {"generator": {**DEBLUR, "params": {**DEBLUR["params"], "levels": 1.5}}},
             None, "levels must be an integer"),
            ("bench", {"generator": {**DEBLUR, "params": {**DEBLUR["params"], "mask_size": 32}}},
             None, "mask_size must be in"),
            ("bench", {"generator": BPDN, "variants": [{"name": "c", "continuation": "false"}]},
             None, "continuation must be true or false"),
            ("bench", {"generator": BPDN, "variants": [{"name": 5}]}, None,
             "name must be a string"),
            ("bench", {"generator": BPDN, "tolerances": [True]}, None,
             "tolerances must be a number"),
            ("solve", {**BPDN, "params": {**BPDN["params"], "tau": True}}, None,
             "tau must be a number"),
            ("bench", {"generator": {**BPDN, "params": {**BPDN["params"], "tau": "0.1"}}},
             None, "tau must be a number"),
            ("solve", with_params(TV, noise_std=float("nan")), None, "noise_std must be"),
            ("solve", with_params(TV, noise_std=-1.0), None, "noise_std must be"),
            ("solve", with_params(BPDN, noise_std=float("nan"), tau=1e-3), None,
             "noise_std must be"),
            ("solve", with_params(DEBLUR, noise_std=float("nan")), None, "noise_std must be"),
            ("solve", with_params(TV, sampling_ratio=-0.5), None, "sampling_ratio must be"),
            ("solve", with_params(BPDN, spikes=-3), None, "spikes must be"),
            ("solve", with_params(BPDN, n=0, spikes=0), None, "n must be positive"),
            ("solve", with_params(GROUP, num_groups=0), None, "num_groups must be"),
            ("solve", with_params(TV, rows=0, cols=0), None, "rows must be positive"),
            ("solve", with_params(TV, num_lines=-3), None, "num_lines must be >= 0"),
            ("bench", {"generator": with_params(TV, num_lines=-3)}, None,
             "num_lines must be >= 0"),
            ("solve", with_params(DEBLUR, image=5), None, "image must be a 2-D array"),
            ("solve", with_params(GROUP, k=32), None, "k must be <= n"),
            ("bench", {"generator": with_params(BPDN, tau=float("inf"))}, None,
             "tau must be finite"),
            ("bench", {"generator": BPDN, "variants": [{"name": "v", "config": {"eps": 0.1}}]},
             None, "list it in tolerances"),
            ("solve", with_params(DEBLUR, image=[[float("nan")] * 8] * 8), None,
             "image must be finite"),
            ("solve", {**BPDN, "seed": -1}, None, "seed must be >= 0"),
            ("bench", {"generator": {**BPDN, "seed": -1}}, None, "seed must be >= 0"),
        ],
        ids=[
            "missing-file", "bad-json", "unknown-spec-key", "unknown-param",
            "unknown-family", "invalid-config-value", "config-not-an-object",
            "unknown-experiment-key", "invalid-experiment-value", "missing-generator",
            "bench-unknown-param", "bench-negative-tolerance", "fractional-seed",
            "bench-colliding-tolerances", "fractional-mask-size", "bench-fractional-levels",
            "bench-mask-size-out-of-range", "bench-string-continuation", "bench-number-name",
            "bench-bool-tolerance", "bool-tau", "bench-string-tau",
            "tv-nan-noise", "tv-negative-noise", "bpdn-nan-noise", "deblur-nan-noise",
            "tv-negative-sampling-ratio", "bpdn-negative-spikes", "bpdn-zero-n", "group-zero-groups",
            "tv-zero-rows", "tv-negative-num-lines", "bench-tv-negative-num-lines",
            "deblur-scalar-image", "group-k-above-n", "bench-inf-tau", "bench-variant-eps",
            "deblur-nan-image", "negative-seed", "bench-negative-seed",
        ],
    )
    def test_usage_error(self, tmp_path, capsys, command, spec, config, needle):
        spec_path = tmp_path / "spec.json"
        if spec is not None:
            spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        argv = [command, "--spec", str(spec_path), "--out", str(tmp_path / "out")]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert needle in err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    def test_continuation_with_zero_weight(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(with_params(BPDN, tau=0.0)))
        argv = ["solve", "--spec", str(spec_path), "--out", str(tmp_path / "out"), "--continuation"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "tau_target must be positive" in err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["rates", "curve"])
    @pytest.mark.parametrize(
        "content, needle",
        [(None, "No such file"), ("k,obj\n1,0.5\n", "KeyError")],
        ids=["missing-file", "missing-column"],
    )
    def test_unreadable_trace(self, tmp_path, capsys, command, content, needle):
        trace_path = tmp_path / "trace.csv"
        if content is not None:
            trace_path.write_text(content)
        argv = [command, "--trace", str(trace_path), "--phi-star", "0", "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["rates", "--burn-in", "-1"], "--burn-in"),
            (["rates", "--burn-in", "TRACE_LENGTH"], "--burn-in"),
            (["rates", "--phi-star", "1e9"], "--phi-star"),
            (["curve", "--phi-star", "1e9"], "--phi-star"),
            *(([command, f"--phi-star={value}"], "ValueError: phi_star must be finite")
              for command in ("rates", "curve") for value in ("nan", "inf", "-inf")),
        ],
        ids=["negative-burn-in", "burn-in-past-trace", "rates-phi-star-too-high",
             "curve-phi-star-too-high",
             *(f"{command}-phi-star-{value}"
               for command in ("rates", "curve") for value in ("nan", "inf", "-inf"))],
    )
    def test_bad_option_value(self, tmp_path, capsys, argv, needle):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        run = tmp_path / "run"
        assert main(["solve", "--spec", str(spec_path), "--out", str(run)]) == 0
        trace_path = run / "trace.csv"
        length = len(Trace.read_csv(trace_path).records)
        argv = [str(length) if arg == "TRACE_LENGTH" else arg for arg in argv]
        if not any(arg.startswith("--phi-star") for arg in argv):
            argv += ["--phi-star", "0"]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trace", str(trace_path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert needle in last
        assert ("burn_in" if needle == "--burn-in" else "phi_star") in last
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "curve"])
    def test_negative_phi_star_as_separate_argument(self, tmp_path, capsys, command):
        # argparse alone reads "-1e-3" and "-inf" as options, not values
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        run = tmp_path / "run"
        assert main(["solve", "--spec", str(spec_path), "--out", str(run)]) == 0
        base = [command, "--trace", str(run / "trace.csv")]
        assert main(base + ["--phi-star", "-1e-3", "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(base + ["--phi-star", "-inf", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "ValueError: phi_star must be finite" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "path-below-file"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_out_names_existing_file(self, tmp_path, capsys, monkeypatch, command, below):
        # rejected before any problem is generated, let alone solved
        monkeypatch.setattr(GeneratorSpec, "make", lambda self: pytest.fail("generated"))
        spec_path = tmp_path / "spec.json"
        spec = BPDN if command == "solve" else {"generator": BPDN}
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        out.write_text("keep me")
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", str(spec_path), "--out", str(out / "run" if below else out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"--out: {out} exists and is not a directory" in err.splitlines()[-1]
        assert out.read_text() == "keep me"

    def test_bad_eps_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(BPDN))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--spec", str(spec_path), "--out", str(tmp_path / "out"), "--eps", "-1"])
        assert exc.value.code == 2
        assert "eps must be positive" in capsys.readouterr().err


def written(directory):
    return {str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file()}


def parse_records(path, record_type):
    """Read a package CSV with ``csv.DictReader`` only; the header must be the fields."""
    data = path.read_bytes()
    assert b"\r" not in data
    names = [f.name for f in fields(record_type)]
    parse = {"int": int, "float": float, "str": str}
    reader = csv.DictReader(io.StringIO(data.decode()))
    rows = list(reader)
    assert reader.fieldnames == names
    return [
        record_type(**{f.name: parse[f.type](row[f.name]) for f in fields(record_type)})
        for row in rows
    ]


def without_wall_times(record):
    return {k: v for k, v in asdict(record).items() if "wall_time" not in k}


class TestFileContract:
    """Each command writes a fixed set of files, and each is read by something.

    The solution ``x.npy`` is the answer; every trace feeds ``rates`` and
    ``curve``; ``table.csv``, ``summary.json`` and ``manifest.json`` are the
    reports. A new output file fails here until something reads it.
    """

    def test_solve_and_bench_outputs_are_read(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        traces = []
        for flags in ([], ["--continuation"]):
            out = tmp_path / ("solve" + "".join(flags))
            assert main(["solve", "--spec", str(spec_path), "--out", str(out), *flags]) == 0
            assert written(out) == {"trace.csv", "summary.json", "x.npy"}
            assert np.load(out / "x.npy").shape == (64,)
            assert json.loads((out / "summary.json").read_text())["status"] == "converged"
            traces.append(out / "trace.csv")

        exp_path = tmp_path / "exp.json"
        exp_path.write_text(json.dumps({"generator": json.loads(spec_path.read_text())}))
        out = tmp_path / "bench"
        assert main(["bench", "--spec", str(exp_path), "--out", str(out)]) == 0
        bench_traces = sorted((out / "traces").glob("*.csv"))
        assert len(bench_traces) == 4  # one per default variant
        assert written(out) == {"table.csv", "manifest.json"} | {
            f"traces/{p.name}" for p in bench_traces
        }
        assert len((out / "table.csv").read_text().splitlines()) == 5
        assert len(json.loads((out / "manifest.json").read_text())["cells"]) == 4

        for i, trace in enumerate(traces + bench_traces):
            phi_star = repr(float(Trace.read_csv(trace).objective_values().min()) - 1e-6)
            fit_out, curve_out = tmp_path / f"fit{i}.json", tmp_path / f"curve{i}.csv"
            assert main(["rates", "--trace", str(trace), "--phi-star", phi_star,
                         "--out", str(fit_out)]) == 0
            assert main(["curve", "--trace", str(trace), "--phi-star", phi_star,
                         "--out", str(curve_out)]) == 0
            assert len(curve_out.read_text().splitlines()) == len(Trace.read_csv(trace).records) + 1

    def test_every_csv_reads_back_by_its_fields(self, tmp_path):
        spec = ExperimentSpec(
            generator=GeneratorSpec("bpdn", BPDN["params"]),
            variants=[Variant("x,y"), Variant("gll/c", continuation=True)],
            tolerances=[1e-4],
        )
        rows, _ = run_experiment(spec, tmp_path / "bench")
        table = parse_records(tmp_path / "bench" / "table.csv", TableRow)
        assert [without_wall_times(r) for r in table] == [without_wall_times(r) for r in rows]
        assert [r.mean_wall_time for r in table] == pytest.approx(
            [r.mean_wall_time for r in rows], abs=1e-6
        )

        res = run_one(spec.generator.make(), spec.variants[1], 1e-4)
        res.trace.write_csv(tmp_path / "trace.csv")
        trace = parse_records(tmp_path / "trace.csv", TraceRecord)
        assert [without_wall_times(r) for r in trace] == [
            without_wall_times(r) for r in res.trace.records
        ]
        assert [r.wall_time for r in trace] == pytest.approx(
            [r.wall_time for r in res.trace.records], abs=1e-6
        )
        assert {p.name for p in (tmp_path / "bench" / "traces").iterdir()} == {
            "x,y_eps0.0001_rep0.csv", "gll-c_eps0.0001_rep0.csv"
        }

        curve = error_vs_matvec_curve(res.trace, res.trace.summary.final_obj - 1e-6)
        write_curve_csv(tmp_path / "curve.csv", curve)
        points = parse_records(tmp_path / "curve.csv", CurvePoint)
        assert [(p.matvecs, p.error) for p in points] == [(int(m), e) for m, e in curve]

    def test_bench_no_traces_flag_is_gone(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({"generator": BPDN}))
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", str(spec_path), "--out", str(out), "--no-traces"])
        assert exc.value.code == 2
        assert "--no-traces" in capsys.readouterr().err
        assert not out.exists()
