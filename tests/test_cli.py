import json

import numpy as np
import pytest

from sparsa import arrayio
from sparsa.cli import main
from sparsa.harness import RateFit
from sparsa.solver import SolverConfig, Trace


def write_bpdn_spec(path, seed=0):
    spec = {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": seed}
    path.write_text(json.dumps(spec))
    return spec


class TestGenerate:
    def test_writes_problem_files(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        out = tmp_path / "problem"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "spec.json").exists()
        assert (out / "regularizer.json").exists()
        A = arrayio.read_raw(out / "A.raw")
        assert A.shape == (16, 64)
        b = arrayio.read_raw(out / "b.raw")
        assert b.shape == (16,)
        assert (out / "x_true.raw").exists()

    def test_csv_format(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        out = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(out), "--format", "csv"])
        assert (out / "A.csv").exists()
        assert arrayio.read_csv(out / "b.csv").shape == (16,)


class TestSolve:
    def test_print_config(self, capsys):
        assert main(["solve", "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == SolverConfig().to_dict()

    def test_solve_problem_dir(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        pdir = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(pdir)])
        out = tmp_path / "run"
        assert main(["solve", "--problem", str(pdir), "--out", str(out), "--eps", "1e-6"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert (out / "trace.csv").exists()
        x = arrayio.read_raw(out / "x.raw")
        assert x.shape == (64,)

    def test_solve_with_config_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        pdir = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(pdir)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ref_policy": "adaptive", "eps": 1e-4}))
        out = tmp_path / "run"
        main(["solve", "--problem", str(pdir), "--config", str(cfg_path), "--out", str(out)])
        assert json.loads((out / "summary.json").read_text())["final_residual"] <= 1e-4

    def test_removed_config_key_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        pdir = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(pdir)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eta": 3.0}))
        out = tmp_path / "run"
        with pytest.raises(TypeError, match="eta"):
            main(["solve", "--problem", str(pdir), "--config", str(cfg_path), "--out", str(out)])
        assert not out.exists()

    def test_continuation_flag_adds_stage_summaries(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        pdir = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(pdir)])
        out = tmp_path / "run"
        main(["solve", "--problem", str(pdir), "--out", str(out), "--continuation"])
        summary = json.loads((out / "summary.json").read_text())
        assert isinstance(summary["stages"], list)
        assert {"tau", "iters", "matvecs"} <= set(summary["stages"][0])

    def test_continuation_trace_feeds_rates_and_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_bpdn_spec(spec_path)
        pdir = tmp_path / "problem"
        main(["generate", "--spec", str(spec_path), "--out", str(pdir)])
        out = tmp_path / "run"
        main(["solve", "--problem", str(pdir), "--out", str(out), "--continuation"])
        trace_path = out / "trace.csv"
        phi_star = json.loads((out / "summary.json").read_text())["final_obj"]
        fit_out = tmp_path / "fit.json"
        assert main([
            "rates", "--trace", str(trace_path),
            "--phi-star", f"{phi_star - 1e-9}", "--out", str(fit_out),
        ]) == 0
        assert set(json.loads(fit_out.read_text())) == set(RateFit().to_dict())
        copy = tmp_path / "copy.csv"
        Trace.read_csv(trace_path).write_csv(copy)
        assert copy.read_bytes() == trace_path.read_bytes()


class TestBenchRatesCurve:
    def test_bench_and_downstream_tools(self, tmp_path, capsys):
        exp = {
            "generator": {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": 0},
            "variants": [
                {"name": "gll", "config": {**SolverConfig(cycle_m=1).to_dict()}},
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

    def test_bench_rejects_removed_config_key(self, tmp_path):
        exp = {
            "generator": {"family": "bpdn", "params": {"k": 16, "n": 64, "spikes": 4}, "seed": 0},
            "variants": [{"name": "gll", "config": {"cycle_m": 1, "eta": 3.0}}],
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(exp))
        out = tmp_path / "bench"
        with pytest.raises(TypeError, match="eta"):
            main(["bench", "--spec", str(spec_path), "--out", str(out)])
        assert not out.exists()

    def test_bench_print_config(self, capsys):
        assert main(["bench", "--print-config"]) == 0
        template = json.loads(capsys.readouterr().out)
        assert "generator" in template and "variants" in template

    def test_missing_args_error(self):
        with pytest.raises(SystemExit):
            main(["solve"])
        with pytest.raises(SystemExit):
            main(["bench"])
