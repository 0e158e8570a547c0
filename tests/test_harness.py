import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from sparsa import solver
from sparsa.harness import (
    ExperimentSpec,
    Variant,
    default_burn_in,
    error_vs_matvec_curve,
    fit_linear,
    fit_rates,
    fit_sublinear,
    run_experiment,
    write_curve_csv,
)
from sparsa.problems import GeneratorSpec, gen_bpdn
from sparsa.solver import BacktrackLimitExceeded, SolverConfig, solve


class TestFitSublinear:
    def test_exact_model_recovered(self):
        ks = np.arange(1, 200)
        errors = 10.0 / (5.0 + ks)
        a, b, ok = fit_sublinear(errors, burn_in=0)
        assert ok
        assert a == pytest.approx(10.0, abs=1e-6)
        assert b == pytest.approx(5.0, abs=1e-4)

    def test_geometric_decay_also_accepted(self):
        errors = 0.9 ** np.arange(1, 80)
        _, _, ok = fit_sublinear(errors, burn_in=0)
        assert ok  # reciprocals grow superlinearly, increments stay positive

    def test_increasing_errors_rejected(self):
        errors = np.linspace(1.0, 2.0, 30)
        _, _, ok = fit_sublinear(errors, burn_in=0)
        assert not ok

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_sublinear(np.array([1.0, 0.5, 0.25, 0.2]), burn_in=0)

    def test_nonpositive_errors_filtered(self):
        ks = np.arange(1, 40)
        errors = 10.0 / (5.0 + ks)
        errors[10] = 0.0  # exact optimum hit mid-run
        a, b, ok = fit_sublinear(errors, burn_in=0)
        assert ok


class TestFitLinear:
    def test_exact_model_recovered(self):
        errors = 100.0 * 0.9 ** np.arange(1, 60)
        theta, c, r2 = fit_linear(errors, burn_in=0)
        assert theta == pytest.approx(0.9, abs=1e-6)
        assert c == pytest.approx(100.0, rel=1e-6)
        assert r2 > 0.9999

    def test_constant_errors_give_theta_one(self):
        theta, _, r2 = fit_linear(np.full(30, 2.5), burn_in=0)
        assert theta == pytest.approx(1.0, abs=1e-12)
        assert r2 == 1.0  # a constant is fit exactly by the horizontal line

    def test_burn_in_respected(self):
        errors = np.concatenate([np.full(10, 7.0), 100.0 * 0.8 ** np.arange(1, 40)])
        theta, _, r2 = fit_linear(errors, burn_in=10)
        assert theta == pytest.approx(0.8, abs=1e-6)

    def test_bad_burn_in_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(np.ones(10), burn_in=10)


class TestFitRates:
    def test_strongly_convex_instance_decays_linearly(self):
        prob = gen_bpdn(k=64, n=64, spikes=10, seed=0)
        res = solve(prob, SolverConfig(eps=1e-8))
        oracle = gen_bpdn(k=64, n=64, spikes=10, seed=0)
        ores = solve(oracle, SolverConfig(eps=1e-13, max_iters=1_000_000))
        phi_star = min(ores.trace.summary.final_obj, float(ores.trace.objective_values().min()))
        fit = fit_rates(res.trace, phi_star)
        assert fit.theta_hat < 1.0
        assert fit.residual_r2 > 0.95
        assert fit.burn_in == default_burn_in(len(res.trace.records))


@pytest.mark.parametrize("phi_star", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_phi_star_rejected(phi_star):
    res = solve(gen_bpdn(k=16, n=64, spikes=4, seed=1), SolverConfig(eps=1e-3))
    with pytest.raises(ValueError, match="phi_star must be finite"):
        fit_rates(res.trace, phi_star)
    with pytest.raises(ValueError, match="phi_star must be finite"):
        error_vs_matvec_curve(res.trace, phi_star)


@pytest.mark.parametrize("phi_star", [True, "0.5"], ids=repr)
def test_non_number_phi_star_rejected(phi_star):
    res = solve(gen_bpdn(k=16, n=64, spikes=4, seed=1), SolverConfig(eps=1e-3))
    with pytest.raises(ValueError, match="phi_star must be a number"):
        fit_rates(res.trace, phi_star)
    with pytest.raises(ValueError, match="phi_star must be a number"):
        error_vs_matvec_curve(res.trace, phi_star)


class TestCurve:
    def test_single_iteration_trace(self):
        prob = gen_bpdn(k=16, n=32, spikes=4, seed=1, tau=10.0)  # stops immediately
        res = solve(prob, SolverConfig())
        curve = error_vs_matvec_curve(res.trace, phi_star=0.0)
        assert curve.shape == (1, 2)

    def test_self_referenced_optimum_gives_zero_last_error(self):
        prob = gen_bpdn(k=32, n=64, spikes=8, seed=2)
        res = solve(prob, SolverConfig(eps=1e-8))
        curve = error_vs_matvec_curve(res.trace, phi_star=res.trace.summary.final_obj)
        assert curve[-1, 1] >= 0
        assert curve[-1, 1] <= 1e-9
        assert np.all(np.diff(curve[:, 0]) >= 0)

    def test_inconsistent_optimum_rejected(self):
        prob = gen_bpdn(k=32, n=64, spikes=8, seed=2)
        res = solve(prob, SolverConfig(eps=1e-8))
        with pytest.raises(ValueError):
            error_vs_matvec_curve(res.trace, phi_star=res.trace.summary.final_obj + 1.0)

    def test_csv_output(self, tmp_path):
        prob = gen_bpdn(k=32, n=64, spikes=8, seed=2)
        res = solve(prob, SolverConfig(eps=1e-6))
        curve = error_vs_matvec_curve(res.trace, phi_star=res.trace.summary.final_obj)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "matvecs,error"
        assert len(lines) == curve.shape[0] + 1


def small_spec(reps=1, tolerances=(1e-2,)):
    return ExperimentSpec(
        generator=GeneratorSpec("bpdn", {"k": 16, "n": 64, "spikes": 4}, seed=0),
        variants=[Variant("gll", SolverConfig(ref_policy="gll-max", cycle_m=1))],
        tolerances=list(tolerances),
        repetitions=reps,
    )


class TestRunExperiment:
    def test_smallest_experiment_single_row(self, tmp_path):
        rows, manifest = run_experiment(small_spec(), out_dir=tmp_path)
        assert len(rows) == 1
        assert rows[0].variant == "gll"
        assert rows[0].runs == 1
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 1

    def test_manifest_replays_identically(self, tmp_path):
        _, m1 = run_experiment(small_spec(reps=2, tolerances=(1e-2, 1e-3)), out_dir=tmp_path / "a")
        _, m2 = run_experiment(small_spec(reps=2, tolerances=(1e-2, 1e-3)), out_dir=tmp_path / "b")
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma == mb

    def test_tables_identical_excluding_wall_time(self, tmp_path):
        run_experiment(small_spec(reps=2), out_dir=tmp_path / "a")
        run_experiment(small_spec(reps=2), out_dir=tmp_path / "b")

        def strip_wall(path):
            lines = (path / "table.csv").read_text().splitlines()
            header = lines[0].split(",")
            drop = header.index("mean_wall_time")
            return [
                ",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                for line in lines
            ]

        assert strip_wall(tmp_path / "a") == strip_wall(tmp_path / "b")

    def test_shared_seed_per_repetition(self, tmp_path):
        spec = small_spec(reps=3)
        spec.variants.append(Variant("adaptive", SolverConfig(ref_policy="adaptive")))
        _, manifest = run_experiment(spec, tmp_path)
        by_rep = {}
        for cell in manifest["cells"]:
            by_rep.setdefault(cell["rep"], set()).add(cell["seed"])
        assert all(len(seeds) == 1 for seeds in by_rep.values())
        assert manifest["seeds"] == [0, 1, 2]

    def test_failed_cell_recorded_and_others_proceed(self, monkeypatch, tmp_path):
        spec = small_spec(reps=1)
        spec.variants = [
            Variant("broken", SolverConfig(ref_policy="adaptive")),
            Variant("gll", SolverConfig(ref_policy="gll-max", cycle_m=1)),
        ]
        line_search_step = solver.line_search_step

        # the line search finds no step for the adaptive variant only
        def fail_adaptive(x, g, phi_ref, alpha_seed, f_value, reg, cfg, prox_state=None):
            if cfg.ref_policy == "adaptive":
                raise BacktrackLimitExceeded("no acceptable step")
            return line_search_step(x, g, phi_ref, alpha_seed, f_value, reg, cfg, prox_state)

        monkeypatch.setattr(solver, "line_search_step", fail_adaptive)
        rows, manifest = run_experiment(spec, tmp_path)
        errors = [c for c in manifest["cells"] if "error" in c]
        assert len(errors) == 1
        assert "BacktrackLimitExceeded" in errors[0]["error"]
        assert [r.variant for r in rows] == ["gll"]

    def test_nothing_written_when_the_generator_rejects_its_arguments(self, tmp_path):
        generator = GeneratorSpec("deblur", {"rows": 16, "cols": 16, "mask_size": 32})
        spec = replace(small_spec(), generator=generator)
        with pytest.raises(ValueError, match="mask_size"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "empty", [{"repetitions": 0}, {"repetitions": -1}, {"tolerances": []}],
        ids=["no-repetitions", "negative-repetitions", "no-tolerances"],
    )
    def test_empty_spec_rejected(self, empty):
        spec = small_spec()
        with pytest.raises(ValueError):
            replace(spec, **empty)
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({**asdict(spec), **empty})

    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"tolerances": [-1.0]}, "eps must be positive"),
            ({"tolerances": [1e-3, float("nan")]}, "tolerances must be finite"),
            ({"repetitions": 2.9}, "repetitions must be an integer"),
            ({"repetitions": True}, "repetitions must be an integer"),
            ({"generator": {"family": "bpdn", "seed": 1.7}}, "seed must be an integer"),
        ],
        ids=["negative-tolerance", "nan-tolerance", "fractional-repetitions",
             "bool-repetitions", "fractional-seed"],
    )
    def test_invalid_value_rejected(self, patch, needle):
        with pytest.raises(ValueError, match=needle):
            ExperimentSpec.from_dict({**asdict(small_spec()), **patch})

    @pytest.mark.parametrize(
        "names", [["v", "v"], ["a/b", "a-b"]], ids=["duplicate", "same-trace-file"]
    )
    def test_colliding_variant_names_rejected(self, names):
        with pytest.raises(ValueError, match="distinct"):
            replace(small_spec(), variants=[Variant(name) for name in names])

    @pytest.mark.parametrize(
        "tolerances", [[1e-3, 1e-3], [1e-4, 1.0000001e-4]], ids=["duplicate", "same-trace-file"]
    )
    def test_colliding_tolerances_rejected(self, tolerances):
        with pytest.raises(ValueError, match=r"distinct.*\[" + ", ".join(map(repr, tolerances))):
            replace(small_spec(), tolerances=tolerances)
        with pytest.raises(ValueError, match="distinct"):
            ExperimentSpec.from_dict({**asdict(small_spec()), "tolerances": tolerances})

    def test_variant_eps_rejected(self):
        variants = [Variant("a", SolverConfig(eps=1e-1))]
        with pytest.raises(ValueError, match="variant 'a' sets eps.*tolerances"):
            replace(small_spec(), variants=variants)
        with pytest.raises(ValueError, match="variant 'a' sets eps.*tolerances"):
            ExperimentSpec.from_dict(
                {**asdict(small_spec()), "variants": [{"name": "a", "config": {"eps": 0.1}}]}
            )

    def test_spec_without_variants_rejected(self):
        with pytest.raises(ValueError):
            replace(small_spec(), variants=[])

    def test_spec_round_trip(self):
        spec = small_spec(reps=2, tolerances=(1e-2, 1e-4))
        back = ExperimentSpec.from_dict(asdict(spec))
        assert asdict(back) == asdict(spec)

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"tolerance": [1e-3]}, "tolerance"),
            ({"repetition": 2}, "repetition"),
            ({"output_dir": "bench"}, "output_dir"),
            ({"generator": {"family": "bpdn", "param": {"k": 16}}}, "param"),
            ({"generator": {"family": "bpdn", "sed": 3}}, "sed"),
            ({"variants": [{"name": "gll", "continuaton": True}]}, "continuaton"),
        ],
        ids=["tolerance", "repetition", "output_dir", "param", "sed", "continuaton"],
    )
    def test_unknown_key_rejected(self, patch, key):
        with pytest.raises(TypeError, match=f"'{key}'"):
            ExperimentSpec.from_dict({**asdict(small_spec()), **patch})

    @pytest.mark.parametrize(
        "variant, needle",
        [
            ({"name": "v", "continuation": "false"}, "continuation must be true or false"),
            ({"name": "v", "continuation": 1}, "continuation must be true or false"),
            ({"name": 5}, "name must be a string"),
        ],
        ids=["string-continuation", "int-continuation", "number-name"],
    )
    def test_variant_types_checked(self, variant, needle):
        with pytest.raises(ValueError, match=needle):
            Variant.from_dict(variant)
        with pytest.raises(ValueError, match=needle):
            ExperimentSpec.from_dict({**asdict(small_spec()), "variants": [variant]})

    @pytest.mark.parametrize("tolerance", [True, "1e-3", None], ids=["bool", "string", "null"])
    def test_tolerance_must_be_a_number(self, tolerance):
        with pytest.raises(ValueError, match="tolerances must be a number"):
            ExperimentSpec.from_dict({**asdict(small_spec()), "tolerances": [tolerance]})
        with pytest.raises(ValueError, match="tolerances must be a number"):
            replace(small_spec(), tolerances=[1e-3, tolerance])

    def test_integer_tolerance_is_read_as_float(self):
        spec = ExperimentSpec.from_dict({**asdict(small_spec()), "tolerances": [1]})
        assert spec.tolerances == [1.0] and isinstance(spec.tolerances[0], float)

    def test_missing_keys_take_defaults(self):
        spec = ExperimentSpec.from_dict({"generator": {"family": "bpdn"}, "variants": []})
        assert spec == ExperimentSpec(generator=GeneratorSpec("bpdn"))
        assert GeneratorSpec.from_dict({"family": "group"}) == GeneratorSpec("group", {}, 0)
        assert Variant.from_dict({"name": "v"}) == Variant("v")

    def test_continuation_variant_records_stages(self, tmp_path):
        spec = small_spec()
        spec.variants = [Variant("gll/c", SolverConfig(cycle_m=1), continuation=True)]
        _, manifest = run_experiment(spec, out_dir=tmp_path)
        cell = manifest["cells"][0]
        assert "stages" in cell
        assert cell["stages"][-1]["tau"] == pytest.approx(
            GeneratorSpec("bpdn", {"k": 16, "n": 64, "spikes": 4}, seed=0).make().regularizer.tau
        )
