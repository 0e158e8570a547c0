import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sparsa.problems import (
    GENERATORS,
    GeneratorSpec,
    LeastSquaresProblem,
    gen_bpdn,
    gen_deblur,
    gen_group,
    gen_tv_phantom,
    radial_fourier_mask,
    shepp_logan,
)
from sparsa.problems import test_pattern as make_test_pattern
from sparsa.regularizers import L1Regularizer, TVIsoRegularizer
from sparsa.solver import SolverConfig, solve
from conftest import IdentityOperator, finite_difference_gradient, pgm_p5_bytes


class TestOracles:
    def test_value_and_gradient_formulas(self, rng):
        A = rng.standard_normal((6, 10))
        prob = LeastSquaresProblem(
            op=IdentityOperator(4),
            b=np.array([1.0, 2.0, 3.0, 4.0]),
            regularizer=L1Regularizer(0.5),
            x1=np.zeros(4),
        )
        x = rng.standard_normal(4)
        assert prob.f_value(x)[0] == pytest.approx(0.5 * np.sum((x - prob.b) ** 2))
        assert np.allclose(prob.f_grad(x), x - prob.b)

    def test_gradients_match_finite_differences(self, rng):
        problems = [
            gen_bpdn(k=12, n=24, spikes=4, seed=0),
            gen_group(seed=0, k=12, n=24, num_groups=6, active_groups=2),
            gen_deblur(make_test_pattern(8, 8), mask_size=3, levels=2, seed=0),
            gen_tv_phantom(rows=8, cols=8, num_lines=3, seed=0),
        ]
        for prob in problems:
            for _ in range(10):
                x = rng.standard_normal(prob.op.domain_dim)
                fd = finite_difference_gradient(lambda v: prob.f_value(v)[0], x)
                grad = prob.f_grad(x)
                denom = max(1.0, np.linalg.norm(grad))
                assert np.linalg.norm(grad - fd) / denom <= 1e-5


class TestBpdn:
    def test_bitwise_determinism(self):
        p1 = gen_bpdn(k=256, n=1024, spikes=160, seed=1)
        p2 = gen_bpdn(k=256, n=1024, spikes=160, seed=1)
        assert np.array_equal(p1.op.matrix, p2.op.matrix)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.x_true, p2.x_true)
        assert p1.regularizer.tau == p2.regularizer.tau

    def test_spike_count_and_values(self):
        p = gen_bpdn(k=32, n=128, spikes=20, seed=3)
        nonzero = p.x_true[p.x_true != 0]
        assert nonzero.size == 20
        assert set(np.unique(nonzero)) <= {-1.0, 1.0}

    def test_noise_energy_without_spikes(self):
        # b is pure noise: E||b||^2 = k * variance
        k = 64
        total = 0.0
        for seed in range(100):
            p = gen_bpdn(k=k, n=128, spikes=0, seed=seed, tau=1.0)
            assert np.all(p.x_true == 0)
            total += float(p.b @ p.b)
        mean = total / 100
        assert abs(mean - k * 1e-4) <= 0.2 * k * 1e-4

    def test_entry_variance(self):
        n = 256
        acc = 0.0
        for seed in range(200):
            p = gen_bpdn(k=64, n=n, spikes=0, seed=seed, tau=1.0)
            acc += float(np.var(p.op.matrix))
        mean_var = acc / 200
        assert abs(mean_var - 1 / (2 * n)) <= 0.1 / (2 * n)

    def test_default_tau_rule(self):
        p = gen_bpdn(k=32, n=64, spikes=8, seed=5)
        expected = 0.1 * np.max(np.abs(p.op.matrix.T @ p.b))
        assert p.regularizer.tau == pytest.approx(expected, rel=1e-15)

    def test_starts_from_zero(self):
        assert np.all(gen_bpdn(k=8, n=16, spikes=2, seed=0).x1 == 0)

    def test_spikes_bounded_by_dimension(self):
        with pytest.raises(ValueError):
            gen_bpdn(k=8, n=16, spikes=17, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"k": 0}, "k must be positive"), ({"k": -3}, "k must be positive"),
         ({"n": 0}, "n must be positive")],
        ids=["zero-k", "negative-k", "zero-n"],
    )
    def test_non_positive_size_rejected_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            gen_bpdn(**{"spikes": 0, **kwargs})

    def test_matrix_is_not_copied(self):
        # the operator keeps the drawn matrix: the peak is one matrix, not two
        gen_bpdn(k=256, n=1024, spikes=160, seed=0)
        tracemalloc.start()
        try:
            p = gen_bpdn(k=256, n=1024, spikes=160, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * p.op.matrix.nbytes


class TestGroup:
    def test_rows_orthonormal_at_paper_scale(self):
        p = gen_group(seed=0)
        A = p.op.matrix
        assert A.shape == (1024, 4096)
        gram = A @ A.T
        assert np.max(np.abs(gram - np.eye(1024))) <= 1e-10

    def test_inactive_group_count_at_paper_scale(self):
        p = gen_group(seed=0)
        zero_groups = sum(
            1 for g in p.regularizer.groups if np.all(p.x_true[g] == 0)
        )
        assert zero_groups == 64 - 8

    def test_tau_rule(self):
        p = gen_group(seed=1, k=32, n=128, num_groups=8, active_groups=2)
        expected = 0.3 * np.max(np.abs(p.op.matrix.T @ p.b))
        assert p.regularizer.tau == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_rows_rejected_by_name(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            gen_group(k=k, n=16, num_groups=4, active_groups=1)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError, match="k must be <= n"):
            gen_group(k=32, n=16, num_groups=4, active_groups=1)
        with pytest.raises(ValueError, match="k must be <= n"):
            GeneratorSpec("group", {"k": 32, "n": 16, "num_groups": 4}).make()

    def test_determinism(self):
        a = gen_group(seed=2, k=16, n=64, num_groups=8, active_groups=2)
        b = gen_group(seed=2, k=16, n=64, num_groups=8, active_groups=2)
        assert np.array_equal(a.op.matrix, b.op.matrix)
        assert np.array_equal(a.b, b.b)


class TestDeblur:
    def test_degenerate_operator_recovers_soft_threshold(self):
        img = make_test_pattern(8, 8)
        p = gen_deblur(img, mask_size=1, levels=0, seed=0, tau=0.05, noise_std=0.0)
        assert np.allclose(p.b, img.ravel(), atol=1e-12)
        res = solve(p, SolverConfig(eps=1e-12))
        expected = np.sign(img.ravel()) * np.maximum(np.abs(img.ravel()) - 0.05, 0.0)
        assert np.allclose(res.x, expected, atol=1e-10)

    def test_residual_matches_noise_energy(self):
        img = make_test_pattern(16, 16)
        n = 256
        acc = 0.0
        for seed in range(50):
            p = gen_deblur(img, mask_size=3, levels=2, seed=seed)
            x = p.x_true  # analysis coefficients of the clean image
            acc += p.f_value(x)[0]
        mean = acc / 50
        expected = 0.5 * n * 0.0055**2
        assert abs(mean - expected) <= 0.2 * expected

    def test_composed_adjoint_consistency(self, rng):
        p = gen_deblur(make_test_pattern(8, 8), mask_size=3, levels=1, seed=0)
        for _ in range(20):
            x = rng.standard_normal(p.op.domain_dim)
            y = rng.standard_normal(p.op.range_dim)
            lhs = float(p.op.apply(x) @ y)
            rhs = float(x @ p.op.adjoint(y))
            assert abs(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(x) * np.linalg.norm(y))

    def test_counters_start_at_zero(self):
        p = gen_deblur(make_test_pattern(8, 8), mask_size=3, levels=1, seed=0)
        assert p.matvec_total == 0

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            gen_deblur(make_test_pattern(6, 6), mask_size=3, levels=2, seed=0)

    def test_image_array_path_or_test_pattern(self, tmp_path):
        from sparsa import arrayio

        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_p5_bytes(make_test_pattern(8, 8)))
        # rows and cols are read only without an image
        cases = [
            (None, make_test_pattern(8, 8)),
            (str(path), arrayio.read_pgm(path)),
            (path, arrayio.read_pgm(path)),
        ]
        for image, picture in cases:
            a = gen_deblur(image, mask_size=3, levels=1, seed=1, rows=8, cols=8)
            b = gen_deblur(picture, mask_size=3, levels=1, seed=1, rows=99, cols=99)
            assert a.b.tobytes() == b.b.tobytes()
            assert a.x_true.tobytes() == b.x_true.tobytes()

    def test_non_finite_image_rejected(self):
        with pytest.raises(ValueError, match="image must be finite"):
            gen_deblur(np.full((8, 8), np.nan), mask_size=3, levels=1)

    @pytest.mark.parametrize("image", [5, [[[0.5]]]], ids=["scalar", "3-d"])
    def test_image_not_2d_rejected(self, image):
        with pytest.raises(ValueError, match="image must be a 2-D array"):
            gen_deblur(image)
        with pytest.raises(ValueError, match="image must be a 2-D array"):
            GeneratorSpec("deblur", {"image": image}).make()


class TestTvPhantom:
    def test_phantom_range_and_background(self):
        img = shepp_logan(64, 64)
        assert img.min() >= 0.0
        assert img.max() <= 1.0
        assert img[0, 0] == 0.0  # corners lie outside the head ellipse
        assert img[63, 63] == 0.0
        assert img[32, 32] > 0.0

    def test_phantom_matches_pointwise_oracle(self):
        from sparsa.problems import SHEPP_LOGAN_ELLIPSES

        rows = cols = 64
        img = shepp_logan(rows, cols)
        sampled = [(7, 11), (32, 32), (20, 45), (50, 30), (10, 54)]
        for i, j in sampled:
            x = (2 * j + 1) / cols - 1
            y = 1 - (2 * i + 1) / rows
            val = 0.0
            for inten, a, bb, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
                phi = np.deg2rad(phi_deg)
                xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
                yr = -(x - x0) * np.sin(phi) + (y - y0) * np.cos(phi)
                if (xr / a) ** 2 + (yr / bb) ** 2 <= 1.0:
                    val += inten
            assert img[i, j] == pytest.approx(val, abs=1e-12)

    def test_mask_cardinality_hits_target(self, rng):
        ratio = 6136.0 / 65536.0
        for num_lines in (4, 6, 10):
            mask = radial_fourier_mask(64, 64, num_lines, ratio, rng)
            assert int(mask.sum()) == round(ratio * 64 * 64)
        # within the 2% contract by construction
        assert abs(mask.sum() / (64 * 64) - ratio) <= 0.02 * ratio

    def test_dc_always_sampled(self, rng):
        mask = radial_fourier_mask(32, 32, 2, 0.02, rng)
        assert mask[0, 0]  # fft index order puts DC at the origin

    def test_generated_problem_shape_and_start(self):
        p = gen_tv_phantom(rows=16, cols=16, num_lines=4, seed=0)
        assert isinstance(p.regularizer, TVIsoRegularizer)
        assert p.regularizer.tau == 0.01
        assert p.op.domain_dim == 256
        # starting point is the adjoint of the observations
        assert np.allclose(p.x1, p.op._adjoint(p.b))
        assert p.matvec_total == 0

    def test_square_grid_required(self):
        with pytest.raises(ValueError):
            gen_tv_phantom(rows=16, cols=32, seed=0)

    def test_noise_is_the_third_substream(self, rng):
        kwargs = {"rows": 16, "cols": 16, "num_lines": 4, "seed": 5}
        clean = gen_tv_phantom(**kwargs)
        noisy = gen_tv_phantom(**kwargs, noise_std=0.01)
        assert noisy.b.tobytes() == gen_tv_phantom(**kwargs, noise_std=0.01).b.tobytes()
        draw = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2]).normal(
            0.0, 0.01, size=clean.b.shape
        )
        # compared as a sum: (b + draw) - b need not round back to draw
        assert noisy.b.tobytes() == (clean.b + draw).tobytes()
        assert noisy.x_true.tobytes() == clean.x_true.tobytes()
        # the same mask: every sample is read from the same spectrum slot
        assert noisy.op._read_at.tobytes() == clean.op._read_at.tobytes()
        x = rng.standard_normal(clean.op.domain_dim)
        assert noisy.op.apply(x).tobytes() == clean.op.apply(x).tobytes()

    def test_negative_num_lines_rejected(self):
        with pytest.raises(ValueError, match="num_lines must be >= 0"):
            gen_tv_phantom(rows=8, cols=8, num_lines=-3)
        gen_tv_phantom(rows=8, cols=8, num_lines=0)


@pytest.mark.parametrize(
    "generator, kwargs, name",
    [
        (gen_bpdn, {"noise_std": True}, "noise_std"),
        (gen_bpdn, {"noise_std": "x"}, "noise_std"),
        (gen_tv_phantom, {"rows": 8, "cols": 8, "num_lines": 2.5}, "num_lines"),
        (gen_bpdn, {"k": 8, "n": 16, "spikes": 2.5}, "spikes"),
        (gen_bpdn, {"k": 8, "n": 16, "spikes": True}, "spikes"),
        (gen_group, {"k": 8, "n": 16.0, "num_groups": 4, "active_groups": 1}, "n"),
        (gen_group, {"k": 8, "n": True, "num_groups": 1, "active_groups": 1}, "n"),
        (gen_group, {"k": 8, "n": 16, "num_groups": 4.0, "active_groups": 1}, "num_groups"),
        (gen_group, {"k": 8, "n": 16, "num_groups": True, "active_groups": 1}, "num_groups"),
        (gen_group, {"k": 8, "n": 16, "num_groups": 4, "active_groups": 1.0}, "active_groups"),
        (gen_group, {"k": 8, "n": 16, "num_groups": 4, "active_groups": True}, "active_groups"),
        (gen_tv_phantom, {"rows": 16.0, "cols": 16.0}, "rows"),
        (gen_tv_phantom, {"rows": 16, "cols": 16.0}, "cols"),
        (gen_deblur, {"rows": 64.0, "cols": 64.0}, "rows"),
        (gen_deblur, {"rows": 64, "cols": True}, "cols"),
    ],
    ids=["bool-noise", "string-noise", "fractional-num-lines", "float-spikes", "bool-spikes",
         "float-group-n", "bool-group-n", "float-num-groups", "bool-num-groups",
         "float-active-groups", "bool-active-groups", "float-phantom-rows", "float-phantom-cols",
         "float-deblur-rows", "bool-deblur-cols"],
)
def test_non_number_argument_rejected_by_name(generator, kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an? (integer|number)"):
        generator(**kwargs)


class TestGeneratorSpec:
    def test_round_trip_json(self):
        spec = GeneratorSpec("bpdn", {"k": 32, "n": 64, "spikes": 8}, seed=5)
        back = GeneratorSpec.from_dict(json.loads(json.dumps(asdict(spec))))
        assert back == spec

    def test_make_dispatch_matches_direct_call(self):
        spec = GeneratorSpec("bpdn", {"k": 16, "n": 32, "spikes": 4}, seed=9)
        p1 = spec.make()
        p2 = gen_bpdn(k=16, n=32, spikes=4, seed=9)
        assert np.array_equal(p1.op.matrix, p2.op.matrix)
        assert np.array_equal(p1.b, p2.b)

    def test_deblur_spec_uses_builtin_pattern(self):
        spec = GeneratorSpec(
            "deblur", {"rows": 8, "cols": 8, "mask_size": 3, "levels": 1}, seed=2
        )
        p1 = spec.make()
        p2 = gen_deblur(make_test_pattern(8, 8), mask_size=3, levels=1, seed=2)
        assert np.array_equal(p1.b, p2.b)

    def test_with_seed(self):
        spec = GeneratorSpec("bpdn", {"k": 8, "n": 16, "spikes": 2}, seed=0)
        assert spec.with_seed(3).seed == 3
        assert spec.seed == 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec("wavelet-zoo", {}, 0)

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_unknown_param_rejected_by_name(self, family):
        with pytest.raises(TypeError, match="spike"):
            GeneratorSpec(family, {"spike": 4})
        with pytest.raises(TypeError, match="spike"):
            GeneratorSpec.from_dict({"family": family, "params": {"spike": 4}})

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            GeneratorSpec.from_dict({"family": "bpdn", "seed": seed})

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_negative_seed_rejected(self, family):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GeneratorSpec(family, {}, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GENERATORS[family](seed=-1)

    @pytest.mark.parametrize(
        "family, params, name",
        [
            ("bpdn", {"tau": True}, "tau"),
            ("bpdn", {"tau": "0.1"}, "tau"),
            ("bpdn", {"noise_std": None}, "noise_std"),
            ("deblur", {"noise_std": [0.1]}, "noise_std"),
            ("tv-phantom", {"num_lines": 2.0}, "num_lines"),
        ],
    )
    def test_non_number_param_rejected(self, family, params, name):
        with pytest.raises(ValueError, match=f"{name} must be an? (integer|number)"):
            GeneratorSpec(family, params)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
    @pytest.mark.parametrize(
        "family, name",
        [("bpdn", "tau"), ("bpdn", "noise_std"), ("tv-phantom", "sampling_ratio"),
         ("group", "tau_coef")],
    )
    def test_non_finite_param_rejected(self, family, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GeneratorSpec(family, {name: bad})

    def test_optional_params_take_none(self):
        GeneratorSpec("bpdn", {"tau": None})
        GeneratorSpec("tv-phantom", {"num_lines": None})

    def test_pgm_image_source(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_p5_bytes(make_test_pattern(8, 8)))
        spec = GeneratorSpec(
            "deblur", {"image": str(path), "mask_size": 3, "levels": 1}, seed=1
        )
        p = spec.make()
        assert p.op.domain_dim == 64
