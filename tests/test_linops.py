import numpy as np
import pytest

from conftest import box_blur_complex_fft
from sparsa.linops import (
    Blur2D,
    ComposedOperator,
    DenseOperator,
    HaarSynthesis2D,
    PartialFourier2D,
    haar_analysis_2d,
    haar_synthesis_2d,
)


def all_concrete_ops(rng):
    return [
        DenseOperator(rng.standard_normal((5, 9))),
        PartialFourier2D(8, 8, rng.random((8, 8)) < 0.4),
        Blur2D(8, 8, 3),
        Blur2D(8, 8, 4),  # even kernel exercises the centering convention
        Blur2D(7, 9, 4),  # odd, non-square: irfft2 must be told the output shape
        HaarSynthesis2D(8, 8, 2),
        ComposedOperator(Blur2D(8, 8, 8), HaarSynthesis2D(8, 8, 3)),
    ]


class TestApplyAdjointBasics:
    def test_dense_apply(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.apply([1.0, 1.0]), [3.0, 7.0])

    def test_dense_adjoint(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.adjoint([1.0, 0.0]), [1.0, 2.0])

    def test_fourier_adjoint_of_zero(self):
        op = PartialFourier2D(4, 4, np.ones((4, 4), dtype=bool))
        assert np.allclose(op.adjoint(np.zeros(op.range_dim)), np.zeros(16))

    def test_dimension_mismatch_raises(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            op.apply([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            op.adjoint([1.0, 2.0, 3.0])


class TestAdjointConsistency:
    def test_random_pairs_all_operators(self, rng):
        # inner-product identity <Ax, y> == <x, A^T y> across 100 draws
        for op in all_concrete_ops(rng):
            for _ in range(100):
                x = rng.standard_normal(op.domain_dim)
                y = rng.standard_normal(op.range_dim)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.adjoint(y))
                bound = 1e-8 * (1 + np.linalg.norm(x) * np.linalg.norm(y))
                assert abs(lhs - rhs) <= bound, op.kind


class TestPartialFourier:
    def test_full_mask_roundtrip(self, rng):
        op = PartialFourier2D(2, 2, np.ones((2, 2), dtype=bool))
        x = rng.standard_normal(4)
        assert np.allclose(op.adjoint(op.apply(x)), x, atol=1e-12)

    def test_dc_coefficient_of_constant(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True  # DC lives at index (0, 0) in fft order
        op = PartialFourier2D(4, 4, mask)
        out = op.apply(np.full(16, 0.75))
        assert out[0] == pytest.approx(np.sqrt(16) * 0.75, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            PartialFourier2D(4, 4, np.zeros((4, 4), dtype=bool))


class TestBlur:
    def test_constant_preserved(self):
        op = Blur2D(8, 8, 4)
        x = np.full(64, 0.3)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_size_one_is_identity(self, rng):
        op = Blur2D(6, 6, 1)
        x = rng.standard_normal(36)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    @pytest.mark.parametrize(
        "rows, cols, m", [(16, 16, 5), (9, 7, 4)], ids=["16x16-m5", "9x7-m4"]
    )
    def test_matches_direct_convolution(self, rng, rows, cols, m):
        op = Blur2D(rows, cols, m)
        img = rng.standard_normal((rows, cols))
        # direct O(n^2) circular convolution, offsets arange(m) - m//2
        expected = np.zeros_like(img)
        for i in range(rows):
            for j in range(cols):
                acc = 0.0
                for di in range(m):
                    for dj in range(m):
                        acc += img[(i - (di - m // 2)) % rows, (j - (dj - m // 2)) % cols]
                expected[i, j] = acc / m**2
        assert np.allclose(op.apply(img.ravel()).reshape(rows, cols), expected, atol=1e-10)

    @pytest.mark.parametrize(
        "rows, cols, m", [(8, 8, 3), (7, 9, 4), (256, 256, 8)], ids=["8x8", "7x9", "256x256"]
    )
    def test_matches_complex_fft_reference(self, rng, rows, cols, m):
        op = Blur2D(rows, cols, m)
        x = rng.random(rows * cols)
        got_apply, got_adjoint = op.apply(x), op.adjoint(x)
        assert got_apply.shape == got_adjoint.shape == (rows * cols,)
        assert np.max(np.abs(got_apply - box_blur_complex_fft(x, rows, cols, m))) <= 1e-13
        assert np.max(np.abs(got_adjoint - box_blur_complex_fft(x, rows, cols, m, True))) <= 1e-13

    def test_transfer_functions_read_only(self):
        op = Blur2D(8, 8, 4)
        for transfer in (op._transfer, op._transfer_conj):
            with pytest.raises(ValueError):
                transfer[0, 0] = 0.0

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            Blur2D(4, 4, 5)

    @pytest.mark.parametrize(
        "args, name",
        [((8, 8, 2.0), "mask_size"), ((8, 8, True), "mask_size"), ((8.0, 8, 2), "rows"),
         ((8, np.float64(8), 2), "cols")],
        ids=["float-mask", "bool-mask", "float-rows", "numpy-float-cols"],
    )
    def test_non_integer_size_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Blur2D(*args)


class TestHaar:
    def test_levels_zero_is_identity(self, rng):
        op = HaarSynthesis2D(4, 4, 0)
        x = rng.standard_normal(16)
        assert np.array_equal(op.apply(x), x)

    def test_synthesis_of_analysis_roundtrip(self, rng):
        op = HaarSynthesis2D(8, 8, 3)
        y = rng.standard_normal(64)
        assert np.allclose(op.apply(op.adjoint(y)), y, atol=1e-12)

    def test_analysis_2x2_against_explicit_matrix(self):
        a, b, c, d = 1.7, -0.3, 2.5, 0.9
        got = haar_analysis_2d(np.array([[a, b], [c, d]]), 1)
        assert got[0, 0] == pytest.approx((a + b + c + d) / 2, abs=1e-15)
        assert got[0, 1] == pytest.approx((a - b + c - d) / 2, abs=1e-15)
        assert got[1, 0] == pytest.approx((a + b - c - d) / 2, abs=1e-15)
        assert got[1, 1] == pytest.approx((a - b - c + d) / 2, abs=1e-15)
        # the explicit 4x4 transform matrix is orthonormal
        H = np.zeros((4, 4))
        basis = np.eye(4)
        for col in range(4):
            H[:, col] = haar_analysis_2d(basis[col].reshape(2, 2), 1).ravel()
        assert np.allclose(H @ H.T, np.eye(4), atol=1e-14)
        assert np.allclose(H @ np.array([a, b, c, d]), got.ravel(), atol=1e-14)

    def test_constant_image_single_coarse_coefficient(self):
        c = 0.6
        coeffs = haar_analysis_2d(np.full((2, 2), c), 1)
        assert coeffs[0, 0] == pytest.approx(2 * c, abs=1e-15)
        assert np.allclose(coeffs.ravel()[1:], 0.0, atol=1e-15)

    def test_isometry(self, rng):
        op = HaarSynthesis2D(16, 16, 4)
        x = rng.standard_normal(256)
        assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_multilevel_roundtrip_functions(self, rng):
        img = rng.standard_normal((8, 8))
        back = haar_synthesis_2d(haar_analysis_2d(img, 3), 3)
        assert np.allclose(back, img, atol=1e-12)

    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            HaarSynthesis2D(6, 6, 2)

    @pytest.mark.parametrize(
        "args, name",
        [((8, 8, 1.5), "levels"), ((8, 8, False), "levels"), ((8, 8.0, 1), "cols"),
         ((np.float64(8), 8, 1), "rows")],
        ids=["float-levels", "bool-levels", "float-cols", "numpy-float-rows"],
    )
    def test_non_integer_size_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HaarSynthesis2D(*args)


class TestCounting:
    def test_counts_exact(self, rng):
        op = DenseOperator(rng.standard_normal((3, 4)))
        for _ in range(5):
            op.apply(np.zeros(4))
        for _ in range(3):
            op.adjoint(np.zeros(3))
        assert (op.forward_count, op.adjoint_count) == (5, 3)
        assert op.matvec_total == 8
        op.reset_counters()
        assert op.matvec_total == 0

    def test_composition_counts_once_and_constituents_none(self, rng):
        inner = HaarSynthesis2D(4, 4, 1)
        outer = Blur2D(4, 4, 2)
        comp = ComposedOperator(outer, inner)
        comp.apply(rng.standard_normal(16))
        assert comp.forward_count == 1
        comp.adjoint(rng.standard_normal(16))
        assert comp.adjoint_count == 1
        assert inner.matvec_total == outer.matvec_total == 0
        comp.reset_counters()
        assert comp.matvec_total == 0

    def test_composition_dimension_check(self):
        with pytest.raises(ValueError):
            ComposedOperator(DenseOperator(np.ones((2, 3))), DenseOperator(np.ones((2, 2))))
