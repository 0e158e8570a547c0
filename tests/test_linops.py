import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    box_blur_complex_fft,
    box_blur_window_sums,
    haar_analysis_quadrants,
    haar_synthesis_quadrants,
    partial_fourier_complex_fft,
)
from sparsa.linops import (
    FLOAT32_MIN_ENTRIES,
    Blur2D,
    ComposedOperator,
    DenseOperator,
    HaarSynthesis2D,
    PartialFourier2D,
    haar_analysis_2d,
    haar_synthesis_2d,
)
from sparsa.problems import gen_deblur


def image_ops_with_twins():
    """The 256x256 image operators (FLOAT32_MIN_ENTRIES pixels): each has a twin."""
    blur, haar = Blur2D(256, 256, 8), HaarSynthesis2D(256, 256, 3)
    return [blur, haar, ComposedOperator(blur, haar), Blur2D(256, 256, 7)]


def blur_after_dense(rng):
    """A 256x256 blur after a dense 65536x2 part: its twin has a dense twin inside."""
    return ComposedOperator(Blur2D(256, 256, 8), DenseOperator(rng.standard_normal((256 * 256, 2))))


def all_concrete_ops(rng):
    return [
        DenseOperator(rng.standard_normal((5, 9))),
        PartialFourier2D(8, 8, rng.random((8, 8)) < 0.4),
        PartialFourier2D(7, 9, rng.random((7, 9)) < 0.4),  # odd, non-square: no Nyquist column
        Blur2D(8, 8, 3),
        Blur2D(8, 8, 4),  # even kernel exercises the centering convention
        Blur2D(7, 9, 4),  # odd, non-square: rows and columns wrap at different widths
        HaarSynthesis2D(8, 8, 2),
        HaarSynthesis2D(16, 32, 4),  # non-square grids
        HaarSynthesis2D(12, 20, 2),
        ComposedOperator(Blur2D(8, 8, 8), HaarSynthesis2D(8, 8, 3)),
    ]


class TestApplyAdjointBasics:
    def test_dense_apply(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.apply([1.0, 1.0]), [3.0, 7.0])

    def test_dense_adjoint(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.adjoint([1.0, 0.0]), [1.0, 2.0])

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_dense_products_are_matmul_in_the_matrix_dtype(self, rng, precision):
        # FLOAT32_MIN_ENTRIES entries: the smallest matrix with a float32 twin
        matrix = rng.standard_normal((128, 512))
        op = DenseOperator(matrix)
        if precision == "float32":
            op, matrix = op.float32(), matrix.astype(np.float32)
        x, y = rng.standard_normal(512), rng.standard_normal(128)
        for product, a, v in ((op.apply, matrix, x), (op.adjoint, matrix.T, y)):
            assert product(v).tobytes() == (a @ v.astype(a.dtype)).astype(np.float64).tobytes()

    def test_fourier_adjoint_of_zero(self):
        op = PartialFourier2D(4, 4, np.ones((4, 4), dtype=bool))
        assert np.allclose(op.adjoint(np.zeros(op.range_dim)), np.zeros(16))

    def test_dense_copies_a_writeable_matrix(self, rng):
        matrix = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        op = DenseOperator(matrix)
        before = op.apply(x)
        matrix[:] = 0.0
        assert np.array_equal(op.apply(x), before)
        assert not op.matrix.flags.writeable

    def test_dense_keeps_only_a_frozen_owner(self, rng):
        frozen = rng.standard_normal((3, 4))
        frozen.setflags(write=False)
        assert DenseOperator(frozen).matrix is frozen
        view = frozen[:, :2]  # read-only, but not the owner of its data
        assert DenseOperator(view).matrix is not view
        single = frozen.astype(np.float32)
        single.setflags(write=False)
        assert DenseOperator(single).matrix.dtype == np.float64

    def test_dimension_mismatch_raises(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=r"^x: expected vector of length 2, got shape \(3,\)"):
            op.apply([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^y: expected vector of length 2, got shape \(3,\)"):
            op.adjoint([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^y: expected vector of length 2, got shape \(2, 1\)"):
            op.adjoint([[1.0], [2.0]])


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
                assert abs(lhs - rhs) <= bound, type(op).__name__

    def test_out_receives_the_same_bytes(self, rng):
        # the private ``out=`` path a composition uses writes what the public call returns;
        # a twin also takes a float32 ``out`` (a composition's intermediate) and returns it
        twins = [DenseOperator(rng.standard_normal((128, 512))).float32()]
        twins += [op.float32() for op in image_ops_with_twins() + [blur_after_dense(rng)]]
        for op in all_concrete_ops(rng) + twins:
            x = rng.standard_normal(op.domain_dim)
            y = rng.standard_normal(op.range_dim)
            for private, public, v in ((op._apply, op.apply, x), (op._adjoint, op.adjoint, y)):
                out = np.empty(public(v).size)
                assert private(v, out) is out
                assert out.tobytes() == public(v).tobytes(), type(op).__name__
                if op in twins:
                    out32 = np.empty(out.size, np.float32)
                    assert private(v, out32) is out32, type(op).__name__
                    assert out32.astype(np.float64).tobytes() == public(v).tobytes(), type(op).__name__

    def test_image_twins_match_float64_to_float32_rounding(self, rng):
        # one rounding of the input, float32 kernels, one widening of the result
        dense_part = blur_after_dense(rng)
        # |A| of that composition: its blur is nonnegative
        magnitude = ComposedOperator(dense_part.outer, DenseOperator(np.abs(dense_part.inner.matrix)))
        for op in image_ops_with_twins() + [dense_part]:
            twin = op.float32()
            for _ in range(3):
                x = rng.standard_normal(op.domain_dim)
                y = rng.standard_normal(op.range_dim)
                for got, want, v, absolute in ((twin.apply(x), op.apply(x), x, magnitude.apply),
                                               (twin.adjoint(y), op.adjoint(y), y, magnitude.adjoint)):
                    # a dense product sums 65536 float32 terms that may cancel: their
                    # rounding scales with |A| |v|, not with the product itself
                    scale = absolute(np.abs(v)) if op is dense_part else want
                    assert got.dtype == np.float64 and got.shape == want.shape
                    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(scale), type(op).__name__
                lhs = float(twin.apply(x) @ y)
                rhs = float(x @ twin.adjoint(y))
                assert abs(lhs - rhs) <= 1e-6 * np.linalg.norm(x) * np.linalg.norm(y), type(op).__name__

    @pytest.mark.parametrize("m", [8, 7], ids=["m8", "m7"])
    def test_blur_256_dot_product_identity(self, rng, m):
        op = Blur2D(256, 256, m)
        for _ in range(5):
            x = rng.standard_normal(op.domain_dim)
            y = rng.standard_normal(op.range_dim)
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.adjoint(y))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


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

    @pytest.mark.parametrize("kind", ["random", "radial"])
    @pytest.mark.parametrize(
        "rows, cols",
        [(7, 9), (9, 7), (8, 5), (33, 64), (1, 5), (5, 1)],
        ids=["7x9", "9x7", "8x5", "33x64", "1x5", "5x1"],
    )
    def test_matches_complex_fft_reference(self, rng, rows, cols, kind):
        if kind == "radial":
            mask = radial_mask(rows, cols)
            assert np.array_equal(mask, np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1)))
        else:
            mask = rng.random((rows, cols)) < 0.4
            mask.flat[rng.integers(rows * cols)] = True
        op = PartialFourier2D(rows, cols, mask)
        for _ in range(3):
            x = rng.standard_normal(op.domain_dim)
            y = rng.standard_normal(op.range_dim)
            want_apply = partial_fourier_complex_fft(x, rows, cols, mask)
            want_adjoint = partial_fourier_complex_fft(y, rows, cols, mask, adjoint=True)
            assert np.max(np.abs(op.apply(x) - want_apply)) <= 1e-14
            assert np.max(np.abs(op.adjoint(y) - want_adjoint)) <= 1e-14

    def test_index_maps_read_only(self, rng):
        op = PartialFourier2D(8, 8, rng.random((8, 8)) < 0.4)
        for index_map in (op._read_at, op._own_at, op._mirrored_at):
            with pytest.raises(ValueError):
                index_map[0] = 0

    @pytest.mark.parametrize(
        "rows, cols, name, message",
        [(4.0, 4, "rows", "must be an integer"), (True, 1, "rows", "must be an integer"),
         (4, np.float64(4), "cols", "must be an integer"), (0, 4, "rows", "must be positive"),
         (4, -1, "cols", "must be positive")],
        ids=["float-rows", "bool-rows", "numpy-float-cols", "zero-rows", "negative-cols"],
    )
    def test_bad_size_rejected(self, rows, cols, name, message):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match=f"{name} {message}"):
            PartialFourier2D(rows, cols, mask)


def radial_mask(rows, cols, num_lines=4):
    """Lines through DC in fft index order, plus the Nyquist row and column
    of an even size: closed under ``k -> -k``, with the DC row and column."""
    mask = np.zeros((rows, cols), dtype=bool)
    t = np.arange(-max(rows, cols), max(rows, cols) + 1)
    for angle in np.pi * np.arange(num_lines) / num_lines:
        ii = np.rint(t * np.sin(angle)).astype(int) % rows
        jj = np.rint(t * np.cos(angle)).astype(int) % cols
        mask[ii, jj] = True
    if rows % 2 == 0:
        mask[rows // 2, :] = True
    if cols % 2 == 0:
        mask[:, cols // 2] = True
    return mask


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

    @pytest.mark.parametrize(
        "rows, cols, m",
        [(256, 256, 8), (7, 9, 4), (33, 64, 5), (64, 33, 6), (1, 5, 1), (5, 1, 1),
         (9, 7, 3), (9, 7, 5), (9, 7, 6), (9, 7, 7), (12, 12, 12)],
        ids=["256x256", "7x9", "33x64", "64x33", "1x5", "5x1",
             "9x7-m3", "9x7-m5", "9x7-m6", "9x7-m7", "12x12-full-width"],
    )
    def test_byte_equal_to_window_sum_formula(self, rng, rows, cols, m):
        op = Blur2D(rows, cols, m)
        for _ in range(3):
            x = rng.standard_normal(rows * cols)
            for adjoint, got in ((False, op.apply(x)), (True, op.adjoint(x))):
                want = box_blur_window_sums(x, rows, cols, m, adjoint)
                assert got.tobytes() == want.tobytes(), f"adjoint={adjoint}"

    @pytest.mark.parametrize("compose", [False, True], ids=["blur", "blur-of-haar"])
    def test_results_not_aliased(self, rng, compose):
        op = Blur2D(16, 16, 4)
        if compose:
            op = ComposedOperator(op, HaarSynthesis2D(16, 16, 2))
        forward = op.apply(rng.standard_normal(256))
        backward = op.adjoint(rng.standard_normal(256))
        kept = forward.copy(), backward.copy()
        op.apply(rng.standard_normal(256))
        op.adjoint(rng.standard_normal(256))
        assert np.array_equal(forward, kept[0])
        assert np.array_equal(backward, kept[1])

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

    @pytest.mark.parametrize(
        "args, name", [((0, 5, 1), "rows"), ((-2, 4, 1), "rows"), ((4, 0, 1), "cols")],
        ids=["zero-rows", "negative-rows", "zero-cols"],
    )
    def test_non_positive_size_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
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
        x = np.array([[a, b], [c, d]])
        got = haar_analysis_2d(x, 1, out=np.empty_like(x), tmp=np.empty_like(x))
        assert got[0, 0] == pytest.approx((a + b + c + d) / 2, abs=1e-15)
        assert got[0, 1] == pytest.approx((a - b + c - d) / 2, abs=1e-15)
        assert got[1, 0] == pytest.approx((a + b - c - d) / 2, abs=1e-15)
        assert got[1, 1] == pytest.approx((a - b - c + d) / 2, abs=1e-15)
        # the explicit 4x4 transform matrix is orthonormal
        H = np.zeros((4, 4))
        basis = np.eye(4)
        for col in range(4):
            e = basis[col].reshape(2, 2)
            H[:, col] = haar_analysis_2d(e, 1, out=np.empty_like(e), tmp=np.empty_like(e)).ravel()
        assert np.allclose(H @ H.T, np.eye(4), atol=1e-14)
        assert np.allclose(H @ np.array([a, b, c, d]), got.ravel(), atol=1e-14)

    def test_constant_image_single_coarse_coefficient(self):
        c = 0.6
        x = np.full((2, 2), c)
        coeffs = haar_analysis_2d(x, 1, out=np.empty_like(x), tmp=np.empty_like(x))
        assert coeffs[0, 0] == pytest.approx(2 * c, abs=1e-15)
        assert np.allclose(coeffs.ravel()[1:], 0.0, atol=1e-15)

    def test_isometry(self, rng):
        op = HaarSynthesis2D(16, 16, 4)
        x = rng.standard_normal(256)
        assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_multilevel_roundtrip_functions(self, rng):
        img = rng.standard_normal((8, 8))
        coeffs = haar_analysis_2d(img, 3, out=np.empty_like(img), tmp=np.empty_like(img))
        back = haar_synthesis_2d(coeffs, 3, out=np.empty_like(img), tmp=np.empty_like(img))
        assert np.allclose(back, img, atol=1e-12)

    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            HaarSynthesis2D(6, 6, 2)

    @pytest.mark.parametrize(
        "rows, cols, levels",
        [(256, 256, 3), (16, 32, 4), (12, 20, 2), (8, 8, 3), (2, 2, 1)],
        ids=["256x256-3", "16x32-4", "12x20-2", "8x8-3", "2x2-1"],
    )
    def test_butterflies_match_quadrant_formulas(self, rng, rows, cols, levels):
        for _ in range(3):
            x = rng.standard_normal((rows, cols))
            for transform, quadrants in ((haar_analysis_2d, haar_analysis_quadrants),
                                         (haar_synthesis_2d, haar_synthesis_quadrants)):
                got = transform(x, levels, out=np.empty_like(x), tmp=np.empty_like(x))
                want = quadrants(x, levels)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("rows, cols, levels", [(16, 32, 4), (12, 20, 2)],
                             ids=["16x32-4", "12x20-2"])
    def test_non_square_inverse(self, rng, rows, cols, levels):
        op = HaarSynthesis2D(rows, cols, levels)
        for _ in range(10):
            x = rng.standard_normal(rows * cols)
            assert np.allclose(op.adjoint(op.apply(x)), x, atol=1e-13)
            assert np.allclose(op.apply(op.adjoint(x)), x, atol=1e-13)

    def test_levels_zero_copies_non_square(self, rng):
        img = rng.standard_normal((7, 9))
        for transform in (haar_analysis_2d, haar_synthesis_2d):
            out = transform(img, 0, out=np.empty_like(img), tmp=np.empty_like(img))
            assert np.array_equal(out, img)
            assert not np.shares_memory(out, img)
        op = HaarSynthesis2D(7, 9, 0)
        x = rng.standard_normal(63)
        assert np.array_equal(op.apply(x), x)
        assert np.array_equal(op.adjoint(x), x)

    @pytest.mark.parametrize(
        "args, name",
        [((8, 8, 1.5), "levels"), ((8, 8, False), "levels"), ((8, 8.0, 1), "cols"),
         ((np.float64(8), 8, 1), "rows")],
        ids=["float-levels", "bool-levels", "float-cols", "numpy-float-rows"],
    )
    def test_non_integer_size_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HaarSynthesis2D(*args)

    @pytest.mark.parametrize(
        "args, name", [((-4, -4, 1), "rows"), ((0, 4, 0), "rows"), ((4, -2, 1), "cols")],
        ids=["negative-both", "zero-rows", "negative-cols"],
    )
    def test_non_positive_size_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            HaarSynthesis2D(*args)


def peak_over_output(fn, x, nbytes=None):
    """Peak bytes traced during ``fn(x)``, as a multiple of ``nbytes``
    (default: the result's bytes)."""
    fn(x)  # first call outside the trace, so one-time set-up is not counted
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (out.nbytes if nbytes is None else nbytes)


class TestAllocationBudget:
    """Deterministic guard on the temporaries of one 256x256 matvec.

    tracemalloc sees numpy's data allocations. The bounds are multiples of
    the result's bytes: the blur, the Haar transforms and the composed
    deblur operator allocate only their result, since their scratch is the
    work set shared per image size. A Haar butterfly on strided quadrants
    also makes numpy's ufunc loop buffer up to three operands of 8192
    doubles each, 0.375 of a 256x256 result. The partial Fourier
    operator's are multiples of the image's bytes: one half spectrum
    (about 1x) transformed in place, plus the sampled coefficients (0.2x
    each at a 10% mask) and, for the adjoint, the image. What the image
    operators hold between calls, the shared set, is bounded in images.
    Their float32 twins run in the set's float32 view and hold no array of
    their own. They allocate only their float64 result, and the buffered
    butterfly operands are float32, half the bytes, so their Haar bounds
    are tighter.
    """

    def test_blur_allocates_only_its_result(self, rng):
        op = Blur2D(256, 256, 8)
        x = rng.standard_normal(op.domain_dim)
        assert peak_over_output(op.apply, x) <= 1.1
        assert peak_over_output(op.adjoint, x) <= 1.1

    def test_image_operators_hold_four_images_per_size(self):
        ops = image_ops_with_twins()
        twins = [op.float32() for op in ops]
        ops += twins + [twins[2].outer, twins[2].inner]
        held = {}
        for op in ops:
            for v in vars(op).values():
                if isinstance(v, np.ndarray):
                    base = v if v.base is None else v.base
                    held[id(base)] = base.nbytes
        assert sum(held.values()) <= 4 * 256 * 256 * 8

    def test_haar_synthesis_one_scratch(self, rng):
        op = HaarSynthesis2D(256, 256, 3)
        x = rng.standard_normal(op.domain_dim)
        assert peak_over_output(op.apply, x) <= 1.4

    def test_haar_analysis_one_scratch(self, rng):
        op = HaarSynthesis2D(256, 256, 3)
        y = rng.standard_normal(op.range_dim)
        assert peak_over_output(op.adjoint, y) <= 1.4

    def test_composed_deblur_allocates_only_its_result(self, rng):
        op = gen_deblur(rows=256, cols=256).op
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.range_dim)
        assert peak_over_output(op.apply, x) <= 1.5
        assert peak_over_output(op.adjoint, y) <= 1.5

    def test_image_twins_allocate_only_their_result(self, rng):
        blur, haar, composed, _ = (op.float32() for op in image_ops_with_twins())
        x = rng.standard_normal(blur.domain_dim)
        for fn, bound in ((blur.apply, 1.1), (blur.adjoint, 1.1), (haar.apply, 1.25),
                          (haar.adjoint, 1.25), (composed.apply, 1.25), (composed.adjoint, 1.25)):
            assert peak_over_output(fn, x) <= bound

    def test_partial_fourier_one_half_spectrum(self, rng):
        op = PartialFourier2D(256, 256, rng.random((256, 256)) < 0.1)
        image_bytes = op.domain_dim * 8
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.range_dim)
        assert peak_over_output(op.apply, x, image_bytes) <= 1.6
        assert peak_over_output(op.adjoint, y, image_bytes) <= 2.5


class TestSharedWorkSet:
    def test_same_size_operators_share_one_set(self):
        a, b = Blur2D(32, 32, 4), HaarSynthesis2D(32, 32, 2)
        assert a._work is b._work is ComposedOperator(a, b)._work
        assert Blur2D(16, 64, 4)._work is a._work  # the size is the flat length
        assert Blur2D(16, 16, 4)._work is not a._work

    def test_set_released_with_its_last_operator(self):
        op = Blur2D(24, 40, 3)
        work = weakref.ref(op._work)
        del op
        gc.collect()
        assert work() is None

    def test_interleaved_operators_match_a_lone_one(self, rng):
        xs = [rng.standard_normal(64 * 64) for _ in range(4)]
        first = gen_deblur(rows=64, cols=64).op
        want = [(first.apply(x), first.adjoint(x)) for x in xs]
        second = gen_deblur(rows=64, cols=64, seed=1).op
        # the two operators take turns on one work set
        got = [(op.apply(x), op.adjoint(x)) for x in xs for op in (first, second)]
        assert [a.tobytes() for pair in got for a in pair] == \
            [a.tobytes() for pair in want for _ in range(2) for a in pair]
        assert not any(np.shares_memory(a, first._work) for pair in got + want for a in pair)

    def test_twin_calls_interleaved_with_float64_ones_match_lone_calls(self, rng):
        xs = [rng.standard_normal(256 * 256) for _ in range(3)]
        ops = image_ops_with_twins()
        ops += [op.float32() for op in ops]
        want = [[(op.apply(x), op.adjoint(x)) for x in xs] for op in ops]
        # float64 operators and twins take turns on one work set and its float32 view
        got = [[(op.apply(x), op.adjoint(x)) for op in ops] for x in xs]
        for i, per_x in enumerate(got):
            for j, pair in enumerate(per_x):
                assert [a.tobytes() for a in pair] == [a.tobytes() for a in want[j][i]]
                assert not any(np.shares_memory(a, ops[0]._work) for a in pair)


class TestCounting:
    @pytest.mark.parametrize("counted", ["itself", "twin"])
    def test_counts_exact(self, rng, counted):
        for op in (DenseOperator(rng.standard_normal((128, 512))), image_ops_with_twins()[2]):
            caller = op.float32() if counted == "twin" else op  # a twin counts on its original
            for _ in range(5):
                caller.apply(np.zeros(op.domain_dim))
            for _ in range(3):
                caller.adjoint(np.zeros(op.range_dim))
            assert (op.forward_count, op.adjoint_count) == (5, 3)
            assert op.matvec_total == caller.matvec_total == 8

    def test_float32_twin_only_from_the_size_rule_up(self, rng):
        assert 255 * 257 == FLOAT32_MIN_ENTRIES - 1
        assert DenseOperator(np.ones((255, 257))).float32() is None
        twin = DenseOperator(np.ones((128, 512))).float32()
        assert type(twin) is DenseOperator and twin.matrix.dtype == np.float32
        for op in all_concrete_ops(rng)[1:]:  # image operators below 2^16 pixels
            assert op.domain_dim < FLOAT32_MIN_ENTRIES and op.float32() is None
        assert Blur2D(255, 257, 8).float32() is HaarSynthesis2D(128, 511, 0).float32() is None
        for size in (256, 512):  # no Fourier twin at any size
            assert PartialFourier2D(size, size, np.ones((size, size), bool)).float32() is None
        for op in image_ops_with_twins():
            twin = op.float32()
            assert type(twin) is type(op) and twin._work.dtype == np.float32
            assert np.shares_memory(twin._work, op._work)
        composed = image_ops_with_twins()[2].float32()
        assert type(composed.outer) is Blur2D and type(composed.inner) is HaarSynthesis2D
        assert composed.outer._work.dtype == composed.inner._work.dtype == np.float32
        # a composition has a twin only if both of its parts do
        fourier = PartialFourier2D(256, 256, np.ones((256, 256), bool))
        assert ComposedOperator(fourier, HaarSynthesis2D(256, 256, 3)).float32() is None

    def test_composition_counts_once_and_constituents_none(self, rng):
        inner = HaarSynthesis2D(4, 4, 1)
        outer = Blur2D(4, 4, 2)
        comp = ComposedOperator(outer, inner)
        comp.apply(rng.standard_normal(16))
        assert comp.forward_count == 1
        comp.adjoint(rng.standard_normal(16))
        assert comp.adjoint_count == 1
        assert inner.matvec_total == outer.matvec_total == 0

    def test_composition_dimension_check(self):
        with pytest.raises(ValueError):
            ComposedOperator(DenseOperator(np.ones((2, 3))), DenseOperator(np.ones((2, 2))))
