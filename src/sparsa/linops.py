"""Matrix-free linear operators with adjoints and matvec accounting.

Every operator maps real vectors of length ``domain_dim`` to real vectors
of length ``range_dim`` and knows its adjoint. Images are handled as
row-major flattened vectors. Each instance counts its forward and adjoint
applications; the sum of the two is the "Ax" cost statistic reported by
the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from .solver import check_integer


class LinearOperator:
    """Base class for matrix-free operators.

    Subclasses set ``kind`` and implement ``_apply`` / ``_adjoint`` on
    validated 1-D float arrays. Instances are immutable after
    construction except for the ``forward_count`` and ``adjoint_count``
    application counters, which only the public ``apply`` / ``adjoint``
    advance.
    """

    kind = "abstract"

    def __init__(self, domain_dim: int, range_dim: int):
        if domain_dim <= 0 or range_dim <= 0:
            raise ValueError("operator dimensions must be positive")
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self.forward_count = 0
        self.adjoint_count = 0

    # -- public interface ---------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Return ``A x``. Counts one forward application."""
        x = self._check_vector(x, self.domain_dim, "apply")
        self.forward_count += 1
        return self._apply(x)

    def adjoint(self, y) -> np.ndarray:
        """Return ``A^T y``. Counts one adjoint application."""
        y = self._check_vector(y, self.range_dim, "adjoint")
        self.adjoint_count += 1
        return self._adjoint(y)

    @property
    def matvec_total(self) -> int:
        return self.forward_count + self.adjoint_count

    def reset_counters(self):
        self.forward_count = 0
        self.adjoint_count = 0

    # -- helpers ------------------------------------------------------------

    def _check_vector(self, v, expected: int, what: str) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.shape[0] != expected:
            raise ValueError(
                f"{self.kind}.{what}: expected vector of length {expected}, "
                f"got shape {v.shape}"
            )
        return v

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """Explicit matrix operator."""

    kind = "dense"

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("dense operator needs a 2-D matrix")
        matrix.setflags(write=False)
        self.matrix = matrix
        super().__init__(matrix.shape[1], matrix.shape[0])

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


class PartialFourier2D(LinearOperator):
    """Masked 2-D DFT of an image, with real/imaginary parts stacked.

    Uses the unitary DFT normalization (1/sqrt(rows*cols) both ways), so
    for a full mask apply followed by adjoint is the identity. The range
    vector is ``[real parts; imaginary parts]`` of the masked
    coefficients, taken in row-major mask order, which keeps the whole
    pipeline real-valued with adjoint ``A^T y = Re(F^H zerofill(y))``.
    """

    kind = "partial-fourier-2d"

    def __init__(self, rows: int, cols: int, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (rows, cols):
            raise ValueError("mask shape must be (rows, cols)")
        idx = np.flatnonzero(mask.ravel())
        if idx.size == 0:
            raise ValueError("mask selects no Fourier locations")
        self.rows = int(rows)
        self.cols = int(cols)
        self._idx = idx
        self._scale = 1.0 / np.sqrt(rows * cols)
        super().__init__(rows * cols, 2 * idx.size)

    def _apply(self, x):
        spectrum = np.fft.fft2(x.reshape(self.rows, self.cols)) * self._scale
        picked = spectrum.ravel()[self._idx]
        return np.concatenate([picked.real, picked.imag])

    def _adjoint(self, y):
        m = self._idx.size
        coeffs = y[:m] + 1j * y[m:]
        spectrum = np.zeros(self.rows * self.cols, dtype=complex)
        spectrum[self._idx] = coeffs
        img = np.fft.ifft2(spectrum.reshape(self.rows, self.cols))
        return np.real(img).ravel() * (self.rows * self.cols) * self._scale


class Blur2D(LinearOperator):
    """Circular 2-D convolution with a uniform box kernel, via real FFTs.

    The kernel is ``mask_size x mask_size`` with total weight 1, centered
    at offsets ``arange(mask_size) - mask_size // 2`` in each direction.
    Images are real, so ``rfft2``/``irfft2`` carry only the half spectrum
    (``cols // 2 + 1`` columns). The half-spectrum transfer function and
    its conjugate are computed once, read-only; the adjoint multiplies by
    the stored conjugate, so adjoint consistency is exact even though an
    even-sized box is not symmetric under the circular shift.
    """

    kind = "blur-2d"

    def __init__(self, rows: int, cols: int, mask_size: int = 8):
        for name, value in (("rows", rows), ("cols", cols), ("mask_size", mask_size)):
            check_integer(name, value)
        if mask_size < 1 or mask_size > min(rows, cols):
            raise ValueError("mask_size must be in [1, min(rows, cols)]")
        offs = np.arange(mask_size) - mask_size // 2
        padded = np.zeros((rows, cols))
        padded[np.ix_(offs % rows, offs % cols)] = 1.0 / mask_size**2
        self.rows = int(rows)
        self.cols = int(cols)
        self._transfer = np.fft.rfft2(padded)
        self._transfer_conj = np.conj(self._transfer)
        self._transfer.setflags(write=False)
        self._transfer_conj.setflags(write=False)
        super().__init__(rows * cols, rows * cols)

    def _convolve(self, x, transfer):
        spectrum = np.fft.rfft2(x.reshape(self.rows, self.cols))
        spectrum *= transfer
        # without s=, an odd cols would come back as cols - 1 columns
        return np.fft.irfft2(spectrum, s=(self.rows, self.cols)).ravel()

    def _apply(self, x):
        return self._convolve(x, self._transfer)

    def _adjoint(self, y):
        return self._convolve(y, self._transfer_conj)


def haar_analysis_2d(image: np.ndarray, levels: int) -> np.ndarray:
    """Forward (analysis) orthonormal 2-D Haar transform.

    One level maps each 2x2 block ``[[a, b], [c, d]]`` to the four
    coefficients ``(a+b+c+d)/2``, ``(a-b+c-d)/2``, ``(a+b-c-d)/2`` and
    ``(a-b-c+d)/2``, arranged in the usual quadrant layout (average in
    the top-left, column differences top-right, row differences
    bottom-left, diagonal bottom-right); deeper levels recurse on the
    top-left quadrant.
    """
    out = np.array(image, dtype=float)
    r, c = out.shape
    for _ in range(levels):
        block = out[:r, :c]
        a = block[0::2, 0::2]
        b = block[0::2, 1::2]
        cc = block[1::2, 0::2]
        d = block[1::2, 1::2]
        r2, c2 = r // 2, c // 2
        merged = np.empty((r, c))
        merged[:r2, :c2] = (a + b + cc + d) / 2.0
        merged[:r2, c2:] = (a - b + cc - d) / 2.0
        merged[r2:, :c2] = (a + b - cc - d) / 2.0
        merged[r2:, c2:] = (a - b - cc + d) / 2.0
        out[:r, :c] = merged
        r, c = r2, c2
    return out

def haar_synthesis_2d(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`haar_analysis_2d` (orthonormal, so the transpose)."""
    out = np.array(coeffs, dtype=float)
    rows, cols = out.shape
    for r2, c2 in [(rows >> lv, cols >> lv) for lv in range(levels, 0, -1)]:
        ll = out[:r2, :c2]
        h = out[:r2, c2 : 2 * c2]
        v = out[r2 : 2 * r2, :c2]
        dg = out[r2 : 2 * r2, c2 : 2 * c2]
        block = np.empty((2 * r2, 2 * c2))
        block[0::2, 0::2] = (ll + h + v + dg) / 2.0
        block[0::2, 1::2] = (ll - h + v - dg) / 2.0
        block[1::2, 0::2] = (ll + h - v - dg) / 2.0
        block[1::2, 1::2] = (ll - h - v + dg) / 2.0
        out[: 2 * r2, : 2 * c2] = block
    return out


class HaarSynthesis2D(LinearOperator):
    """Orthonormal 2-D Haar synthesis operator ``W``.

    The solver variable lives in wavelet-coefficient space: ``apply``
    synthesizes an image from coefficients and ``adjoint`` analyzes an
    image back into coefficients. ``W`` is square orthonormal, so
    ``W^T W = I``. ``levels = 0`` is the identity.
    """

    kind = "haar-dwt-2d"

    def __init__(self, rows: int, cols: int, levels: int):
        for name, value in (("rows", rows), ("cols", cols), ("levels", levels)):
            check_integer(name, value)
        if levels < 0:
            raise ValueError("levels must be >= 0")
        if rows % (1 << levels) or cols % (1 << levels):
            raise ValueError(
                f"image dims ({rows}, {cols}) not divisible by 2^{levels}"
            )
        self.rows = int(rows)
        self.cols = int(cols)
        self.levels = int(levels)
        super().__init__(rows * cols, rows * cols)

    def _apply(self, x):
        return haar_synthesis_2d(x.reshape(self.rows, self.cols), self.levels).ravel()

    def _adjoint(self, y):
        return haar_analysis_2d(y.reshape(self.rows, self.cols), self.levels).ravel()


class ComposedOperator(LinearOperator):
    """Composition ``A = outer o inner`` (apply = outer(inner(x))).

    Applying the composition counts once, on the composition itself: it
    runs its constituents' ``_apply`` / ``_adjoint``, so their counters do
    not move.
    """

    kind = "composition"

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        if inner.range_dim != outer.domain_dim:
            raise ValueError(
                f"cannot compose: inner range {inner.range_dim} != "
                f"outer domain {outer.domain_dim}"
            )
        self.outer = outer
        self.inner = inner
        super().__init__(inner.domain_dim, outer.range_dim)

    def _apply(self, x):
        return self.outer._apply(self.inner._apply(x))

    def _adjoint(self, y):
        return self.inner._adjoint(self.outer._adjoint(y))

