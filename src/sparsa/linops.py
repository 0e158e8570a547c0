"""Matrix-free linear operators with adjoints and matvec accounting.

Every operator maps real vectors of length ``domain_dim`` to real vectors
of length ``range_dim`` and knows its adjoint. Images are handled as
row-major flattened vectors. Each instance counts its forward and adjoint
applications; the sum of the two is the "Ax" cost statistic reported by
the benchmark harness.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from .solver import check_integer, check_vector


class LinearOperator:
    """Base class for matrix-free operators.

    ``apply`` and ``adjoint`` convert their argument to a float array and
    check its length (:func:`sparsa.solver.check_vector`: the error names
    ``x`` or ``y``). Subclasses implement ``_apply(x, out=None)`` /
    ``_adjoint(y, out=None)`` on those validated 1-D arrays: each writes
    its result into ``out`` when given, else into a fresh array, and
    returns it. Instances are immutable after construction except for the
    ``forward_count`` and ``adjoint_count`` application counters, which
    only the public ``apply`` / ``adjoint`` advance.

    The image operators and compositions share one set of four flat work
    images per image size (:func:`_work_images`), whose contents are
    scratch between calls. One shared set is safe because the package is
    single-threaded and no public ``apply`` / ``adjoint`` runs inside
    another operator call; operators of one size must not be called from
    several threads at once. A returned array never shares memory with
    the set.
    """

    def __init__(self, domain_dim: int, range_dim: int):
        self.domain_dim = check_integer("domain_dim", domain_dim, minimum=1)
        self.range_dim = check_integer("range_dim", range_dim, minimum=1)
        self.forward_count = 0
        self.adjoint_count = 0

    # -- public interface ---------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Return ``A x``. Counts one forward application."""
        x = check_vector("x", x, self.domain_dim)
        self.forward_count += 1
        return self._apply(x)

    def adjoint(self, y) -> np.ndarray:
        """Return ``A^T y``. Counts one adjoint application."""
        y = check_vector("y", y, self.range_dim)
        self.adjoint_count += 1
        return self._adjoint(y)

    @property
    def matvec_total(self) -> int:
        return self.forward_count + self.adjoint_count

    def reset_counters(self):
        self.forward_count = 0
        self.adjoint_count = 0

    # -- subclass hooks -----------------------------------------------------

    def _apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


# image size -> its shared (4, size) work set, dropped with its last operator
_WORK_SETS = weakref.WeakValueDictionary()


def _work_images(size: int) -> np.ndarray:
    """The ``(4, size)`` work images shared by the operators of this size.

    Rows 0 and 1 hold :class:`Blur2D`'s window sums, row 2 the Haar
    transforms' scratch and row 3 a :class:`ComposedOperator`'s
    intermediate. The set is created for the first operator of its size
    and lives as long as one of them holds it.
    """
    work = _WORK_SETS.get(size)
    if work is None:
        work = _WORK_SETS[size] = np.empty((4, size))
    return work


class DenseOperator(LinearOperator):
    """Explicit matrix operator.

    A read-only float64 array that owns its data is kept, since nothing can
    write to it; anything else (a writeable array, a view) is copied.
    """

    def __init__(self, matrix):
        float64 = type(matrix) is np.ndarray and matrix.dtype == np.float64
        if not (float64 and matrix.flags.owndata and not matrix.flags.writeable):
            matrix = np.array(matrix, dtype=float)
            matrix.setflags(write=False)
        if matrix.ndim != 2:
            raise ValueError("dense operator needs a 2-D matrix")
        self.matrix = matrix
        super().__init__(matrix.shape[1], matrix.shape[0])

    def _apply(self, x, out=None):
        return np.matmul(self.matrix, x, out=out)

    def _adjoint(self, y, out=None):
        return np.matmul(self.matrix.T, y, out=out)


class PartialFourier2D(LinearOperator):
    """Masked 2-D DFT of an image, with real/imaginary parts stacked.

    Uses the unitary DFT normalization (1/sqrt(rows*cols) both ways), so
    for a full mask apply followed by adjoint is the identity. The range
    vector is ``[real parts; imaginary parts]`` of the masked
    coefficients, taken in row-major mask order, which keeps the whole
    pipeline real-valued with adjoint ``A^T y = Re(F^H zerofill(y))``.

    Images are real, so only the half spectrum of real FFTs
    (``cols // 2 + 1`` columns) is computed. Set-up maps each sample to
    a flat position in that half once, read-only: a sample whose column
    lies in the half is read there, any other is read as the conjugate of
    its mirror ``(-r mod rows, -c mod cols)``. The adjoint scatters
    ``c/2`` at each sample ``k`` and ``conj(c)/2`` at ``-k``, wherever
    those lie in the half (the DC and Nyquist columns hold both), which
    builds the Hermitian half spectrum whose inverse real FFT is
    ``Re(F^H zerofill(y))``. Each call runs the axis transforms of
    ``rfft2``/``irfft2`` in one fresh spectrum.
    """

    def __init__(self, rows: int, cols: int, mask):
        self.rows = rows = check_integer("rows", rows, minimum=1)
        self.cols = cols = check_integer("cols", cols, minimum=1)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (rows, cols):
            raise ValueError("mask shape must be (rows, cols)")
        idx = np.flatnonzero(mask.ravel())
        if idx.size == 0:
            raise ValueError("mask selects no Fourier locations")
        self._half_cols = self.cols // 2 + 1
        r, c = np.divmod(idx, self.cols)
        at = r * self._half_cols + c
        mirror_c = -c % self.cols
        mirror_at = (-r % self.rows) * self._half_cols + mirror_c
        in_half = c < self._half_cols
        mirror_in_half = mirror_c < self._half_cols
        self._scale = 1.0 / np.sqrt(rows * cols)
        self._adjoint_scale = 0.5 * np.sqrt(rows * cols)
        self._read_at = np.where(in_half, at, mirror_at)
        # a mirrored read is conjugated: its imaginary part changes sign
        self._imag_scale = np.where(in_half, self._scale, -self._scale)
        # samples k (resp. -k) that lie in the half, and where; distinct
        # samples give distinct targets within each map
        self._own = np.flatnonzero(in_half)
        self._own_at = at[in_half]
        self._mirrored = np.flatnonzero(mirror_in_half)
        self._mirrored_at = mirror_at[mirror_in_half]
        for table in (self._read_at, self._imag_scale, self._own, self._own_at,
                      self._mirrored, self._mirrored_at):
            table.setflags(write=False)
        super().__init__(rows * cols, 2 * idx.size)

    def _apply(self, x, out=None):
        spectrum = np.empty((self.rows, self._half_cols), dtype=complex)
        np.fft.rfft2(x.reshape(self.rows, self.cols), out=spectrum)
        picked = spectrum.ravel()[self._read_at]
        m = picked.size
        if out is None:
            out = np.empty(2 * m)
        np.multiply(picked.real, self._scale, out=out[:m])
        np.multiply(picked.imag, self._imag_scale, out=out[m:])
        return out

    def _adjoint(self, y, out=None):
        m = y.size // 2
        coeffs = y[:m] + 1j * y[m:]
        coeffs *= self._adjoint_scale
        spectrum = np.zeros((self.rows, self._half_cols), dtype=complex)
        flat = spectrum.ravel()
        flat[self._own_at] += coeffs[self._own]
        flat[self._mirrored_at] += np.conjugate(coeffs[self._mirrored])
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        if out is None:
            out = np.empty(self.rows * self.cols)
        np.fft.irfft(spectrum, n=self.cols, axis=1, out=out.reshape(self.rows, self.cols))
        return out


def _circular_add(out, a, da, b, db, n):
    """``out[j] = a[j + da] + b[j + db]`` along rows of length ``n``, modulo ``n``.

    ``out``, ``a`` and ``b`` are flat arrays of a whole number of rows, and
    ``out`` is neither input. The row is cut where either index wraps. The
    widest piece is one addition over the flattened arrays; its entries that
    wrap from one row into the next land in the other pieces, which are then
    written as 2-D slices.
    """
    cuts = sorted({0, n, -da % n, -db % n})
    pieces = sorted(zip(cuts, cuts[1:]), key=lambda piece: piece[0] - piece[1])
    lo, hi = pieces[0]
    ia, ib = (lo + da) % n, (lo + db) % n
    size = out.size - n + hi - lo
    np.add(a[ia:ia + size], b[ib:ib + size], out=out[lo:lo + size])
    out2, a2, b2 = out.reshape(-1, n), a.reshape(-1, n), b.reshape(-1, n)
    for lo, hi in pieces[1:]:
        ia, ib = (lo + da) % n, (lo + db) % n
        np.add(a2[:, ia:ia + hi - lo], b2[:, ib:ib + hi - lo], out=out2[:, lo:hi])


def _window_sums(v, m, start, n, unit, targets):
    """Circular sums of ``m`` entries ``unit`` apart along rows of length ``n``.

    Entry ``j`` of the result is the sum of ``v[j + unit * (start + t)]``
    for ``t`` in ``range(m)``, indices modulo ``n``. The window is built by
    binary doubling over the bits of ``m``: a window ``W_q`` of width ``q``
    gives ``W_2q[j] = W_q[j] + W_q[j + q * unit]``, and a set bit adds one
    more shifted copy of ``v`` (``W_q+1``). The first doubling reads ``v``
    at both shifts, so ``W_1`` is never formed. The additions write to the
    two ``targets`` in turn; the last one written is returned, or ``v``
    itself when ``m == 1`` (then ``start`` is 0).
    """
    w, shift, width = v, start, 1
    targets = itertools.cycle(targets)
    for bit in bin(m)[3:]:
        dst = next(targets)
        _circular_add(dst, w, shift * unit, w, (shift + width) * unit, n)
        w, shift, width = dst, 0, 2 * width
        if bit == "1":
            dst = next(targets)
            _circular_add(dst, w, 0, v, (start + width) * unit, n)
            w, width = dst, width + 1
    return w


class Blur2D(LinearOperator):
    """Circular 2-D convolution with a uniform box kernel, by window sums.

    The kernel is ``mask_size x mask_size`` with total weight 1, centered
    at offsets ``offs = arange(mask_size) - mask_size // 2`` in each
    direction: ``y[i, j]`` is the mean of ``x[i - a, j - b]`` over ``a, b``
    in ``offs``, indices modulo the image size. The adjoint reads
    ``x[i + a, j + b]``: the same window with the opposite start.

    The box is separable, so each application sums a circular window along
    the columns of each row, then along the rows, by binary doubling
    (``floor(log2 m) + popcount(m) - 1`` additions per direction). The
    column additions run over the flattened image, and the entries that
    wrap across rows are then written again. The additions ping-pong
    between images 0 and 1 of the work set shared by the operators of
    this size (see :class:`LinearOperator`) and the result, which is the
    only array allocated; the sums are scaled by ``1 / mask_size**2``
    into it.
    """

    def __init__(self, rows: int, cols: int, mask_size: int = 8):
        self.rows = rows = check_integer("rows", rows, minimum=1)
        self.cols = cols = check_integer("cols", cols, minimum=1)
        self.mask_size = check_integer("mask_size", mask_size, minimum=1)
        if self.mask_size > min(rows, cols):
            raise ValueError("mask_size must be in [1, min(rows, cols)]")
        self._work = _work_images(rows * cols)
        super().__init__(rows * cols, rows * cols)

    def _convolve(self, x, start, out):
        m, size = self.mask_size, self.rows * self.cols
        if out is None:
            out = np.empty(size)
        first, second = self._work[:2]
        along_cols = _window_sums(x, m, start, self.cols, 1, (first, second))
        spare = second if along_cols is first else first
        # the row pass shifts whole rows of the image taken as one long row;
        # its sums end in out (for m = 8, so the scaling runs in place) or spare
        summed = _window_sums(along_cols, m, start, size, self.cols, (out, spare))
        np.multiply(summed, 1.0 / m**2, out=out)
        return out

    def _apply(self, x, out=None):
        return self._convolve(x, self.mask_size // 2 - self.mask_size + 1, out)

    def _adjoint(self, y, out=None):
        return self._convolve(y, -(self.mask_size // 2), out)


def haar_analysis_2d(image: np.ndarray, levels: int, out, tmp) -> np.ndarray:
    """Forward (analysis) orthonormal 2-D Haar transform.

    One level maps each 2x2 block ``[[a, b], [c, d]]`` to the four
    coefficients ``(a+b+c+d)/2``, ``(a-b+c-d)/2``, ``(a+b-c-d)/2`` and
    ``(a-b-c+d)/2``, arranged in the usual quadrant layout (average in
    the top-left, column differences top-right, row differences
    bottom-left, diagonal bottom-right); deeper levels recurse on the
    top-left quadrant. Each level is a butterfly: sums and differences of
    column pairs go to a scratch array, sums and differences of its row
    pairs go to the result, which is then halved.

    ``image`` is a float array. The result goes to ``out`` and the scratch
    to ``tmp``, both required: float arrays shaped like ``image`` that
    share no memory with it or each other. ``out`` is returned.
    """
    src = image
    if levels == 0:
        out[...] = src
        return out
    r, c = src.shape
    for _ in range(levels):
        r2, c2 = r // 2, c // 2
        t = tmp[:r, :c]
        np.add(src[:r, 0:c:2], src[:r, 1:c:2], out=t[:, :c2])
        np.subtract(src[:r, 0:c:2], src[:r, 1:c:2], out=t[:, c2:])
        np.add(t[0::2], t[1::2], out=out[:r2, :c])
        np.subtract(t[0::2], t[1::2], out=out[r2:r, :c])
        out[:r, :c] *= 0.5
        src = out
        r, c = r2, c2
    return out


def haar_synthesis_2d(coeffs: np.ndarray, levels: int, out, tmp) -> np.ndarray:
    """Inverse of :func:`haar_analysis_2d` (orthonormal, so the transpose).

    Each level, coarsest first, runs the analysis butterfly backwards:
    sums and differences of the top and bottom quadrants go to the even
    and odd rows of a scratch array, sums and differences of its left and
    right halves go to the even and odd columns of the result, which is
    then halved. ``out`` and ``tmp`` are required, as in
    :func:`haar_analysis_2d`.
    """
    out[...] = coeffs
    if levels == 0:
        return out
    rows, cols = out.shape
    for r2, c2 in [(rows >> lv, cols >> lv) for lv in range(levels, 0, -1)]:
        r, c = 2 * r2, 2 * c2
        t = tmp[:r, :c]
        np.add(out[:r2, :c], out[r2:r, :c], out=t[0::2])
        np.subtract(out[:r2, :c], out[r2:r, :c], out=t[1::2])
        np.add(t[:, :c2], t[:, c2:], out=out[:r, 0:c:2])
        np.subtract(t[:, :c2], t[:, c2:], out=out[:r, 1:c:2])
        out[:r, :c] *= 0.5
    return out


class HaarSynthesis2D(LinearOperator):
    """Orthonormal 2-D Haar synthesis operator ``W``.

    The solver variable lives in wavelet-coefficient space: ``apply``
    synthesizes an image from coefficients and ``adjoint`` analyzes an
    image back into coefficients. ``W`` is square orthonormal, so
    ``W^T W = I``. ``levels = 0`` is the identity. The transforms take
    their scratch from image 2 of the work set shared by the operators of
    this size (see :class:`LinearOperator`).
    """

    def __init__(self, rows: int, cols: int, levels: int):
        self.rows = rows = check_integer("rows", rows, minimum=1)
        self.cols = cols = check_integer("cols", cols, minimum=1)
        self.levels = levels = check_integer("levels", levels, minimum=0)
        if rows % (1 << levels) or cols % (1 << levels):
            raise ValueError(
                f"image dims ({rows}, {cols}) not divisible by 2^{levels}"
            )
        self._work = _work_images(rows * cols)
        super().__init__(rows * cols, rows * cols)

    def _transform(self, transform, v, out):
        shape = (self.rows, self.cols)
        if out is None:
            out = np.empty(v.size)
        transform(v.reshape(shape), self.levels, out.reshape(shape), self._work[2].reshape(shape))
        return out

    def _apply(self, x, out=None):
        return self._transform(haar_synthesis_2d, x, out)

    def _adjoint(self, y, out=None):
        return self._transform(haar_analysis_2d, y, out)


class ComposedOperator(LinearOperator):
    """Composition ``A = outer o inner`` (apply = outer(inner(x))).

    Applying the composition counts once, on the composition itself: it
    runs its constituents' ``_apply`` / ``_adjoint``, so their counters do
    not move. The intermediate goes to image 3 of the work set shared by
    the operators of its size (see :class:`LinearOperator`).
    """

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        if inner.range_dim != outer.domain_dim:
            raise ValueError(
                f"cannot compose: inner range {inner.range_dim} != "
                f"outer domain {outer.domain_dim}"
            )
        self.outer = outer
        self.inner = inner
        self._work = _work_images(inner.range_dim)
        super().__init__(inner.domain_dim, outer.range_dim)

    def _apply(self, x, out=None):
        return self.outer._apply(self.inner._apply(x, self._work[3]), out)

    def _adjoint(self, y, out=None):
        return self.inner._adjoint(self.outer._adjoint(y, self._work[3]), out)

