"""Matrix-free linear operators with adjoints and matvec accounting.

Every operator maps real vectors of length ``domain_dim`` to real vectors
of length ``range_dim`` and knows its adjoint. Images are handled as
row-major flattened vectors. Each instance counts its forward and adjoint
applications; the sum of the two is the "Ax" cost statistic reported by
the benchmark harness.
"""

from __future__ import annotations

import copy
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
    only the public ``apply`` / ``adjoint`` advance: the hooks are the
    uncounted products, run by a composition on its parts and by the
    problem generators for their set-up, so a counter starts at 0.

    ``float32()`` returns a twin that runs the same kernels on float32
    arrays, or ``None`` when the operator has none (the default). A twin
    is a shallow copy: it holds the original's one pair of counts, so its
    products count on the original.
    """

    def __init__(self, domain_dim: int, range_dim: int):
        self.domain_dim = check_integer("domain_dim", domain_dim, minimum=1)
        self.range_dim = check_integer("range_dim", range_dim, minimum=1)
        self._counts = [0, 0]  # forward, adjoint; shared with any float32 twin

    # -- public interface ---------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Return ``A x``. Counts one forward application."""
        x = check_vector("x", x, self.domain_dim)
        self._counts[0] += 1
        return self._apply(x)

    def adjoint(self, y) -> np.ndarray:
        """Return ``A^T y``. Counts one adjoint application."""
        y = check_vector("y", y, self.range_dim)
        self._counts[1] += 1
        return self._adjoint(y)

    @property
    def forward_count(self) -> int:
        return self._counts[0]

    @property
    def adjoint_count(self) -> int:
        return self._counts[1]

    @property
    def matvec_total(self) -> int:
        return sum(self._counts)

    def float32(self) -> "LinearOperator | None":
        """This operator's float32 twin, or ``None``: it has none."""
        return None

    # -- subclass hooks -----------------------------------------------------

    def _apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


# A dense operator with at least this many entries (0.5 MiB in float64) has
# a float32 twin. A forward plus adjoint pair took, in float32 against
# float64 (one BLAS thread, 2 MiB L2): 5.9 against 5.7 us at 64x256, 0.51x
# the time at 128x512 and 0.30x at 256x1024, where the float64 matrix and
# its vectors no longer fit in the L2. An image operator with at least this
# many pixels has one too: a blur-Haar forward plus adjoint pair at 256x256
# took 0.67 to 0.74x the float64 time.
FLOAT32_MIN_ENTRIES = 2**16

# the float32 matrix of a dense twin (see DenseOperator.float32): one slot,
# replaced only when a matrix of a new shape comes
_float32_slot = np.empty((0, 0), dtype=np.float32)


class DenseOperator(LinearOperator):
    """Explicit matrix operator.

    A read-only float64 array that owns its data is kept, since nothing can
    write to it; anything else (a writeable array, a view) is copied.
    Products run in the matrix's dtype: the input is rounded to it, and a
    result made without ``out`` is widened to float64, both no-ops for a
    float64 matrix.
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
        ax = np.matmul(self.matrix, x.astype(self.matrix.dtype, copy=False), out=out)
        return ax if out is not None else ax.astype(np.float64, copy=False)

    def _adjoint(self, y, out=None):
        aty = np.matmul(self.matrix.T, y.astype(self.matrix.dtype, copy=False), out=out)
        return aty if out is not None else aty.astype(np.float64, copy=False)

    def float32(self) -> "DenseOperator | None":
        """A twin over a float32 copy of the matrix, or ``None`` below ``FLOAT32_MIN_ENTRIES``.

        The copy is the module's one slot, refilled from ``self.matrix``
        on each call, so a twin is valid until the next one is made: a
        solve makes one and runs the float32 stage of each of its weights
        on it. The slot is not allocated per operator, so building a
        problem does not copy its matrix; like the work images it is safe
        because the package is single-threaded.
        """
        global _float32_slot
        if self.matrix.size < FLOAT32_MIN_ENTRIES:
            return None
        if _float32_slot.shape != self.matrix.shape:
            _float32_slot = np.empty((0, 0), dtype=np.float32)  # drop the old copy first
            _float32_slot = np.empty(self.matrix.shape, dtype=np.float32)
        np.copyto(_float32_slot, self.matrix, casting="same_kind")
        twin = copy.copy(self)
        twin.matrix = _float32_slot
        return twin


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


# image size -> its shared (4, size) work set, dropped with its last operator
_WORK_SETS = weakref.WeakValueDictionary()


class _WorkSetOperator(LinearOperator):
    """An operator whose scratch is the work set shared per image size.

    :class:`Blur2D`, :class:`HaarSynthesis2D` and :class:`ComposedOperator`
    (sized by its intermediate) share one ``(4, size)`` float64 array per
    flat image size: it is created for the first operator of its size and
    dropped with the last. Its rows are scratch between calls: rows 0 and
    1 hold the blur's window sums, row 2 the Haar transforms' scratch and
    row 3 a composition's intermediate. One shared set is safe because the
    package is single-threaded and no public ``apply`` / ``adjoint`` runs
    inside another operator call; operators of one size must not be called
    from several threads at once. A returned array never shares memory
    with the set.

    From ``FLOAT32_MIN_ENTRIES`` pixels up, ``float32()`` returns a twin
    whose ``_work`` views the same memory as eight float32 images, so a
    twin holds no array of its own. Rows 0 to 3 keep their use; row 4
    holds a twin's input rounded to float32 and row 5 its float32 result,
    which is widened into the returned float64 array. Rows 6 and 7 are
    unused. Kernels run through :meth:`_in_work_dtype`.
    """

    def __init__(self, domain_dim: int, range_dim: int, size: int):
        self._work = _WORK_SETS.get(size)
        if self._work is None:
            self._work = _WORK_SETS[size] = np.empty((4, size))
        super().__init__(domain_dim, range_dim)

    def float32(self) -> "_WorkSetOperator | None":
        """A twin on the float32 view of the work set, or ``None`` below the size rule."""
        if self._work.shape[1] < FLOAT32_MIN_ENTRIES:
            return None
        twin = copy.copy(self)
        twin._work = self._work.view(np.float32).reshape(8, -1)
        return twin

    def _in_work_dtype(self, kernel, v, out, *args):
        """``kernel(v, out, *args)`` in the work set's dtype; returns ``out``.

        ``out`` defaults to a fresh float64 array. On the float64 set this
        is the call itself. On a twin's float32 view a float64 ``v`` is
        rounded once into row 4, and a float32 ``out`` (a composition's
        intermediate) is written directly, while a float64 one receives
        the kernel's row-5 result widened.
        """
        work = self._work
        if out is None:
            out = np.empty(work.shape[1])
        if v.dtype != work.dtype:
            work[4] = v
            v = work[4]
        if out.dtype == work.dtype:
            return kernel(v, out, *args)
        out[...] = kernel(v, work[5], *args)
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


class Blur2D(_WorkSetOperator):
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
    between images 0 and 1 of the work set (see :class:`_WorkSetOperator`)
    and the result, which is the only array allocated; the sums are
    scaled by ``1 / mask_size**2`` into it.
    """

    def __init__(self, rows: int, cols: int, mask_size: int = 8):
        self.rows = rows = check_integer("rows", rows, minimum=1)
        self.cols = cols = check_integer("cols", cols, minimum=1)
        self.mask_size = check_integer("mask_size", mask_size, minimum=1)
        if self.mask_size > min(rows, cols):
            raise ValueError("mask_size must be in [1, min(rows, cols)]")
        super().__init__(rows * cols, rows * cols, rows * cols)

    def _convolve(self, x, out, start):
        m, size = self.mask_size, self.rows * self.cols
        first, second = self._work[:2]
        along_cols = _window_sums(x, m, start, self.cols, 1, (first, second))
        spare = second if along_cols is first else first
        # the row pass shifts whole rows of the image taken as one long row;
        # its sums end in out (for m = 8, so the scaling runs in place) or spare
        summed = _window_sums(along_cols, m, start, size, self.cols, (out, spare))
        np.multiply(summed, 1.0 / m**2, out=out)
        return out

    def _apply(self, x, out=None):
        return self._in_work_dtype(self._convolve, x, out, self.mask_size // 2 - self.mask_size + 1)

    def _adjoint(self, y, out=None):
        return self._in_work_dtype(self._convolve, y, out, -(self.mask_size // 2))


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


class HaarSynthesis2D(_WorkSetOperator):
    """Orthonormal 2-D Haar synthesis operator ``W``.

    The solver variable lives in wavelet-coefficient space: ``apply``
    synthesizes an image from coefficients and ``adjoint`` analyzes an
    image back into coefficients. ``W`` is square orthonormal, so
    ``W^T W = I``. ``levels = 0`` is the identity. The transforms take
    their scratch from image 2 of the work set (see
    :class:`_WorkSetOperator`).
    """

    def __init__(self, rows: int, cols: int, levels: int):
        self.rows = rows = check_integer("rows", rows, minimum=1)
        self.cols = cols = check_integer("cols", cols, minimum=1)
        self.levels = levels = check_integer("levels", levels, minimum=0)
        if rows % (1 << levels) or cols % (1 << levels):
            raise ValueError(
                f"image dims ({rows}, {cols}) not divisible by 2^{levels}"
            )
        super().__init__(rows * cols, rows * cols, rows * cols)

    def _transform(self, v, out, transform):
        shape = (self.rows, self.cols)
        transform(v.reshape(shape), self.levels, out.reshape(shape), self._work[2].reshape(shape))
        return out

    def _apply(self, x, out=None):
        return self._in_work_dtype(self._transform, x, out, haar_synthesis_2d)

    def _adjoint(self, y, out=None):
        return self._in_work_dtype(self._transform, y, out, haar_analysis_2d)


class ComposedOperator(_WorkSetOperator):
    """Composition ``A = outer o inner`` (apply = outer(inner(x))).

    Applying the composition counts once, on the composition itself: it
    runs its constituents' ``_apply`` / ``_adjoint``, so their counters do
    not move. The intermediate goes to image 3 of the work set of its size
    (see :class:`_WorkSetOperator`).
    """

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        if inner.range_dim != outer.domain_dim:
            raise ValueError(
                f"cannot compose: inner range {inner.range_dim} != "
                f"outer domain {outer.domain_dim}"
            )
        self.outer = outer
        self.inner = inner
        super().__init__(inner.domain_dim, outer.range_dim, inner.range_dim)

    def _apply(self, x, out=None):
        return self.outer._apply(self.inner._apply(x, self._work[3]), out)

    def _adjoint(self, y, out=None):
        return self.inner._adjoint(self.outer._adjoint(y, self._work[3]), out)

    def float32(self) -> "ComposedOperator | None":
        """A twin over its parts' twins, or ``None`` if it or either part has none.

        The twin's intermediate is float32 row 3 of the work set, so one
        product rounds its input once and widens its result once.
        """
        twin = super().float32()
        if twin is not None:
            twin.outer, twin.inner = self.outer.float32(), self.inner.float32()
            if twin.outer is None or twin.inner is None:
                return None
        return twin
