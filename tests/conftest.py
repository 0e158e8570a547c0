"""Shared numeric oracles and helpers, independent of the library's code paths."""

from __future__ import annotations

import numpy as np
import pytest

from sparsa.linops import LinearOperator
from sparsa.regularizers import GroupL2Regularizer, L1Regularizer
from sparsa.solver import Trace


class IdentityOperator(LinearOperator):
    """Test double: the identity map on R^n, counted like any operator."""

    def __init__(self, n: int):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()


def stationarity_residual(reg, x, g) -> float:
    """Max-norm distance from ``-g`` to the subdifferential of ``reg`` at ``x``.

    The closed forms for the l1 and group-l2 regularizers; with
    ``g = grad f(x)`` this is zero exactly at stationary points of
    ``f + psi``. Other regularizers have none and raise ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError("x and g must have the same length")
    if isinstance(reg, L1Regularizer):
        res = np.where(
            x != 0,
            np.abs(g + reg.tau * np.sign(x)),
            np.maximum(np.abs(g) - reg.tau, 0.0),
        )
        return float(np.max(res)) if res.size else 0.0
    if isinstance(reg, GroupL2Regularizer):
        worst = 0.0
        for grp in reg.groups:
            xb, gb = x[grp], g[grp]
            nrm = np.linalg.norm(xb)
            if nrm > 0:
                r = float(np.max(np.abs(gb + reg.tau * xb / nrm)))
            else:
                r = max(float(np.linalg.norm(gb)) - reg.tau, 0.0)
            worst = max(worst, r)
        return worst
    raise ValueError(f"no closed-form stationarity residual for {type(reg).__name__}")


def stage_traces(res):
    """The result's trace cut into its stages; the last one keeps the summary."""
    traces, start = [], 0
    for i, stage in enumerate(res.stages):
        summary = res.trace.summary if i == len(res.stages) - 1 else None
        traces.append(Trace(res.trace.records[start : start + stage["iters"]], summary))
        start += stage["iters"]
    assert start == len(res.trace.records)
    return traces


def golden_min(f, lo, hi, tol=1e-14):
    """Golden-section minimizer in extended precision.

    Runs the comparisons in longdouble so the bracket resolves below the
    float64 derivative-free accuracy floor (~1e-8).
    """
    gr = (np.sqrt(np.longdouble(5)) - 1) / 2
    a, b = np.longdouble(lo), np.longdouble(hi)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def _tv_gradient(z):
    """Forward differences with a zero far row/column."""
    gx = np.zeros_like(z)
    gy = np.zeros_like(z)
    if z.shape[1] > 1:
        gx[:, :-1] = z[:, 1:] - z[:, :-1]
    if z.shape[0] > 1:
        gy[:-1, :] = z[1:, :] - z[:-1, :]
    return gx, gy


def _tv_divergence(px, py):
    """Negative adjoint of the forward differences, accumulated with +=."""
    div = np.zeros_like(px)
    if px.shape[1] > 1:
        div[:, 0] += px[:, 0]
        div[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
        div[:, -1] += -px[:, -2]
    if py.shape[0] > 1:
        div[0, :] += py[0, :]
        div[1:-1, :] += py[1:-1, :] - py[:-2, :]
        div[-1, :] += -py[-2, :]
    return div


def tv_prox_dual_oracle(u, weight, iters=100_000, step=0.125):
    """Long-run dual projected gradient for the weighted-TV prox.

    Deliberately plain: fixed conservative step, no warm start, no early
    exit. Forward differences with a zero far edge, divergence as the
    negative adjoint.
    """
    u = np.asarray(u, dtype=float)
    px = np.zeros_like(u)
    py = np.zeros_like(u)
    for _ in range(iters):
        z = u + weight * _tv_divergence(px, py)
        gx, gy = _tv_gradient(z)
        px = px + (step / weight) * gx
        py = py + (step / weight) * gy
        norms = np.maximum(1.0, np.sqrt(px**2 + py**2))
        px /= norms
        py /= norms
    return u + weight * _tv_divergence(px, py)


def tv_prox_plain_loop(
    u, weight, p0=None, max_iters=40, step=0.248, dual_history=None, dtype=np.float32
):
    """The TV prox written as a plain dual loop with fresh arrays each step.

    Same contract and the same floating-point operations, in the same
    order, as ``sparsa.regularizers.tv_prox``, so the two must agree bit
    for bit: exactly ``max_iters`` dual steps, no exit test. Kept as the
    reference the buffered implementation is checked against.
    ``dual_history`` collects ``0.5 ||z||^2`` of the iterates, before every
    step and after the last. The dual loop runs in ``dtype`` (float32, as
    in the kernel; float64 gives the full-precision loop the float32 one is
    measured against); the non-finite checks and the fallback test run in
    float64.
    """
    u = np.asarray(u, dtype=float)
    if weight == 0.0:
        return u.copy(), np.zeros((2,) + u.shape, dtype=dtype)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("TV inner solver produced non-finite values")
    p = np.zeros((2,) + u.shape, dtype=dtype) if p0 is None else np.array(p0, dtype=dtype)
    px, py = p[0], p[1]
    u_loop = u.astype(dtype)
    w = dtype(weight)
    scale = dtype(step / weight)
    z = u_loop + w * _tv_divergence(px, py)
    for _ in range(max_iters):
        if dual_history is not None:
            dual_history.append(0.5 * float(z.ravel() @ z.ravel()))
        gx, gy = _tv_gradient(z)
        qx = px + scale * gx
        qy = py + scale * gy
        norms = np.maximum(dtype(1.0), np.sqrt(qx**2 + qy**2))
        qx /= norms
        qy /= norms
        px, py = qx, qy
        z = u_loop + w * _tv_divergence(px, py)
    if dual_history is not None:
        dual_history.append(0.5 * float(z.ravel() @ z.ravel()))
    z = z.astype(float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("TV inner solver produced non-finite values")

    def tv(img):
        gx, gy = _tv_gradient(img)
        return float(np.sum(np.sqrt(gx**2 + gy**2)))

    obj_z = 0.5 * float(np.sum((z - u) ** 2)) + weight * tv(z)
    if obj_z > weight * tv(u):
        return u.copy(), np.zeros((2,) + u.shape, dtype=dtype)
    return z, np.stack([px, py])


def box_blur_complex_fft(x, rows, cols, mask_size, adjoint=False):
    """The circular box blur through the full complex spectrum.

    ``fft2`` of the image times ``fft2`` of the zero-padded kernel (offsets
    ``arange(m) - m // 2``, weight ``1/m**2``), conjugated for the adjoint,
    then the real part of ``ifft2``. ``sparsa.linops.Blur2D`` computes the
    same operator by window sums; this is the reference it is checked
    against.
    """
    offs = np.arange(mask_size) - mask_size // 2
    padded = np.zeros((rows, cols))
    padded[np.ix_(offs % rows, offs % cols)] = 1.0 / mask_size**2
    transfer = np.fft.fft2(padded)
    if adjoint:
        transfer = np.conj(transfer)
    img = np.asarray(x, dtype=float).reshape(rows, cols)
    return np.real(np.fft.ifft2(np.fft.fft2(img) * transfer)).ravel()


def box_blur_window_sums(x, rows, cols, mask_size, adjoint=False):
    """The circular box blur as window sums of ``np.roll`` copies.

    Along the columns, then along the rows, a window of ``mask_size``
    entries starting at offset ``mask_size // 2 - mask_size + 1`` (the
    adjoint: ``-(mask_size // 2)``) is summed by binary doubling: ``W_1``
    is the rolled image, ``W_2q = W_q + W_q`` rolled by ``q``, and each
    set bit of ``mask_size`` after the leading one adds one more rolled
    copy of the pass input. The sums are then scaled by
    ``1 / mask_size**2``. ``sparsa.linops.Blur2D`` makes the same
    additions in the same order and must match this bit for bit.
    """
    m = mask_size
    start = -(m // 2) if adjoint else m // 2 - m + 1

    def window(v, axis):
        w = np.roll(v, -start, axis)
        width = 1
        for bit in bin(m)[3:]:
            w = w + np.roll(w, -width, axis)
            width *= 2
            if bit == "1":
                w = w + np.roll(v, -(start + width), axis)
                width += 1
        return w

    img = np.asarray(x, dtype=float).reshape(rows, cols)
    return (window(window(img, 1), 0) * (1.0 / m**2)).ravel()


def partial_fourier_complex_fft(v, rows, cols, mask, adjoint=False):
    """The masked unitary DFT through the full complex spectrum.

    Forward: the row-major masked entries of ``fft2(image) / sqrt(rows*cols)``,
    stacked ``[real; imag]``. Adjoint: the coefficients ``y[:m] + 1j*y[m:]``
    zero-filled at the mask, then ``Re(ifft2) * sqrt(rows*cols)``.
    ``sparsa.linops.PartialFourier2D`` does the same on the half spectrum of
    real FFTs; this is the reference it is checked against.
    """
    idx = np.flatnonzero(np.asarray(mask, dtype=bool).ravel())
    scale = 1.0 / np.sqrt(rows * cols)
    v = np.asarray(v, dtype=float)
    if not adjoint:
        picked = (np.fft.fft2(v.reshape(rows, cols)) * scale).ravel()[idx]
        return np.concatenate([picked.real, picked.imag])
    spectrum = np.zeros(rows * cols, dtype=complex)
    spectrum[idx] = v[: idx.size] + 1j * v[idx.size :]
    img = np.fft.ifft2(spectrum.reshape(rows, cols))
    return np.real(img).ravel() * (rows * cols) * scale


def haar_analysis_quadrants(image, levels):
    """One Haar analysis level per loop, each quadrant from its own formula.

    Each 2x2 block ``[[a, b], [c, d]]`` gives ``(a+b+c+d)/2`` (top-left),
    ``(a-b+c-d)/2`` (top-right), ``(a+b-c-d)/2`` (bottom-left) and
    ``(a-b-c+d)/2`` (bottom-right); deeper levels recurse on the top-left
    quadrant.
    """
    out = np.array(image, dtype=float)
    r, c = out.shape
    for _ in range(levels):
        block = out[:r, :c]
        a, b = block[0::2, 0::2], block[0::2, 1::2]
        cc, d = block[1::2, 0::2], block[1::2, 1::2]
        r2, c2 = r // 2, c // 2
        merged = np.empty((r, c))
        merged[:r2, :c2] = (a + b + cc + d) / 2.0
        merged[:r2, c2:] = (a - b + cc - d) / 2.0
        merged[r2:, :c2] = (a + b - cc - d) / 2.0
        merged[r2:, c2:] = (a - b - cc + d) / 2.0
        out[:r, :c] = merged
        r, c = r2, c2
    return out


def haar_synthesis_quadrants(coeffs, levels):
    """The inverse of :func:`haar_analysis_quadrants`, one 2x2 block formula per entry."""
    out = np.array(coeffs, dtype=float)
    rows, cols = out.shape
    for r2, c2 in [(rows >> lv, cols >> lv) for lv in range(levels, 0, -1)]:
        ll, h = out[:r2, :c2], out[:r2, c2 : 2 * c2]
        v, dg = out[r2 : 2 * r2, :c2], out[r2 : 2 * r2, c2 : 2 * c2]
        block = np.empty((2 * r2, 2 * c2))
        block[0::2, 0::2] = (ll + h + v + dg) / 2.0
        block[0::2, 1::2] = (ll - h + v - dg) / 2.0
        block[1::2, 0::2] = (ll + h - v - dg) / 2.0
        block[1::2, 1::2] = (ll - h - v + dg) / 2.0
        out[: 2 * r2, : 2 * c2] = block
    return out


def tv_objective(z, u, weight):
    """0.5||z-u||^2 + weight * isotropic TV, written out independently."""
    z = np.asarray(z, dtype=float)
    rows, cols = z.shape
    tv = 0.0
    for i in range(rows):
        for j in range(cols):
            dh = z[i, j + 1] - z[i, j] if j + 1 < cols else 0.0
            dv = z[i + 1, j] - z[i, j] if i + 1 < rows else 0.0
            tv += np.sqrt(dh * dh + dv * dv)
    return 0.5 * float(np.sum((z - u) ** 2)) + weight * tv


def pgm_p5_bytes(image) -> bytes:
    """A binary (P5) PGM file, maxval 255, of an image with values in [0, 1]."""
    raster = np.rint(np.asarray(image) * 255).astype(np.uint8)
    rows, cols = raster.shape
    return f"P5\n{cols} {rows}\n255\n".encode() + raster.tobytes()


def finite_difference_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def running_window_max(values, M):
    """The max-of-last-M sequence, recomputed from scratch."""
    out = []
    for i in range(len(values)):
        lo = max(0, i - M + 1)
        out.append(max(values[lo : i + 1]))
    return np.array(out)


def adaptive_reference_oracle(objectives, L, Delta, M):
    """The "adaptive" reference of every iteration, from the full objective history.

    ``objectives[k - 1]`` is phi(x_k). Iteration 1 takes phi(x_1); iteration
    k drops to the max of the last M objectives when k is a multiple of L,
    or when k > L and phi(x_{k-L}) - phi(x_k) <= Delta * max(1, |phi(x_k)|),
    and otherwise keeps the larger of that max and the previous reference.
    """
    refs = []
    for k in range(1, len(objectives) + 1):
        current = objectives[k - 1]
        phi_max = max(objectives[max(0, k - M) : k])
        if k == 1:
            refs.append(current)
            continue
        reset = k % L == 0
        if not reset and k > L:
            reset = objectives[k - L - 1] - current <= Delta * max(1.0, abs(current))
        refs.append(phi_max if reset else max(refs[-1], phi_max))
    return refs


@pytest.fixture
def rng():
    return np.random.default_rng(0)
