"""Shared numeric oracles and helpers, independent of the library's code paths."""

from __future__ import annotations

import numpy as np
import pytest

from sparsa.linops import LinearOperator


class IdentityOperator(LinearOperator):
    """Test double: the identity map on R^n, counted like any operator."""

    kind = "identity"

    def __init__(self, n: int):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()


def stationarity_residual(reg, x, g) -> float:
    """Max-norm distance from ``-g`` to the subdifferential of ``reg`` at ``x``.

    The closed forms for the zero, l1 and group-l2 kinds; with ``g = grad
    f(x)`` this is zero exactly at stationary points of ``f + psi``. Other
    kinds have none and raise ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError("x and g must have the same length")
    if reg.kind == "zero":
        return float(np.max(np.abs(g))) if g.size else 0.0
    if reg.kind == "l1":
        res = np.where(
            x != 0,
            np.abs(g + reg.tau * np.sign(x)),
            np.maximum(np.abs(g) - reg.tau, 0.0),
        )
        return float(np.max(res)) if res.size else 0.0
    if reg.kind == "group-l2":
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
    raise ValueError(f"no closed-form stationarity residual for kind {reg.kind!r}")


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


def tv_prox_plain_loop(u, weight, p0=None, max_iters=40, tol=1e-5, step=0.248, dual_history=None):
    """The TV prox written as a plain dual loop with fresh arrays each step.

    Same contract and the same floating-point operations, in the same
    order, as ``sparsa.regularizers.tv_prox``, so the two must agree bit
    for bit. Kept as the reference the buffered implementation is checked
    against; it also keeps the tolerance scale ``max(1, max|px|, max|py|)``.
    """
    u = np.asarray(u, dtype=float)
    if weight == 0.0:
        return u.copy(), np.zeros((2,) + u.shape)
    p = np.zeros((2,) + u.shape) if p0 is None else np.array(p0, dtype=float)
    px, py = p[0], p[1]
    z = u + weight * _tv_divergence(px, py)
    for _ in range(max_iters):
        if dual_history is not None:
            dual_history.append(0.5 * float(z.ravel() @ z.ravel()))
        gx, gy = _tv_gradient(z)
        qx = px + (step / weight) * gx
        qy = py + (step / weight) * gy
        norms = np.maximum(1.0, np.sqrt(qx**2 + qy**2))
        qx /= norms
        qy /= norms
        change = max(np.max(np.abs(qx - px)), np.max(np.abs(qy - py)))
        px, py = qx, qy
        z = u + weight * _tv_divergence(px, py)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("TV inner solver produced non-finite values")
        if change <= tol * max(1.0, np.max(np.abs(px)), np.max(np.abs(py))):
            break
    if dual_history is not None:
        dual_history.append(0.5 * float(z.ravel() @ z.ravel()))

    def tv(img):
        gx, gy = _tv_gradient(img)
        return float(np.sum(np.sqrt(gx**2 + gy**2)))

    obj_z = 0.5 * float(np.sum((z - u) ** 2)) + weight * tv(z)
    if obj_z > weight * tv(u):
        return u.copy(), np.zeros((2,) + u.shape)
    return z, np.stack([px, py])


def box_blur_complex_fft(x, rows, cols, mask_size, adjoint=False):
    """The circular box blur through the full complex spectrum.

    ``fft2`` of the image times ``fft2`` of the zero-padded kernel (offsets
    ``arange(m) - m // 2``, weight ``1/m**2``), conjugated for the adjoint,
    then the real part of ``ifft2``. ``sparsa.linops.Blur2D`` does the same
    on the half spectrum of real FFTs; this is the reference it is checked
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
