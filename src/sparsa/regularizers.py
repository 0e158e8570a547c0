"""Convex regularizers psi with exact or iterative scaled proximal maps.

The solver's separable subproblem is

    argmin_z  grad . z + alpha ||z - x||^2 + psi(z),

which after completing the square is the proximal map

    argmin_z  0.5 ||z - u||^2 + psi(z) / (2 alpha),   u = x - grad / (2 alpha).

Note the quadratic carries weight ``alpha``, not ``alpha / 2``: the
effective l1 threshold is ``tau / (2 alpha)``. Everything downstream
depends on this convention.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .solver import check_integer, check_real


def soft_threshold(u: np.ndarray, t: float) -> np.ndarray:
    """``sign(u) * max(|u| - t, 0)``, computed in one result buffer."""
    z = np.abs(u)
    z -= t
    np.maximum(z, 0.0, out=z)
    np.multiply(np.sign(u), z, out=z)
    return z


class Regularizer:
    """Base class: the value psi(x) and the scaled proximal map.

    No kind states its subdifferential: the solver certifies stationarity
    from the prox's optimality condition at its last step, which holds for
    every kind (see :mod:`sparsa.solver`). Instances are immutable and
    shareable across solves; any per-solve iteration state (the TV dual
    field and inner budget) lives in the object returned by
    :meth:`make_prox_state`, owned by the caller.
    """

    kind = "abstract"
    dim = None  # the length of every vector argument; None takes any length

    def __init__(self, tau: float):
        self.tau = check_real("tau", tau, minimum=0)

    def value(self, x) -> float:
        raise NotImplementedError

    def prox(self, u, alpha: float, state=None) -> np.ndarray:
        """Solve ``argmin_z 0.5 ||z - u||^2 + psi(z) / (2 alpha)``.

        Every kind first checks ``alpha`` (:meth:`_weight`: positive and
        finite) and then the length of ``u`` (:meth:`_check_dim`). The
        result is a new array, sharing no memory with ``u``: the solver
        writes its step into ``u`` afterwards.
        """
        raise NotImplementedError

    def make_prox_state(self):
        """Per-solve mutable state for iterative proxes (None if exact).

        The solver passes it to every :meth:`prox` call of one solve and
        reports each line search's backtrack count to its
        ``note_backtracks`` method.
        """
        return None

    def with_tau(self, tau: float) -> "Regularizer":
        """Copy of this regularizer with a different weight.

        Every other setting (group partition, TV grid and inner-solver
        settings) is shared with ``self``; instances are never mutated, so
        sharing is safe.
        """
        twin = copy.copy(self)
        twin.tau = check_real("tau", tau, minimum=0)
        return twin

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dim is not None and x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {x.shape}")
        return x

    def _weight(self, alpha) -> float:
        """The prox weight ``tau / (2 alpha)``; ``alpha`` must be positive and finite."""
        return self.tau / (2.0 * check_real("alpha", alpha, positive=True))


class L1Regularizer(Regularizer):
    """psi(x) = tau * ||x||_1; prox is soft-thresholding at tau/(2 alpha)."""

    kind = "l1"

    def value(self, x) -> float:
        return self.tau * float(np.sum(np.abs(self._check_dim(x))))

    def prox(self, u, alpha, state=None):
        t = self._weight(alpha)
        return soft_threshold(self._check_dim(u), t)


class GroupL2Regularizer(Regularizer):
    """psi(x) = tau * sum over groups of ||x_[i]||_2 (block sparsity).

    ``groups`` must be a partition of the indices 0..n-1 into disjoint
    blocks; overlap or gaps are rejected at construction.
    """

    kind = "group-l2"

    def __init__(self, tau: float, groups):
        super().__init__(tau)
        self.groups = [np.asarray(g, dtype=np.intp) for g in groups]
        if not self.groups:
            raise ValueError("at least one group required")
        flat = np.concatenate(self.groups)
        self.dim = int(flat.size)
        if not np.array_equal(np.sort(flat), np.arange(self.dim)):
            raise ValueError("groups must partition indices 0..n-1 (disjoint, covering)")

    def value(self, x) -> float:
        x = self._check_dim(x)
        return self.tau * float(sum(np.linalg.norm(x[g]) for g in self.groups))

    def prox(self, u, alpha, state=None):
        t = self._weight(alpha)
        u = self._check_dim(u)
        z = np.empty_like(u)
        for g in self.groups:
            block = u[g]
            nrm = np.linalg.norm(block)
            scale = 0.0 if nrm <= t else 1.0 - t / nrm
            z[g] = scale * block
        return z


# -- isotropic total variation -----------------------------------------------


def _check_c_contiguous(name: str, buf: np.ndarray) -> np.ndarray:
    # the kernels below write through flat views, which a non-contiguous
    # buffer would silently turn into copies
    if not buf.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    return buf


def tv_gradient(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference image gradient ``(gx, gy)``; zero at the far column/row.

    The two planes are stacked in one ``(2, rows, cols)`` array; with
    ``out`` (C-contiguous) they are written into that array instead of a
    fresh one. The column differences are one subtraction over the
    flattened image: the entries that wrap from one row into the next land
    in the far column, which is then zeroed.
    """
    g = np.empty((2,) + z.shape, dtype=z.dtype) if out is None else _check_c_contiguous("out", out)
    flat = z.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=g[0].reshape(-1)[:-1])
    g[0, :, -1] = 0.0
    np.subtract(z[1:], z[:-1], out=g[1, :-1])
    g[1, -1] = 0.0
    return g


def tv_divergence(px: np.ndarray, py: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Negative adjoint of :func:`tv_gradient` (<grad z, p> = -<z, div p>).

    The divergence is written into ``out`` and its y part is built in
    ``work`` (both C-contiguous, shaped like ``px``); ``out`` is returned.
    It is ``(0 + x_part) + y_part`` in that order, so even the sign of a
    zero is that of the two parts accumulated into a zeroed array.
    """
    rows, cols = px.shape
    div = _check_c_contiguous("out", out)
    if cols > 1:
        # one subtraction over the flattened plane; the first and last
        # columns, where it wraps across rows, are then set explicitly
        flat = px.reshape(-1)
        np.subtract(flat[1:], flat[:-1], out=div.reshape(-1)[1:])
        div[:, 0] = px[:, 0]
        # not np.negative(..., out=div[:, -1]): numpy 2.4.6 misreads an
        # input with a stride of 8 doubles when the output is strided too
        div[:, -1] = -px[:, -2]
        div += 0.0  # 0 + x_part: a -0.0 becomes +0.0
    else:
        div.fill(0.0)
    if rows > 1:
        w = _check_c_contiguous("work", work)
        w[0] = py[0]
        np.subtract(py[1:-1], py[:-2], out=w[1:-1])
        w[-1] = -py[-2]
        div += w
    return div


def tv_value_2d(z: np.ndarray, work: np.ndarray | None = None) -> float:
    """Isotropic TV of the image ``z``: the sum of per-pixel gradient norms.

    ``work`` is an optional C-contiguous ``(2, rows, cols)`` buffer that
    holds the gradient and its squares instead of a fresh one.
    """
    g = tv_gradient(np.asarray(z, dtype=float), out=work)
    np.multiply(g, g, out=g)
    np.add(g[0], g[1], out=g[0])
    np.sqrt(g[0], out=g[0])
    return float(np.sum(g[0]))


# tv_prox's dual step times the weight; at most 0.25 keeps the step below
# 2/L for the dual gradient (L <= 8 weight^2), so the dual objective falls.
DUAL_STEP = 0.248


def tv_prox(
    u: np.ndarray,
    weight: float,
    p0=None,
    max_iters: int = 40,
    tol: float = 1e-5,
    dual_history: list | None = None,
):
    """Weighted isotropic-TV proximal map by dual projected gradient.

    Minimizes ``0.5 ||z - u||^2 + weight * TV(z)`` through its dual
    ``min 0.5 ||u + weight * div(p)||^2`` over per-pixel unit balls
    ``||p_ij||_2 <= 1`` with step ``DUAL_STEP / weight``. Returns ``(z, p)``
    with ``z`` in float64 and the dual field ``p`` in float32; pass ``p``
    back as ``p0`` to warm-start the next call. The result is never worse
    than ``z = u``. ``dual_history`` collects ``0.5 ||z||^2`` of the float32
    iterates.

    The dual loop runs in float32: ``u`` is rounded once per call, and the
    gradient, step, projection, exit test, divergence and ``z`` update are
    all float32 operations. The prox is inexact by design (a solve caps its
    dual steps), and float32 resolves about 6e-8 on the unit-bounded dual
    field, far below the changes at which the cap stops a call. ``z`` is
    widened to float64 once, after the loop; the non-finite check and the
    "never worse than ``z = u``" test then run in float64, on that ``z``
    and the float64 input.

    The loop stops once an iteration moves no dual entry by more than
    ``tol``. The test needs no scale: after projection every ``|p|`` entry is
    at most 1 exactly, because ``|q_x| = sqrt(fl(q_x^2)) <= sqrt(fl(q_x^2 +
    q_y^2))`` under round-to-nearest, so ``max(1, max|p|)`` would be 1. A
    ``tol`` below about 1e-7 is finer than a float32 dual entry near 1 can
    move, so it reads "stop when the float32 dual field stops moving".

    The working arrays are allocated once per call and updated in place:
    the dual field ``p`` and the dual step ``q`` (both planes in one array
    each, swapped after every iteration), and one ``work`` array holding the
    per-pixel ``norm``, the divergence ``div``, the rounded input ``u32``
    and ``z``. After the swap the old dual field is dead, so ``|q - p|`` is
    computed into it, and it then serves as the divergence's work plane;
    ``div`` holds ``q_y^2`` while the norm is built. Once ``z`` is widened,
    ``work`` is dead, and its four float32 planes serve the fallback test
    as a ``(2, rows, cols)`` float64 buffer.
    Non-finite values raise :class:`FloatingPointError`: ``u`` is checked
    before the loop and ``z`` after it, and a non-finite ``z`` inside it
    (from the warm start, or from an entry beyond the float32 range) makes
    the next dual change NaN.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if weight == 0.0:
        return u.copy(), np.zeros((2,) + u.shape, dtype=np.float32)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("TV inner solver produced non-finite values")
    p = np.zeros((2,) + u.shape, dtype=np.float32) if p0 is None else np.array(p0, dtype=np.float32)
    q = np.empty_like(p)
    # four float32 planes, the size of the fallback test's two float64 ones
    work = np.empty((4,) + u.shape, dtype=np.float32)
    norm, div, u32, z = work
    u32[...] = u
    weight32 = np.float32(weight)
    scale = np.float32(DUAL_STEP / weight)

    def update_z():
        # q is dead here: its first plane is the divergence's work plane
        np.multiply(tv_divergence(p[0], p[1], out=div, work=q[0]), weight32, out=div)
        np.add(u32, div, out=z)

    update_z()
    for _ in range(max_iters):
        if dual_history is not None:
            dual_history.append(0.5 * float(z.ravel() @ z.ravel()))
        # q = p + scale * grad z
        tv_gradient(z, out=q)
        q *= scale
        q += p
        np.multiply(q[0], q[0], out=norm)
        np.multiply(q[1], q[1], out=div)
        norm += div
        np.sqrt(norm, out=norm)
        np.maximum(norm, 1.0, out=norm)
        q /= norm
        p, q = q, p
        np.subtract(p, q, out=q)
        np.abs(q, out=q)
        change = float(q.max())
        if math.isnan(change):
            raise FloatingPointError("TV inner solver produced non-finite values")
        update_z()
        if change <= tol:
            break
    if dual_history is not None:
        dual_history.append(0.5 * float(z.ravel() @ z.ravel()))
    z = z.astype(float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("TV inner solver produced non-finite values")
    # inexact inner solves must never move above the trivial feasible point
    fallback_work = work.reshape(-1).view(float).reshape((2,) + u.shape)
    diff = fallback_work[0]
    np.subtract(z, u, out=diff)
    np.multiply(diff, diff, out=diff)
    obj_z = 0.5 * float(np.sum(diff)) + weight * tv_value_2d(z, work=fallback_work)
    if obj_z > weight * tv_value_2d(u, work=fallback_work):
        return u.copy(), np.zeros((2,) + u.shape, dtype=np.float32)
    return z, p


class TVProxState:
    """Per-solve TV state: the warm-start dual field and the inner budget.

    ``p`` is the float32 dual field of the last :func:`tv_prox` call (None
    before the first), kept in float32 from one call to the next. The
    budget (``max_iters``, ``tol``) starts at the regularizer's
    ``inner_max_iters`` and ``inner_tol``. A line search that needed
    ``GROW_AFTER`` or more backtracks is read as a sign that the inexact
    prox, not the stepsize, holds the outer run back: the cap then grows by
    ``GROW_FACTOR`` and the tolerance shrinks by ``TOL_SHRINK``, until the
    cap reaches ``MAX_ITERS_CEILING``. The dual loop runs in float32 (the
    "never worse than ``z = u``" test after it in float64), so once ``tol``
    falls below about 1e-7 it reads "stop when the float32 dual field stops
    moving"; the cap then does the limiting.
    """

    GROW_AFTER = 3
    GROW_FACTOR = 2
    TOL_SHRINK = 10.0
    MAX_ITERS_CEILING = 640

    __slots__ = ("p", "max_iters", "tol")

    def __init__(self, max_iters: int, tol: float):
        self.p = None
        self.max_iters = max_iters
        self.tol = tol

    def note_backtracks(self, backtracks: int) -> None:
        """Tighten the budget after a line search with ``backtracks`` backtracks."""
        if backtracks >= self.GROW_AFTER and self.max_iters < self.MAX_ITERS_CEILING:
            self.max_iters = min(self.max_iters * self.GROW_FACTOR, self.MAX_ITERS_CEILING)
            self.tol /= self.TOL_SHRINK


class TVIsoRegularizer(Regularizer):
    """Isotropic total variation on a 2-D grid.

    psi(x) = tau * sum_i sqrt((dx_i)^2 + (dy_i)^2) with forward
    differences and replicated far edges. The prox has no closed form and
    is solved iteratively (see :func:`tv_prox`). ``inner_max_iters`` and
    ``inner_tol`` (8 and 1e-5 by default) are the inner iteration cap and
    exit tolerance of a prox call without state. Within a solve they are
    only the starting budget: the dual field is warm-started from the
    previous call, so a few steps per call suffice early on, and the
    solve's :class:`TVProxState` doubles the cap (up to 640) and divides
    the tolerance by 10 after each line search with 3 or more backtracks.
    The dual loop runs in float32, so a tolerance below about 1e-7 (two
    growth steps from the default) means "until the float32 dual field
    stops moving"; the "never worse than ``z = u``" test runs in float64
    on the returned ``z`` and the float64 input.
    """

    kind = "tv-iso"

    def __init__(
        self,
        tau: float,
        grid: tuple[int, int],
        inner_max_iters: int = 8,
        inner_tol: float = 1e-5,
    ):
        super().__init__(tau)
        rows, cols = grid
        self.grid = (
            check_integer("grid rows", rows, minimum=1),
            check_integer("grid cols", cols, minimum=1),
        )
        self.inner_max_iters = check_integer("inner_max_iters", inner_max_iters, minimum=1)
        self.inner_tol = check_real("inner_tol", inner_tol, minimum=0)
        self.dim = self.grid[0] * self.grid[1]

    def value(self, x) -> float:
        x = self._check_dim(x)
        return self.tau * tv_value_2d(x.reshape(self.grid))

    def make_prox_state(self):
        return TVProxState(self.inner_max_iters, self.inner_tol)

    def prox(self, u, alpha, state=None):
        weight = self._weight(alpha)
        u = self._check_dim(u)
        if state is None:  # a call outside a solve: the constructor's budget, no warm start
            state = self.make_prox_state()
        z, state.p = tv_prox(
            u.reshape(self.grid), weight, p0=state.p, max_iters=state.max_iters, tol=state.tol
        )
        return z.ravel()
