"""Reproducible least-squares test problems for the solver.

Four generator families: random spike recovery (``bpdn``), block-sparse
recovery with row-orthonormal sensing (``group``), wavelet-domain image
deblurring (``deblur``) and partial-Fourier phantom reconstruction with
total variation (``tv-phantom``). A (family, parameters, seed) triple is
a pure function of its inputs: regenerating gives bitwise-identical data.

Randomness is drawn from three independent, documented substreams of a
seeded 64-bit PCG generator (0: operator/matrix, 1: signal/support,
2: noise), so changing one dimension never shifts the other draws.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .arrayio import read_pgm
from .linops import (
    Blur2D,
    ComposedOperator,
    DenseOperator,
    HaarSynthesis2D,
    LinearOperator,
    PartialFourier2D,
)
from .regularizers import (
    GroupL2Regularizer,
    L1Regularizer,
    Regularizer,
    TVIsoRegularizer,
)
from .solver import check_integer, check_real


def _substreams(seed: int):
    seed = check_integer("seed", seed, minimum=0)
    matrix_ss, signal_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(matrix_ss),
        np.random.default_rng(signal_ss),
        np.random.default_rng(noise_ss),
    )


def linf(v) -> float:
    return float(np.max(np.abs(v)))


@dataclass
class LeastSquaresProblem:
    """Data term 0.5 ||A x - b||^2 plus a convex regularizer.

    The gradient is A^T (A x - b). Each instance owns its operator's
    matvec counter: one forward per objective evaluation, one forward
    plus one adjoint per gradient.
    """

    op: LinearOperator
    b: np.ndarray
    regularizer: Regularizer
    x1: np.ndarray
    x_true: np.ndarray | None = None

    def f_value(self, x) -> float:
        r = self.op.apply(x)
        r -= self.b
        return 0.5 * float(r @ r)

    def f_grad(self, x) -> np.ndarray:
        r = self.op.apply(x)
        r -= self.b
        return self.op.adjoint(r)

    @property
    def matvec_total(self) -> int:
        return self.op.matvec_total

    def replaced(self, **kwargs) -> "LeastSquaresProblem":
        return replace(self, **kwargs)


@dataclass
class OracleProblem:
    """Smooth term given by callables; handy for synthetic test objectives."""

    value_fn: object
    grad_fn: object
    regularizer: Regularizer
    x1: np.ndarray

    def f_value(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def f_grad(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(np.asarray(x, dtype=float)), dtype=float)

    matvec_total = 0

    def replaced(self, **kwargs) -> "OracleProblem":
        return replace(self, **kwargs)


# -- generators ---------------------------------------------------------------


def gen_bpdn(
    k: int = 256,
    n: int = 1024,
    spikes: int = 160,
    seed: int = 0,
    tau: float | None = None,
    noise_std: float = 1e-2,
) -> LeastSquaresProblem:
    """Random spike-recovery instance.

    A has independent N(0, 1/(2n)) entries; the true signal carries
    ``spikes`` randomly placed +-1 entries; b = A x_true + N(0, noise_std^2)
    noise. Starts from x1 = 0 with an l1 regularizer. ``tau = None``
    defaults to 0.1 * ||A^T b||_inf.
    """
    k = check_integer("k", k, minimum=1)
    n = check_integer("n", n, minimum=1)
    spikes = check_integer("spikes", spikes, minimum=0)
    if spikes > n:
        raise ValueError(f"spikes must be in [0, n], got spikes={spikes!r}, n={n!r}")
    noise_std = check_real("noise_std", noise_std, minimum=0)
    rng_matrix, rng_signal, rng_noise = _substreams(seed)
    A = rng_matrix.normal(0.0, np.sqrt(1.0 / (2 * n)), size=(k, n))
    A.setflags(write=False)  # DenseOperator keeps it without a copy
    x_true = np.zeros(n)
    if spikes > 0:
        support = rng_signal.choice(n, size=spikes, replace=False)
        x_true[support] = rng_signal.integers(0, 2, size=spikes) * 2.0 - 1.0
    b = A @ x_true + rng_noise.normal(0.0, noise_std, size=k)
    if tau is None:
        tau = 0.1 * linf(A.T @ b)
    op = DenseOperator(A)
    return LeastSquaresProblem(
        op=op,
        b=b,
        regularizer=L1Regularizer(tau),
        x1=np.zeros(n),
        x_true=x_true,
    )


def gen_group(
    seed: int = 0,
    k: int = 1024,
    n: int = 4096,
    num_groups: int = 64,
    active_groups: int = 8,
    tau_coef: float = 0.3,
    noise_std: float = 1e-2,
) -> LeastSquaresProblem:
    """Block-sparse instance with row-orthonormal Gaussian sensing.

    The rows of a Gaussian matrix are orthonormalized (QR), the signal is
    split into ``num_groups`` equal contiguous blocks of which
    ``active_groups`` are filled with unit Gaussians, and the group-l2
    weight is ``tau_coef * ||A^T b||_inf``.
    """
    k = check_integer("k", k, minimum=1)
    n = check_integer("n", n, minimum=1)
    if k > n:
        raise ValueError(f"k must be <= n for row-orthonormal sensing, got k={k!r}, n={n!r}")
    num_groups = check_integer("num_groups", num_groups, minimum=1)
    if n % num_groups:
        raise ValueError(f"num_groups must be a positive divisor of n, got {num_groups!r}")
    active_groups = check_integer("active_groups", active_groups, minimum=0)
    if active_groups > num_groups:
        raise ValueError(f"active_groups must be in [0, num_groups], got {active_groups!r}")
    noise_std = check_real("noise_std", noise_std, minimum=0)
    rng_matrix, rng_signal, rng_noise = _substreams(seed)
    G = rng_matrix.standard_normal((k, n))
    Q, _ = np.linalg.qr(G.T)
    A = np.ascontiguousarray(Q.T)
    A.setflags(write=False)
    size = n // num_groups
    groups = [np.arange(i * size, (i + 1) * size) for i in range(num_groups)]
    x_true = np.zeros(n)
    chosen = rng_signal.choice(num_groups, size=active_groups, replace=False)
    for gi in chosen:
        x_true[groups[gi]] = rng_signal.standard_normal(size)
    b = A @ x_true + rng_noise.normal(0.0, noise_std, size=k)
    tau = tau_coef * linf(A.T @ b)
    return LeastSquaresProblem(
        op=DenseOperator(A),
        b=b,
        regularizer=GroupL2Regularizer(tau, groups),
        x1=np.zeros(n),
        x_true=x_true,
    )


def gen_deblur(
    image: np.ndarray | str | None = None,
    mask_size: int = 8,
    levels: int = 3,
    seed: int = 0,
    tau: float = 5e-5,
    noise_std: float = 0.0055,
    rows: int = 64,
    cols: int = 64,
) -> LeastSquaresProblem:
    """Wavelet-domain deblurring of ``image``: an array, a PGM file's path,
    or ``None`` for the built-in ``rows`` x ``cols`` test pattern.

    The observation is the circularly blurred image plus Gaussian noise;
    the unknown lives in Haar-coefficient space so the forward model is
    blur composed with Haar synthesis. Starts from the analysis
    transform of the observation, with an l1 coefficient penalty.
    """
    noise_std = check_real("noise_std", noise_std, minimum=0)
    if image is None:
        rows, cols = check_integer("rows", rows, minimum=1), check_integer("cols", cols, minimum=1)
        image = test_pattern(rows, cols)
    elif isinstance(image, (str, os.PathLike)):
        image = read_pgm(image)
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"image must be a 2-D array, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image must be finite")
    rows, cols = image.shape
    _, _, rng_noise = _substreams(seed)
    blur = Blur2D(rows, cols, mask_size)
    wave = HaarSynthesis2D(rows, cols, levels)
    op = ComposedOperator(blur, wave)
    b = blur.apply(image.ravel()) + rng_noise.normal(0.0, noise_std, size=rows * cols)
    x1 = wave.adjoint(b)
    x_true = wave.adjoint(image.ravel())
    return LeastSquaresProblem(
        op=op,
        b=b,
        regularizer=L1Regularizer(tau),
        x1=x1,
        x_true=x_true,
    )


def gen_tv_phantom(
    rows: int = 64,
    cols: int = 64,
    num_lines: int | None = None,
    seed: int = 0,
    tau: float = 0.01,
    sampling_ratio: float = 6136.0 / 65536.0,
    noise_std: float = 0.0,
) -> LeastSquaresProblem:
    """Partial-Fourier reconstruction of the Shepp-Logan phantom with TV.

    Samples the 2-D Fourier plane along ``num_lines`` radial lines
    through DC, then tops up or trims (seeded) to hit the target
    sampling ratio exactly; DC is always kept. Starts from the adjoint
    of the observations.
    """
    rows = check_integer("rows", rows, minimum=1)
    cols = check_integer("cols", cols, minimum=1)
    if rows != cols:
        raise ValueError(f"phantom generator expects a square grid, got {rows}x{cols}")
    sampling_ratio = check_real("sampling_ratio", sampling_ratio, positive=True)
    if sampling_ratio > 1:
        raise ValueError(f"sampling_ratio must be in (0, 1], got {sampling_ratio!r}")
    if num_lines is not None:
        num_lines = check_integer("num_lines", num_lines, minimum=0)
    noise_std = check_real("noise_std", noise_std, minimum=0)
    rng_matrix, _, rng_noise = _substreams(seed)
    phantom = shepp_logan(rows, cols)
    if num_lines is None:
        num_lines = max(1, round(rows * 6136.0 / 65536.0))  # ~24 lines at 256
    mask = radial_fourier_mask(rows, cols, num_lines, sampling_ratio, rng_matrix)
    op = PartialFourier2D(rows, cols, mask)
    b = op.apply(phantom.ravel())
    if noise_std > 0:
        b = b + rng_noise.normal(0.0, noise_std, size=b.shape)
    x1 = op.adjoint(b)
    op.reset_counters()
    return LeastSquaresProblem(
        op=op,
        b=b,
        regularizer=TVIsoRegularizer(tau, (rows, cols)),
        x1=x1,
        x_true=phantom.ravel(),
    )


# -- phantom and masks ----------------------------------------------------------

# Modified Shepp-Logan ellipse table (intensity, semi-axis a, semi-axis b,
# center x0, center y0, rotation in degrees), the standard 10-ellipse set
# with additive intensities in [0, 1].
SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def shepp_logan(rows: int, cols: int) -> np.ndarray:
    """Rasterize the modified Shepp-Logan phantom on [-1, 1]^2.

    Pixel centers are sampled; values lie in [0, 1] with zero background.
    """
    ys = 1.0 - (2.0 * np.arange(rows) + 1.0) / rows
    xs = (2.0 * np.arange(cols) + 1.0) / cols - 1.0
    X, Y = np.meshgrid(xs, ys)
    img = np.zeros((rows, cols))
    for intensity, a, bb, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(phi_deg)
        c, s = np.cos(phi), np.sin(phi)
        xr = (X - x0) * c + (Y - y0) * s
        yr = -(X - x0) * s + (Y - y0) * c
        img[(xr / a) ** 2 + (yr / bb) ** 2 <= 1.0] += intensity
    # intensity sums cancel to 0 inside the ventricles; clear the rounding dust
    return np.maximum(img, 0.0)


def radial_fourier_mask(
    rows: int,
    cols: int,
    num_lines: int,
    target_ratio: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boolean Fourier-plane mask: radial lines adjusted to a target ratio.

    Rasterizes ``num_lines`` equally spaced radial lines through the
    centered DC, then adds random unsampled locations or removes random
    sampled ones (never DC) until the cardinality equals
    ``round(target_ratio * rows * cols)``. Returned in fft index order.
    """
    target = max(1, round(target_ratio * rows * cols))
    centered = np.zeros((rows, cols), dtype=bool)
    cr, cc = rows // 2, cols // 2
    radius = max(rows, cols)
    ts = np.linspace(-1.0, 1.0, 2 * radius + 1)
    for li in range(num_lines):
        angle = np.pi * li / num_lines
        ii = np.rint(cr + ts * radius * np.sin(angle)).astype(int)
        jj = np.rint(cc + ts * radius * np.cos(angle)).astype(int)
        keep = (ii >= 0) & (ii < rows) & (jj >= 0) & (jj < cols)
        centered[ii[keep], jj[keep]] = True
    centered[cr, cc] = True
    count = int(centered.sum())
    if count < target:
        off = np.flatnonzero(~centered.ravel())
        extra = rng.choice(off, size=target - count, replace=False)
        centered.ravel()[extra] = True
    elif count > target:
        on = np.flatnonzero(centered.ravel())
        on = on[on != cr * cols + cc]  # keep DC
        drop = rng.choice(on, size=count - target, replace=False)
        centered.ravel()[drop] = False
    return np.fft.ifftshift(centered)


def test_pattern(rows: int, cols: int) -> np.ndarray:
    """Deterministic synthetic test image in [0, 1] (edges, ramp, disc)."""
    ys = np.arange(rows)[:, None] / max(rows - 1, 1)
    xs = np.arange(cols)[None, :] / max(cols - 1, 1)
    img = 0.25 * (1 + np.sign(np.sin(8 * np.pi * xs))) / 2 + 0.25 * ys
    disc = (xs - 0.35) ** 2 + (ys - 0.4) ** 2 <= 0.05
    img = img + 0.5 * disc
    img[int(rows * 0.65) :, int(cols * 0.6) :] += 0.25
    return np.clip(img, 0.0, 1.0)


# -- serializable generator specs -----------------------------------------------


# family name -> generator taking ``seed`` and the spec's params as keywords
GENERATORS = {
    "bpdn": gen_bpdn,
    "group": gen_group,
    "deblur": gen_deblur,
    "tv-phantom": gen_tv_phantom,
}


@dataclass
class GeneratorSpec:
    """(family, params, seed) description of a generated problem.

    An unknown family, a param the family's generator does not take, a
    negative or non-integer seed, a non-integer value for any other ``int``
    parameter, or a non-number, NaN or infinity for a ``float`` parameter
    fails here, before anything is generated. A parameter annotated
    ``... | None`` also takes ``None``.
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in GENERATORS:
            raise ValueError(f"unknown family {self.family!r}")
        check_integer("seed", self.seed, minimum=0)
        signature = inspect.signature(GENERATORS[self.family], eval_str=True)
        bound = signature.bind(seed=self.seed, **self.params)
        for name, value in bound.arguments.items():
            annotation = signature.parameters[name].annotation
            if value is None and annotation in (int | None, float | None):
                continue
            if annotation in (int, int | None):
                check_integer(name, value)
            elif annotation in (float, float | None):
                check_real(name, value)

    def make(self) -> LeastSquaresProblem:
        return GENERATORS[self.family](seed=self.seed, **self.params)

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        """Missing keys take their defaults; an unknown key is a ``TypeError``."""
        return cls(**d | {"params": dict(d.get("params", {}))})
