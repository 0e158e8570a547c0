"""Proximal solvers for composite objectives f(x) + psi(x).

The iteration approximates f by a separable quadratic around the current
point, solves the resulting prox subproblem, and accepts steps through a
nonmonotone line search seeded by safeguarded (cyclic) spectral
stepsizes. Includes linear operators with adjoint and cost accounting,
closed-form and total-variation regularizers, reproducible problem
generators, a continuation wrapper for small regularization weights, and
a benchmark harness that fits sublinear / R-linear convergence rates.
"""

from .continuation import ContinuationResult, ContinuationSchedule, solve_with_continuation
from .harness import (
    ExperimentSpec,
    RateFit,
    Variant,
    default_variants,
    error_vs_matvec_curve,
    fit_linear,
    fit_rates,
    fit_sublinear,
    run_experiment,
)
from .linops import (
    Blur2D,
    ComposedOperator,
    DenseOperator,
    HaarSynthesis2D,
    LinearOperator,
    PartialFourier2D,
    haar_analysis_2d,
    haar_synthesis_2d,
)
from .problems import (
    GeneratorSpec,
    LeastSquaresProblem,
    OracleProblem,
    gen_bpdn,
    gen_deblur,
    gen_group,
    gen_tv_phantom,
    radial_fourier_mask,
    shepp_logan,
    test_pattern,
)
from .regularizers import (
    GroupL2Regularizer,
    L1Regularizer,
    Regularizer,
    TVIsoRegularizer,
    ZeroRegularizer,
    soft_threshold,
    tv_prox,
    tv_value_2d,
)
from .solver import (
    BacktrackLimitExceeded,
    NonFiniteObjective,
    SolveResult,
    SolverConfig,
    Trace,
    TraceRecord,
    acceptance_violation,
    adaptive_reference,
    bb_seed,
    cyclic_seed,
    gll_reference,
    line_search_step,
    solve,
)

__version__ = "0.1.0"
