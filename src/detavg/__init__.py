"""Determinant-weighted averaging of subsampled second-order estimates.

Distributed solvers that average locally inverted subsampled Hessians (or
covariances) inherit a systematic bias: the expectation of an inverse is
not the inverse of the expectation.  Weighting each local estimate by the
determinant of the matrix it inverted removes that bias in expectation,
because for sums of independently scaled rank-one components the identity
``E[det(A) A^{-1}] / E[det(A)] = (E[A])^{-1}`` holds exactly.

The package provides

* the determinant-weighted reduction, which returns the weighted mean of
  every requested prefix of a stacked batch and stays accurate when
  log-weights span tens of thousands, and the one-batch combiner built on
  it; uniform averaging is the same reduction with zero log-weights
  (:mod:`detavg.averaging`),
* one Cholesky kernel that factors a stack of local matrices, solves and
  returns their log-determinants (:mod:`detavg.linalg`),
* regularized convex objectives with exact gradients and Hessians, and
  the one Hessian and one second-moment Gram kernel of every matrix
  (:mod:`detavg.objective`), and Bernoulli row subsampling with
  counter-based per-machine random streams plus the fleet builder that
  stacks every machine's local matrix (:mod:`detavg.sketch`),
* simulation of distributed Newton steps and whole trajectories, with
  error sweeps against the exact step (:mod:`detavg.newton`),
* distributed estimation of precision-matrix statistics such as the trace
  of an inverse covariance (:mod:`detavg.uq`),
* a brute-force enumeration oracle that evaluates the determinant and
  adjugate expectation identities exactly on small instances, a stack of
  outcomes at a time (:mod:`detavg.oracle`),
* dataset parsing, degree-2 feature expansion, and synthetic instance
  generation (:mod:`detavg.dataio`), and a command line front end
  (:mod:`detavg.cli`).
"""

from .averaging import LocalEstimate, combine_determinantal, weighted_means
from .dataio import expand_degree2, parse_libsvm, standardize, synth_regression
from .newton import (
    MachineConfig,
    Scheme,
    StepReport,
    Trajectory,
    coherence,
    error_sweep,
    merged_step,
    run_distributed_newton,
)
from .objective import Dataset, LossKind, Objective
from .oracle import (
    RandomRankOneSum,
    expect_adjugate,
    expect_det,
    expect_inverse,
    expect_uniform_newton_bias,
    expect_weighted_inverse,
    hand_checked_instance,
    identity_suite,
    rank_two_counterexample,
)
from .sketch import SeedSpec, SketchMask, draw_mask, local_covariance, local_hessian
from .uq import Statistic, UqConfig, estimate_precision_statistic, uq_sweep

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "LocalEstimate",
    "LossKind",
    "MachineConfig",
    "Objective",
    "RandomRankOneSum",
    "Scheme",
    "SeedSpec",
    "SketchMask",
    "Statistic",
    "StepReport",
    "Trajectory",
    "UqConfig",
    "coherence",
    "combine_determinantal",
    "draw_mask",
    "error_sweep",
    "estimate_precision_statistic",
    "expand_degree2",
    "expect_adjugate",
    "expect_det",
    "expect_inverse",
    "expect_uniform_newton_bias",
    "expect_weighted_inverse",
    "hand_checked_instance",
    "identity_suite",
    "local_covariance",
    "local_hessian",
    "merged_step",
    "parse_libsvm",
    "rank_two_counterexample",
    "run_distributed_newton",
    "standardize",
    "synth_regression",
    "uq_sweep",
    "weighted_means",
]
