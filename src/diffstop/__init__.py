"""Representation theory of excessive functions for 1D regular diffusions,
applied to smooth-fit diagnostics in optimal stopping.

The package is organized around four layers: diffusion families with their
fundamental solutions (:mod:`diffstop.diffusion`), Martin/Riesz representing
measures and the derivative-jump decomposition
(:mod:`diffstop.representation`), the sticky-Brownian-motion stopping
problem (:mod:`diffstop.stopping`), and an independent birth-death-chain
oracle (:mod:`diffstop.oracle`).  The ``diffstop`` command line front end
lives in :mod:`diffstop.cli`.
"""

from .diffusion import (
    BoundaryKind,
    DiffusionSpec,
    Family,
    FundamentalSolutions,
    Interval,
    fundamental,
    green,
    hitting_laplace,
    make_drift_bm,
    make_reflected_killed_bm,
    make_spec,
    make_sticky_bm,
    spec_from_config,
    speed_of_set,
)
from .errors import (
    ConvergenceError,
    DiffstopError,
    DomainError,
    NotExcessiveError,
    ParameterError,
)
from .representation import (
    DerivativeJump,
    ExcessiveCandidate,
    ExcessivityReport,
    RepresentingMeasure,
    candidate_from_callable,
    derivative_jump,
    excessivity_check,
    f_derivative,
    green_candidate,
    martin_measure,
    measure_from_doc,
    measure_to_doc,
    phi_candidate,
    psi_candidate,
    reconstruct,
    riesz_from_martin,
)
from .stopping import (
    AlphaZeroSolution,
    Reward,
    SmoothFitReport,
    alpha_thresholds,
    default_reward,
    general_smooth_fit_check,
    smooth_fit_report,
    solve_alpha_zero,
    solve_threshold,
    st_functions,
    st_table,
    value_candidate,
    value_function,
)
from .oracle import (
    ChainModel,
    ChainSolution,
    ComparisonReport,
    compare,
    discretize,
    solve_chain_stopping,
)

__version__ = "0.1.0"
