"""Representation theory of excessive functions for 1D regular diffusions,
applied to smooth-fit diagnostics in optimal stopping.

The package is organized around four layers: diffusion families with their
fundamental solutions (:mod:`diffstop.diffusion`), Martin/Riesz representing
measures and the derivative-jump decomposition
(:mod:`diffstop.representation`), the sticky-Brownian-motion stopping
problem (:mod:`diffstop.stopping`), and an independent birth-death-chain
oracle (:mod:`diffstop.oracle`).  The ``diffstop`` command line front end
lives in :mod:`diffstop.cli`.

``_LAYERS`` is the public API: each name is imported from its layer on
first use, so ``import diffstop`` loads no layer and no numpy.
"""

import importlib

_LAYERS = {
    "diffusion": (
        "BoundaryKind", "DiffusionSpec", "Family", "FundamentalSolutions",
        "Interval", "fundamental", "green", "hitting_laplace", "make_drift_bm",
        "make_reflected_killed_bm", "make_spec", "make_sticky_bm",
        "spec_from_config", "speed_of_set",
    ),
    "errors": (
        "ConvergenceError", "DiffstopError", "DomainError", "NotExcessiveError",
        "ParameterError",
    ),
    "representation": (
        "DerivativeJump", "ExcessiveCandidate", "ExcessivityReport",
        "RepresentingMeasure", "candidate_from_callable", "derivative_jump",
        "excessivity_check", "f_derivative", "green_candidate", "martin_measure",
        "measure_from_doc", "measure_to_doc", "phi_candidate", "psi_candidate",
        "reconstruct", "riesz_from_martin",
    ),
    "stopping": (
        "AlphaZeroSolution", "Reward", "SmoothFitReport", "alpha_thresholds",
        "default_reward", "general_smooth_fit_check", "smooth_fit_report",
        "solve_alpha_zero", "solve_threshold", "st_functions", "st_table",
        "value_candidate", "value_function",
    ),
    "oracle": (
        "ChainModel", "ChainSolution", "ComparisonReport", "compare",
        "discretize", "solve_chain_stopping",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
