"""Stable and diffusive limits of additive functionals of ergodic diffusions.

Given a positive-recurrent one-dimensional diffusion and an observable f,
this package computes the limit law of the rescaled additive functional
``int_0^{t/eps} f(X_s) ds`` (scale constants, characteristic exponent,
centering), simulates the functional by two independent schemes, provides the
limiting stable processes both by direct sampling and by Brownian local-time
constructions, and statistically validates the predictions.
"""

from . import errors
from .asymptotics import (
    LimitLaw,
    PoissonSolution,
    RegimeReport,
    char_exponent,
    classify_regime,
    compute_rho,
    compute_rho_eps,
    limit_law,
    poisson_solution,
    slow_var_transforms,
)
from .model import (
    DiffusionModel,
    HarrisVerdict,
    ScaleSpeed,
    check_harris,
    compute_kappa,
    eval_psi_phi,
    eval_scale,
    eval_speed_density,
    invariant_integral,
)
from .pathsim import (
    SCHEMES,
    FunctionalSample,
    SimConfig,
    additive_functional,
    rescaled_functional,
    simulate_path,
)
from .presets import driftless, from_table, heavy_tailed, kinetic
from .stable import (
    StableSpec,
    sample_limit_law,
    sample_stable_cf,
    stable_cf,
    stable_via_excursions,
)
from .validate import (
    AlphaEstimate,
    EmpiricalCF,
    ValidationReport,
    cf_distance,
    default_xi_grid,
    empirical_cf,
    estimate_alpha,
    ks_two_sample,
    validate_against_law,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DiffusionModel",
    "HarrisVerdict",
    "ScaleSpeed",
    "check_harris",
    "compute_kappa",
    "eval_psi_phi",
    "eval_scale",
    "eval_speed_density",
    "invariant_integral",
    "LimitLaw",
    "PoissonSolution",
    "RegimeReport",
    "char_exponent",
    "classify_regime",
    "compute_rho",
    "compute_rho_eps",
    "limit_law",
    "poisson_solution",
    "slow_var_transforms",
    "SCHEMES",
    "SimConfig",
    "FunctionalSample",
    "simulate_path",
    "additive_functional",
    "rescaled_functional",
    "heavy_tailed",
    "kinetic",
    "driftless",
    "from_table",
    "StableSpec",
    "sample_limit_law",
    "sample_stable_cf",
    "stable_cf",
    "stable_via_excursions",
    "AlphaEstimate",
    "EmpiricalCF",
    "ValidationReport",
    "cf_distance",
    "default_xi_grid",
    "empirical_cf",
    "estimate_alpha",
    "ks_two_sample",
    "validate_against_law",
    "__version__",
]
