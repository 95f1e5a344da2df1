"""Drift estimation for the mixed fractional Brownian model."""

__version__ = "0.1.0"

from .closed_form import (
    ConstantChain,
    asymptotic_variance,
    constant_chain,
    h0,
)
from .errors import AccuracyError, AccuracyWarning, DomainError, IllConditionedError
from .estimator import EstimatorResult, mle
from .gaussian_sim import (
    CovarianceModel,
    SamplePath,
    covariance_model,
    inverse_transform,
    molchan_transform,
    simulate_X,
    simulate_Y,
    simulate_Z,
    simulate_fbm,
)
from .fredholm import (
    DiscretizedOperator,
    FredholmSolution,
    QuadratureGrid,
    ResidualReport,
    SolutionRecord,
    assemble,
    build_grid,
    filter_interpolant,
    residual_report,
    solve_second_kind,
)
from .kernels import KernelContext, KernelTables, get_tables
from .model import DerivedConstants, HurstPair, ModelParams, derive_constants

__all__ = [
    "AccuracyError",
    "AccuracyWarning",
    "DomainError",
    "IllConditionedError",
    "DerivedConstants",
    "HurstPair",
    "ModelParams",
    "derive_constants",
    "KernelContext",
    "KernelTables",
    "get_tables",
    "QuadratureGrid",
    "DiscretizedOperator",
    "FredholmSolution",
    "ResidualReport",
    "SolutionRecord",
    "build_grid",
    "assemble",
    "solve_second_kind",
    "residual_report",
    "filter_interpolant",
    "SamplePath",
    "CovarianceModel",
    "covariance_model",
    "simulate_X",
    "simulate_Y",
    "simulate_Z",
    "simulate_fbm",
    "molchan_transform",
    "inverse_transform",
    "EstimatorResult",
    "mle",
    "ConstantChain",
    "constant_chain",
    "h0",
    "asymptotic_variance",
    "__version__",
]
