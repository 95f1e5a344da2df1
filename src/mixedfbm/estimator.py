"""Likelihood functionals and the drift estimator.

The score integral N is a Stieltjes sum of the solver weight against the
observed path; its compensator is the quadratic variation computed by
the solver module.  The estimator divides one by the other with a
normalization fixed by requiring exact unbiasedness on mean paths; the
printed alternative normalization is carried through every result so
the two can be compared downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, DomainError
from .fredholm import FredholmSolution, filter_interpolant, quadratic_variation_N
from .gaussian_sim import SamplePath
from .model import DerivedConstants

__all__ = [
    "EstimatorResult",
    "stochastic_integral_N",
    "log_likelihood",
    "mle",
    "estimate_with_filter",
    "predicted_variances",
]

_MIN_GRID = 128


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with the functionals it was built from.

    variance_pred is the Gaussian-calculus prediction 1/(d^2 <N>);
    variance_pred_paper is the alternative printed form 1/int h_T s^{1-2H1} ds.
    Both are recorded on every estimate so the normalization discrepancy
    stays visible in downstream reports.
    """

    theta_hat: float
    n_T: float
    qv_N: float
    loglik_at: Callable[[float], float]
    variance_pred: float
    variance_pred_paper: float


def stochastic_integral_N(
    h_T: Callable[[np.ndarray], np.ndarray],
    path: SamplePath,
    scale_hint: float | None = None,
) -> float:
    """Midpoint Stieltjes sum of the weight against path increments.

    Also evaluates the same sum on the half-resolution grid (every other
    sample); when ``scale_hint`` (the quadratic variation) is supplied
    and the two disagree by more than 1% of its square root, the grid is
    flagged as too coarse for the weight's variation.
    """
    t = path.times
    if t.size < _MIN_GRID:
        raise DomainError(
            f"need at least {_MIN_GRID} sample points for the score integral, "
            f"got {t.size}"
        )
    x = path.values
    mid = 0.5 * (t[1:] + t[:-1])
    val = float(np.dot(np.asarray(h_T(mid), dtype=float), np.diff(x)))
    tc, xc = t[::2], x[::2]
    if tc[-1] != t[-1]:
        tc = np.concatenate((tc, t[-1:]))
        xc = np.concatenate((xc, x[-1:]))
    midc = 0.5 * (tc[1:] + tc[:-1])
    coarse = float(np.dot(np.asarray(h_T(midc), dtype=float), np.diff(xc)))
    if scale_hint is not None and abs(val - coarse) > 0.01 * np.sqrt(scale_hint):
        warnings.warn(
            f"score integral moved by {abs(val - coarse):.3e} under grid "
            f"halving; the path grid is too coarse for this weight",
            AccuracyWarning,
            stacklevel=2,
        )
    return val


def log_likelihood(n_T: float, qv_N: float, drift_norm: float, theta: float) -> float:
    """Log-density of the observation against the driftless measure.

    Quadratic in theta with exact argmax n_T/(drift_norm qv_N); the
    drift_norm argument is explicit so normalization variants can be
    compared directly.
    """
    return theta * drift_norm * n_T - 0.5 * theta**2 * drift_norm**2 * qv_N


def predicted_variances(qv: float, constants: DerivedConstants) -> tuple:
    """(variance_pred, variance_pred_paper) for the information qv = <N>(T).

    variance_pred = 1/(d^2 qv) with d = drift_norm/sigma, the estimator's
    normalization (see ``mle``); variance_pred_paper = (sigma gamma)^2/qv.
    """
    d_eff = constants.drift_norm / constants.sigma
    return (1.0 / (d_eff**2 * qv),
            (constants.sigma * constants.gamma_h1) ** 2 / qv)


def mle(
    sol: FredholmSolution, path: SamplePath, constants: DerivedConstants
) -> EstimatorResult:
    """Maximum-likelihood drift estimate from one observed path.

    The path must be the transformed observation on the solution's
    horizon.  The normalization divides the model's drift_norm by sigma
    once more: the quadratic variation scales with sigma^2 while the
    mean of the score is sigma-free, and this is the unique choice that
    keeps mean paths mapping to exactly theta for every sigma.
    """
    return estimate_with_filter(filter_interpolant(sol), sol.horizon_T,
                                quadratic_variation_N(sol, constants), path,
                                constants)


def estimate_with_filter(
    h_T: Callable[[np.ndarray], np.ndarray], T: float, qv: float,
    path: SamplePath, constants: DerivedConstants,
) -> EstimatorResult:
    """The estimate of ``mle`` from a filter h_T on (0, T] and its
    information qv, e.g. a filter rebuilt by ``filter_from_knots``."""
    if abs(path.times[-1] - T) > 1e-12 * max(T, 1.0):
        raise DomainError(
            f"path horizon {path.times[-1]} does not match solution horizon {T}"
        )
    n_val = stochastic_integral_N(h_T, path, scale_hint=qv)
    d_eff = constants.drift_norm / constants.sigma
    variance_pred, variance_pred_paper = predicted_variances(qv, constants)
    return EstimatorResult(
        theta_hat=n_val / (d_eff * qv),
        n_T=n_val,
        qv_N=qv,
        loglik_at=lambda theta: log_likelihood(n_val, qv, d_eff, theta),
        variance_pred=variance_pred,
        variance_pred_paper=variance_pred_paper,
    )
