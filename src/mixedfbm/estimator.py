"""The score integral and the drift estimator.

The score integral N is a Stieltjes sum of the solver weight against the
observed path; its compensator is the quadratic variation ``qv_N`` that
every solution of the solver module holds.  The estimator divides one
by the other with a normalization fixed by requiring exact unbiasedness
on mean paths; the printed alternative normalization is carried through
every result so the two can be compared downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, DomainError
from .fredholm import FredholmSolution, filter_interpolant
from .gaussian_sim import SamplePath
from .model import DerivedConstants

__all__ = [
    "EstimatorResult",
    "stochastic_integral_N",
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
    stays visible in downstream reports.  For a path of columns theta_hat
    and n_T hold one value per column.
    """

    theta_hat: float | np.ndarray
    n_T: float | np.ndarray
    qv_N: float
    variance_pred: float
    variance_pred_paper: float


def _midpoint_weights(h_T: Callable[[np.ndarray], np.ndarray],
                      t: np.ndarray) -> tuple:
    """The weight at the midpoints of the grid t and of its half (every
    other sample, the last one kept), read in one call, and whether the
    half grid appends the last sample: (fine, coarse, appended)."""
    if t.size < _MIN_GRID:
        raise DomainError(
            f"need at least {_MIN_GRID} sample points for the score integral, "
            f"got {t.size}"
        )
    tc = t[::2]
    appended = bool(tc[-1] != t[-1])
    if appended:
        tc = np.concatenate((tc, t[-1:]))
    mid = 0.5 * (t[1:] + t[:-1])
    midc = 0.5 * (tc[1:] + tc[:-1])
    h = np.asarray(h_T(np.concatenate((mid, midc))), dtype=float)
    return h[: mid.size], h[mid.size :], appended


def _score(weights: tuple, x: np.ndarray,
           scale_hint: float | None) -> float | np.ndarray:
    """The midpoint sums of the weights of ``_midpoint_weights`` against
    the increments of the path values x (one path, or one per column) on
    the grid and its half; warns when they disagree (see
    ``stochastic_integral_N``) and returns the fine sum."""
    fine, coarse, appended = weights
    xc = x[::2]
    if appended:
        xc = np.concatenate((xc, x[-1:]))
    val = np.dot(fine, x[1:] - x[:-1])
    half = np.dot(coarse, xc[1:] - xc[:-1])
    if x.ndim == 1:
        val, half = float(val), float(half)
        moved = abs(val - half)
    else:
        moved = float(np.max(np.abs(val - half)))
    if scale_hint is not None and moved > 0.01 * math.sqrt(scale_hint):
        warnings.warn(
            f"score integral moved by {moved:.3e} under grid "
            f"halving; the path grid is too coarse for this weight",
            AccuracyWarning,
            stacklevel=3,
        )
    return val


def stochastic_integral_N(
    h_T: Callable[[np.ndarray], np.ndarray],
    path: SamplePath,
    scale_hint: float | None = None,
) -> float | np.ndarray:
    """Midpoint Stieltjes sum of the weight against path increments.

    Also evaluates the same sum on the half-resolution grid (every other
    sample); when ``scale_hint`` (the quadratic variation) is supplied
    and the two disagree by more than 1% of its square root, the grid is
    flagged as too coarse for the weight's variation.  The weight is
    read once, at the fine and the coarse midpoints together.  Returns
    a float, or one sum per column when the path holds columns.
    """
    return _score(_midpoint_weights(h_T, path.times), path.values, scale_hint)


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
    """Maximum-likelihood drift estimate from one observed path, or one
    per column.

    The path must be the transformed observation on the solution's
    horizon.  The normalization divides the model's drift_norm by sigma
    once more: the quadratic variation scales with sigma^2 while the
    mean of the score is sigma-free, and this is the unique choice that
    keeps mean paths mapping to exactly theta for every sigma.  The
    information is the solution's own ``qv_N``, so ``constants`` must be
    those the solution was solved with: DomainError when their Hurst pair
    differs from the solution's, or their coupling at its horizon differs
    from ``sol.lam`` (sigma enters the solve only through the coupling).

    The filter's values at the path grid's midpoints are kept on the
    solution for the last grid read (``sol.midpoint_filter``), so every
    further path on that grid costs its two sums; the checks that depend
    only on the grid run when it is first read.
    """
    pair, op = constants.hurst, sol.operator
    lam = constants.lambda_of_T(sol.horizon_T)
    if (abs(pair.h1 - op.h1) > 1e-12 or abs(pair.h2 - op.h2) > 1e-12
            or abs(lam - sol.lam) > 1e-12 * abs(sol.lam)):
        raise DomainError(
            f"constants (h1={pair.h1}, h2={pair.h2}, coupling {lam:.6g} at "
            f"T={sol.horizon_T}) are not those of the solution (h1={op.h1}, "
            f"h2={op.h2}, coupling {sol.lam:.6g})")
    key = path.times.tobytes()
    entry = sol.midpoint_filter
    if entry is None or entry[0] != key:
        _check_qv_and_horizon(sol.horizon_T, sol.qv_N, path)
        # looked up at call time, so a wrapper put on this module's
        # filter_interpolant sees every build
        weights = _midpoint_weights(filter_interpolant(sol), path.times)
        for values in weights[:2]:
            values.flags.writeable = False
        entry = (key, weights)
        object.__setattr__(sol, "midpoint_filter", entry)
    return _result(_score(entry[1], path.values, sol.qv_N), sol.qv_N,
                   constants)


def _check_qv_and_horizon(T: float, qv: float, path: SamplePath) -> None:
    if not (np.isfinite(qv) and qv > 0.0):
        raise DomainError(
            f"information <N>(T) must be positive and finite, got {qv}")
    if abs(path.times[-1] - T) > 1e-12 * max(T, 1.0):
        raise DomainError(
            f"path horizon {path.times[-1]} does not match solution horizon {T}"
        )


def _result(n_val, qv: float, constants: DerivedConstants) -> EstimatorResult:
    d_eff = constants.drift_norm / constants.sigma
    variance_pred, variance_pred_paper = predicted_variances(qv, constants)
    return EstimatorResult(
        theta_hat=n_val / (d_eff * qv),
        n_T=n_val,
        qv_N=qv,
        variance_pred=variance_pred,
        variance_pred_paper=variance_pred_paper,
    )


def estimate_with_filter(
    h_T: Callable[[np.ndarray], np.ndarray], T: float, qv: float,
    path: SamplePath, constants: DerivedConstants,
) -> EstimatorResult:
    """The estimate of ``mle`` from a filter h_T on (0, T] and its
    information qv, e.g. a filter rebuilt by ``filter_from_knots``.
    Raises DomainError unless qv is positive and finite."""
    _check_qv_and_horizon(T, qv, path)
    return _result(stochastic_integral_N(h_T, path, scale_hint=qv), qv,
                   constants)
