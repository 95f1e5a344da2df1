"""The score integral and the drift estimator.

The score integral N is a Stieltjes sum of the solver weight against the
observed path; its compensator is the quadratic variation ``qv_N``.
Both are read from one ``SolutionRecord``, a solution or one read back
from a ``solve`` sidecar, which also carries the model constants.
The estimator divides one by the other with a normalization fixed by
requiring exact unbiasedness on mean paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, DomainError
from .fredholm import SolutionRecord, filter_interpolant
from .gaussian_sim import SamplePath
from .model import DerivedConstants

__all__ = [
    "EstimatorResult",
    "mle",
    "predicted_variances",
]

_MIN_GRID = 128


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with the functionals it was built from.

    variance_pred is the Gaussian-calculus prediction 1/(d^2 <N>).  For
    a path of columns theta_hat and n_T hold one value per column.
    """

    theta_hat: float | np.ndarray
    n_T: float | np.ndarray
    qv_N: float
    variance_pred: float


def _midpoint_weights(h_T: Callable[[np.ndarray], np.ndarray],
                      t: np.ndarray) -> tuple:
    """The weight at the midpoints of the grid t and of its half (every
    other sample, the last one kept), read in one call, and whether the
    half grid appends the last sample: (fine, coarse, appended)."""
    if t.size < _MIN_GRID:
        raise DomainError(f"need at least {_MIN_GRID} sample points for the "
                          f"score integral, got {t.size}")
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
    """Midpoint Stieltjes sums of the weights of ``_midpoint_weights``
    against the increments of the path values x (one path, or one per
    column) on the grid and on its half (every other sample).  When
    ``scale_hint`` (the quadratic variation) is supplied and the two
    sums disagree by more than 1% of its square root, the grid is
    flagged as too coarse for the weight's variation.  Returns the fine
    sum, a float or one per column."""
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


def predicted_variances(qv: float, constants: DerivedConstants) -> float:
    """variance_pred = 1/(d^2 qv) for the information qv = <N>(T), with
    d = drift_norm/sigma the estimator's normalization (see ``mle``)."""
    d_eff = constants.drift_norm / constants.sigma
    return 1.0 / (d_eff**2 * qv)


def mle(
    sol: SolutionRecord, path: SamplePath,
    constants: DerivedConstants | None = None,
) -> EstimatorResult:
    """Maximum-likelihood drift estimate from one observed path, or one
    per column.

    ``sol`` is a solution or a ``SolutionRecord`` read back, from which the
    filter, the information ``qv_N`` and the model constants are read;
    the path is the transformed observation on its horizon.  The
    normalization divides drift_norm by sigma once more: the quadratic
    variation scales with sigma^2 while the mean of the score is
    sigma-free, so only this maps mean paths to exactly theta for every
    sigma.  ``constants``, when given, are only checked: DomainError
    when their Hurst pair, or coupling at the horizon, is not the
    solve's.  The filter's values at the path grid's midpoints are kept
    on ``sol`` for the last grid read (``midpoint_filter``), so a
    further path on that grid costs two sums; the checks that depend
    only on the grid run when it is first read.  DomainError unless the
    path is labelled "Y" or "X", a transformed observation: a raw Z path
    (transform it with ``molchan_transform``) or an fBm path would give
    a wrong estimate with no error.
    """
    if path.label not in ("Y", "X"):
        raise DomainError(f"mle reads a transformed path (label Y or X), "
                          f"got a {path.label!r} path")
    if constants is not None and constants is not sol.constants:
        pair, own = constants.hurst, sol.constants.hurst
        if not constants.same_model(own, sol.horizon_T, sol.lam):
            lam = constants.lambda_of_T(sol.horizon_T)
            raise DomainError(
                f"constants (h1={pair.h1}, h2={pair.h2}, coupling {lam:.6g} "
                f"at T={sol.horizon_T}) are not those of the solution "
                f"(h1={own.h1}, h2={own.h2}, coupling {sol.lam:.6g})")
    key = path.times.tobytes()
    entry = sol.midpoint_filter
    if entry is None or entry[0] != key:
        T = sol.horizon_T
        if abs(path.times[-1] - T) > 1e-12 * max(T, 1.0):
            raise DomainError(f"path horizon {path.times[-1]} does not "
                              f"match solution horizon {T}")
        # looked up at call time, so a wrapper put on this module's
        # filter_interpolant sees every build
        weights = _midpoint_weights(filter_interpolant(sol), path.times)
        for values in weights[:2]:
            values.flags.writeable = False
        entry = (key, weights)
        object.__setattr__(sol, "midpoint_filter", entry)
    qv, cons = sol.qv_N, sol.constants
    n_val = _score(entry[1], path.values, qv)
    return EstimatorResult(n_val / (cons.drift_norm / cons.sigma * qv), n_val,
                           qv, predicted_variances(qv, cons))
