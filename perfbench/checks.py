"""Correctness checks of the benchmark, independent of mixedfbm.

Each check compares a program output with a computation made here
(scipy's beta function, chi-square quantiles, the decay law) or with a
property the method must have; none compares with a stored copy of an
earlier output.  Each returns a list of problems, empty when it passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

RESIDUAL_TOL = 1e-4        # the harness's off-grid residual tolerance
DRIFT_THETA_TOL = 1e-4     # theta_hat on the noise-free drift path
DRIFT_TRANSFORM_RTOL = 1e-7   # 1.6e-8 measured on the jittered grids
SLOPE_TOL = 0.05           # on the log-log slope of the variance gap
N_SE = 4.0                 # pooled mean within this many standard errors
CHI2_ALPHA = 1e-4          # two-sided level of the variance-ratio interval


def drift_shape(times, h1: float) -> np.ndarray:
    """B(3/2-H1, 3/2-H1) t^(2-2H1): the transform of Z(t) = t."""
    t = np.asarray(times, float)
    return special.beta(1.5 - h1, 1.5 - h1) * t ** (2.0 - 2.0 * h1)


def residual(residual_sup: float) -> list:
    if not residual_sup <= RESIDUAL_TOL:
        return [f"residual_sup {residual_sup:.3e} above {RESIDUAL_TOL:.0e}"]
    return []


def ladder(details, limit: float, h1: float, h2: float) -> list:
    """Horizon ladder: residuals, monotone information, the decay law.

    ``details`` holds (T, qv_N, scaled_var, residual_sup) per horizon in
    increasing T; ``limit`` is the closed-form limit of scaled_var.  The
    gap scaled_var - limit must decay like T^(-2(H2-H1)).
    """
    problems = []
    Ts = [d[0] for d in details]
    if len(Ts) < 3:
        return [f"only {len(Ts)} horizons solved"]
    for T, _, _, res in details:
        problems += [f"T={T}: {p}" for p in residual(res)]
    qv = [d[1] for d in details]
    if any(b <= a for a, b in zip(qv, qv[1:])):
        problems.append(f"qv_N not strictly increasing in T: {qv}")
    gap = [d[2] - limit for d in details]
    if not all(g > 0.0 for g in gap):
        problems.append(f"scaled variance not above the limit {limit}: {gap}")
        return problems
    if any(b >= a for a, b in zip(gap, gap[1:])):
        problems.append(f"scaled variance not decreasing to the limit: {gap}")
    law = -2.0 * (h2 - h1)
    for (ta, ga), (tb, gb) in zip(zip(Ts, gap), zip(Ts[1:], gap[1:])):
        slope = math.log(gb / ga) / math.log(tb / ta)
        if abs(slope - law) > SLOPE_TOL:
            problems.append(f"gap slope {slope:.4f} on [{ta}, {tb}] is not "
                            f"within {SLOPE_TOL} of {law:.4f}")
    return problems


def drift_recovery(theta_hat: float, theta: float) -> list:
    if not abs(theta_hat - theta) <= DRIFT_THETA_TOL:
        return [f"theta_hat {theta_hat!r} on the drift path is not within "
                f"{DRIFT_THETA_TOL:.0e} of {theta}"]
    return []


def drift_transform(times, values, h1: float) -> list:
    """Transform of Z(t) = t against the closed form, relative sup error."""
    ref = drift_shape(times, h1)
    err = float(np.max(np.abs(np.asarray(values, float) - ref) / ref))
    if not err <= DRIFT_TRANSFORM_RTOL:
        return [f"transform of Z(t)=t off by {err:.2e} relative"]
    return []


def pooled_mean(estimates, theta: float, var_pred: float) -> list:
    est = np.asarray(estimates, float)
    se = math.sqrt(var_pred / est.size)
    z = (float(est.mean()) - theta) / se
    if not abs(z) <= N_SE:
        return [f"pooled mean of {est.size} estimates is {z:.2f} standard "
                f"errors from theta={theta}"]
    return []


def variance_ratio(estimates, var_pred: float) -> list:
    """(N-1) s^2 / var_pred inside the two-sided chi-square interval."""
    est = np.asarray(estimates, float)
    dof = est.size - 1
    ratio = float(est.var(ddof=1)) / var_pred
    lo = stats.chi2.ppf(0.5 * CHI2_ALPHA, dof) / dof
    hi = stats.chi2.isf(0.5 * CHI2_ALPHA, dof) / dof
    if not lo <= ratio <= hi:
        return [f"var/var_pred = {ratio:.4f} outside [{lo:.4f}, {hi:.4f}] "
                f"with {dof} degrees of freedom"]
    return []
