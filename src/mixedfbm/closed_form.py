"""Limiting weight of the drift estimator and the limit of its variance.

As the horizon grows, the rescaled solutions of the second-kind filter
equation approach the solution of a first-kind equation.  That limit has
a closed form: a power-weighted right-sided fractional integral, which
is a Gauss hypergeometric function times one ratio of Gamma functions.
This module evaluates it and the large-horizon limit of the scaled
estimation variance, a ratio of Gamma functions.  No quadrature is
involved.
"""

from __future__ import annotations

import numpy as np
from scipy.special import hyp2f1

from .errors import DomainError
from .model import DerivedConstants
from .numerics import gamma_fn

__all__ = ["h0", "asymptotic_variance"]


def h0(v: float | np.ndarray, constants: DerivedConstants) -> float | np.ndarray:
    """Closed-form limiting weight on (0, 1).

    h0 solves gamma^2 u^{1/2-H1} = (K h0)(u).  It is a power-weighted
    right-sided fractional integral of the profile
    g(t) = t^{H1-H2} (1-t)^{1/2-H2}, which is a Gauss hypergeometric
    function: with a = H2 - H1,

        h0(v) = k v^{1/2-H2} (1-v)^{-a} 2F1(a, H1-1/2; 1-a; -(1-v)/v),

        k = gamma^2 Gamma(3-2H1) / ((2-2H1) H2 (2H2-1) Gamma(3/2-H1)^3
            Gamma(H2-1/2) Gamma(1-a)),

    evaluated by ``scipy.special.hyp2f1``.  Near zero the weight grows
    like v^{H1-H2}; near one like (1-v)^{H1-H2}.

    Parameters
    ----------
    v : float or ndarray
        Evaluation points, all strictly inside (0, 1).
    constants : DerivedConstants
        Model constants for the Hurst pair.

    Returns
    -------
    float or ndarray
        Weight values, scalar in, scalar out.
    """
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    arr = np.asarray(v, dtype=float)
    if arr.size and (
        np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)
    ):
        raise DomainError("the limiting weight is defined strictly inside (0, 1)")
    a = h2 - h1
    k = (constants.gamma_h1**2 * gamma_fn(3.0 - 2.0 * h1)
         / ((2.0 - 2.0 * h1) * h2 * (2.0 * h2 - 1.0) * gamma_fn(1.5 - h1) ** 3
            * gamma_fn(h2 - 0.5) * gamma_fn(1.0 - a)))
    out = (k * arr ** (0.5 - h2) * (1.0 - arr) ** -a
           * hyp2f1(a, h1 - 0.5, 1.0 - a, -(1.0 - arr) / arr))
    return float(out) if np.ndim(v) == 0 else out


def asymptotic_variance(constants: DerivedConstants) -> float:
    """Large-horizon limit of the scaled estimation variance.

    By self-similarity T^{2-2H2} Var at (T, sigma) equals its value at
    (T sigma^{1/(H1-H2)}, 1), so the limit does not depend on sigma: as
    T grows the rougher component fades and the model becomes
    theta t + B_H2, whose drift MLE has the constant

        V_H2 = 2 H2 Gamma(3-2H2) Gamma(H2+1/2) / Gamma(3/2-H2)

    (Le Breton 1998; Norros, Valkeila and Virtamo 1999).  Only H2
    enters.
    """
    h2 = constants.hurst.h2
    return (2.0 * h2 * gamma_fn(3.0 - 2.0 * h2) * gamma_fn(h2 + 0.5)
            / gamma_fn(1.5 - h2))
