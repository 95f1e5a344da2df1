"""Limiting weight of the drift estimator and the limit of its variance.

As the horizon grows, the rescaled solutions of the second-kind filter
equation approach the solution of a first-kind equation.  That limit has
a closed form: a power-weighted right-sided fractional integral whose
normalization is produced by a chain of constants, one per inversion
step.  This module evaluates the closed form (a Gauss hypergeometric
function) and the large-horizon limit of the scaled estimation variance,
a ratio of Gamma functions.  No quadrature is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from .errors import DomainError
from .model import DerivedConstants, check_real
from .numerics import gamma_fn

__all__ = [
    "ConstantChain",
    "constant_chain",
    "h0",
    "asymptotic_variance",
]


@dataclass(frozen=True)
class ConstantChain:
    """Normalization constants of the closed-form limiting weight.

    ``c`` is the coefficient in front of the integral operator in the
    defining equation u^{1/2-H1} = c (K h)(u), so the solution and every
    constant from ``c3`` on scale like 1/c.  ``c1`` and ``c2`` collect the
    factors picked up when the outer kernel layer is integrated out,
    ``c3`` and ``c4`` come from differentiating the resulting power laws,
    and ``c5``, ``c6`` absorb the inner layer; ``c6`` multiplies the final
    fractional integral.
    """

    c: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float


def constant_chain(C: float, constants: DerivedConstants) -> ConstantChain:
    """Evaluate the normalization chain for operator coefficient ``C``.

    Parameters
    ----------
    C : float
        Positive coefficient of the operator in the defining equation.
    constants : DerivedConstants
        Model constants; only the Hurst pair and the kernel scale of the
        rougher component enter.

    Returns
    -------
    ConstantChain
        All six constants.  ``c1``, ``c2`` are proportional to ``C``;
        ``c3`` through ``c6`` to ``1/C``.
    """
    check_real("chain coefficient C", C, positive=True)
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    b2 = constants.beta_h2
    c1 = C * (2.0 - 2.0 * h1)
    c2 = c1 * b2 * gamma_fn(1.5 - h1)
    c3 = gamma_fn(3.0 - 2.0 * h1) / (gamma_fn(1.5 - h1) * c2)
    c4 = c3 * gamma_fn(1.5 - h2) / (gamma_fn(h2 - 0.5) * gamma_fn(2.0 - 2.0 * h2))
    c5 = c4 / (b2 * gamma_fn(1.5 - h1))
    c6 = c5 / (gamma_fn(h2 - 0.5) * gamma_fn(1.5 - h2))
    return ConstantChain(c=float(C), c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6)


def h0(
    v: float | np.ndarray,
    constants: DerivedConstants,
    C: float | None = None,
) -> float | np.ndarray:
    """Closed-form limiting weight on (0, 1).

    h0(v) = c6 * v^{1/2-H1} * (I^{H1-1/2}_{1-} g)(v) with the inner
    profile g(t) = t^{H1-H2} (1-t)^{1/2-H2}.  The fractional integral is
    a Gauss hypergeometric function: with a = H2 - H1,

        h0(v) = c6 Gamma(3/2-H2) / Gamma(1-a) v^{1/2-H2} (1-v)^{-a}
                2F1(a, H1-1/2; 1-a; -(1-v)/v),

    evaluated by ``scipy.special.hyp2f1``.  Near zero the weight grows
    like v^{H1-H2}; near one like (1-v)^{H1-H2}.

    Parameters
    ----------
    v : float or ndarray
        Evaluation points, all strictly inside (0, 1).
    constants : DerivedConstants
        Model constants for the Hurst pair.
    C : float, optional
        Coefficient of the defining equation.  Default is 1/gamma^2,
        which normalizes h0 to satisfy gamma^2 u^{1/2-H1} = (K h0)(u).

    Returns
    -------
    float or ndarray
        Weight values, scalar in, scalar out.
    """
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    if C is None:
        C = 1.0 / constants.gamma_h1**2
    c6 = constant_chain(C, constants).c6
    arr = np.asarray(v, dtype=float)
    if arr.size and (
        np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)
    ):
        raise DomainError("the limiting weight is defined strictly inside (0, 1)")
    a = h2 - h1
    out = (c6 * gamma_fn(1.5 - h2) / gamma_fn(1.0 - a) * arr ** (0.5 - h2)
           * (1.0 - arr) ** -a * hyp2f1(a, h1 - 0.5, 1.0 - a, -(1.0 - arr) / arr))
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
