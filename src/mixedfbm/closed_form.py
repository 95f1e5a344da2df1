"""Limiting weight of the drift estimator and its variance functional.

As the horizon grows, the rescaled solutions of the second-kind filter
equation approach the solution of a first-kind equation.  That limit has
a closed form: a power-weighted right-sided fractional integral whose
normalization is produced by a chain of constants, one per inversion
step.  This module evaluates the closed form, cross-checks it against
the discretized kernel operator, and computes the weighted integral
whose reciprocal is the limiting variance scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError
from .fredholm import FredholmSolution, QuadratureGrid, assemble, unscale
from .kernels import KernelContext, _layered_01, _layered_batch
from .model import DerivedConstants
from .numerics import gamma_fn

__all__ = [
    "ConstantChain",
    "FirstKindReport",
    "constant_chain",
    "h0",
    "verify_first_kind",
    "asymptotic_variance",
    "h0_weighted_integral",
    "h_mu",
    "limit_functional",
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
    if not (np.isfinite(C) and C > 0.0):
        raise DomainError(f"chain coefficient must be positive and finite, got {C}")
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

    Evaluates c6 * v^{1/2-H1} * (I^{H1-1/2}_{1-} g)(v) with the inner
    profile g(t) = t^{H1-H2} (1-t)^{1/2-H2}.  The integration interval
    [v, 1] is mapped onto the unit interval, which turns the kernel
    endpoint and the right-end weight into a fixed Jacobi pair and the
    remaining power into a bounded factor whose short-scale variation
    near small v is declared to a geometric ladder; accuracy is then
    uniform in v.  Near zero the weight grows like v^{H1-H2}; near one
    like (1-v)^{H1-H2}.

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
    alpha = h1 - 0.5
    q_right = 0.5 - h2
    flat = arr.reshape(-1)
    # t = v + (1 - v) x; the profile varies on scale x ~ v, one ladder per v
    vals = (1.0 - flat) ** (alpha + q_right) * _layered_batch(
        lambda x, i: (flat[i] + (1.0 - flat[i]) * x) ** (h1 - h2),
        alpha - 1.0, q_right, 24, np.clip(flat / (1.0 - flat), 1e-12, 0.4),
        np.nan,
    )
    out = (c6 / gamma_fn(alpha) * flat ** (0.5 - h1) * vals).reshape(arr.shape)
    if np.ndim(v) == 0:
        return float(out)
    return out


class FirstKindReport(NamedTuple):
    """Nodal agreement between the closed form and the kernel operator."""

    max_rel_residual: float
    ratio_mean: float
    ratio_spread: float
    nodes_used: int


def verify_first_kind(
    constants: DerivedConstants, grid: QuadratureGrid
) -> FirstKindReport:
    """Cross-check the closed-form weight against the discretized operator.

    Applies the product-quadrature matrix of K to nodal values of the
    default-normalized h0 and compares with gamma^2 u^{1/2-H1} on nodes
    inside [0.1, 0.9]; the outermost graded cells are excluded because
    the discrete rows are least accurate there.

    Returns
    -------
    FirstKindReport
        Worst relative residual, plus mean and spread of the ratio
        (K h0)(u) / (gamma^2 u^{1/2-H1}).  The spread is scale-free: it
        tests the shape regardless of any normalization convention.
    """
    constants.hurst.require_solver_admissible()
    ctx = KernelContext(constants=constants)
    op = assemble(ctx, grid)
    u = grid.nodes
    target = constants.gamma_h1**2 * u ** (0.5 - constants.hurst.h1)
    applied = op.matrix @ np.asarray(h0(u, constants), dtype=float)
    mask = (u >= 0.1) & (u <= 0.9)
    ratio = applied[mask] / target[mask]
    resid = float(np.max(np.abs(applied[mask] - target[mask]) / target[mask]))
    return FirstKindReport(
        max_rel_residual=resid,
        ratio_mean=float(ratio.mean()),
        ratio_spread=float((ratio.max() - ratio.min()) / abs(ratio.mean())),
        nodes_used=int(mask.sum()),
    )


def h0_weighted_integral(constants: DerivedConstants, order: int = 24) -> float:
    """Weighted integral of the limiting weight: int_0^1 h0(u) u^{1/2-H1} du.

    The integrand has algebraic endpoint behavior on both sides; near
    zero it carries the two branches u^{1/2-H2} and u^{1-2H1}, of which
    the stronger is declared to the quadrature, and near one it behaves
    like (1-u)^{H1-H2}.  The bounded remainder is integrated on
    geometric ladders.  This is the normalization-free functional the
    rescaled solver solutions converge to.
    """
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    p = min(0.5 - h2, 1.0 - 2.0 * h1)
    q = h1 - h2

    def bounded(z: np.ndarray) -> np.ndarray:
        w = np.asarray(h0(z, constants), dtype=float)
        return w * z ** (0.5 - h1 - p) * (1.0 - z) ** (-q)

    val = _layered_01(bounded, p, q, order, 1e-9, 1e-9)
    if not np.isfinite(val) or val <= 0.0:
        raise AccuracyError(
            f"weighted integral of the limiting weight came out {val}; "
            f"expected a positive finite value"
        )
    return float(val)


def asymptotic_variance(constants: DerivedConstants) -> float:
    """Limiting variance scale: reciprocal of the h0 weighted integral.

    The horizon-scaled estimation variance T^{2-2H2} Var converges to a
    constant proportional to this value; see the harness module for the
    empirical comparison that pins the proportionality.
    """
    return 1.0 / h0_weighted_integral(constants)


def h_mu(
    solution: FredholmSolution, constants: DerivedConstants
) -> Callable[[float | np.ndarray], float | np.ndarray]:
    """Rescale a finite-horizon solution onto the unit interval.

    Returns the callable u -> mu(T) T^{H1-1/2} h_hat(u) on (0, 1], with
    h_hat extended off the nodes by the solver's interpolation formula.
    As T grows these rescalings approach the closed-form h0; the
    approach rate is governed by gamma^2 / mu(T).
    """
    T = solution.horizon_T
    h1 = constants.hurst.h1
    factor = constants.mu_of_T(T) * T ** (h1 - 0.5)
    h_T = unscale(solution)

    def weight(u: float | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if arr.size and (
            np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0)
        ):
            raise DomainError("the rescaled weight is defined on (0, 1]")
        t = arr * T
        vals = factor * np.asarray(h_T(t), dtype=float) * t ** (0.5 - h1)
        if np.ndim(u) == 0:
            return float(vals)
        return vals

    return weight


def limit_functional(
    solution: FredholmSolution, constants: DerivedConstants
) -> float:
    """Grid quadrature of h_mu(u) u^{1/2-H1} for one horizon.

    Uses the nodal solution values directly, so the result is independent
    of the off-grid extension; multiplied by sigma^2 gamma^2 T^{2-2H2}
    this reproduces the quadratic variation of the score martingale.
    """
    T = solution.horizon_T
    h1 = constants.hurst.h1
    grid = solution.grid
    factor = constants.mu_of_T(T) * T ** (h1 - 0.5)
    vals = factor * solution.h_hat * grid.nodes ** (0.5 - h1)
    return float(np.dot(grid.weights, vals))
