"""Model parameters and derived constants for the mixed fractional model.

The observation is X(t) = theta*t + sigma*B1(t) + B2(t) with two independent
fractional Brownian motions of Hurst indices 1/2 < h1 < h2 < 1; the package
calls this process Z (``simulate_Z``, path label "Z").  Everything
downstream (kernels, solver, estimator) consumes the constants computed here,
so the drift-normalization convention is fixed in exactly one place:
``drift_norm`` (see :func:`derive_constants`).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

from .errors import DomainError
from .numerics import beta_fn

__all__ = [
    "check_real",
    "check_int",
    "HurstPair",
    "ModelParams",
    "DerivedConstants",
    "derive_constants",
]


def _shown(value):
    """An int beyond the float range as "an int of N bits", for a message
    (str() fails beyond 4300 digits); any other value as it is."""
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        return f"an int of {int(value).bit_length()} bits"
    return value


def check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float: DomainError, naming ``name``, unless it is a
    finite real number and not a bool (``True`` would pass as 1), and,
    when ``positive``, above 0.  The package's one scalar number check."""
    # floats (np.float64 too) and ints skip the slow ABC check: simulate_*
    # run it per draw.  An int is bounded exactly (math.isfinite overflows;
    # a float bound would be cast to float32 for an np.float32 and pass its
    # inf) and named by its size
    if type(value) is int:
        if abs(value) > sys.float_info.max:
            raise DomainError(f"require a finite number {name}, got "
                              f"{_shown(value)}")
    elif not ((isinstance(value, float) or (not isinstance(value, bool)
               and isinstance(value, numbers.Real))) and math.isfinite(value)):
        raise DomainError(f"require a finite number {name}, got {value!r}")
    if positive and not value > 0:
        raise DomainError(f"require {name} > 0, got {value}")
    return float(value)


def check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int: DomainError, naming ``name``, unless it is an
    integer (numpy's too) and not a bool, and at least ``minimum`` when
    one is given.  The package's one scalar integer check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"require an integer {name}, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"require {name} >= {minimum}, got {_shown(value)}")
    return int(value)


@dataclass(frozen=True)
class HurstPair:
    """An ordered pair of Hurst indices with 1/2 < h1 < h2 < 1."""

    h1: float
    h2: float

    def __post_init__(self) -> None:
        check_real("h1", self.h1)
        check_real("h2", self.h2)
        if not self.h1 > 0.5:
            raise DomainError(f"require h1 > 1/2, got h1={self.h1}")
        if not self.h2 > self.h1:
            raise DomainError(f"require h2 > h1, got h1={self.h1}, h2={self.h2}")
        if not self.h2 < 1.0:
            raise DomainError(f"require h2 < 1, got h2={self.h2}")

    @property
    def solver_admissible(self) -> bool:
        """True when the index gap exceeds 1/4, the solvability condition
        for the second-kind equation (square-integrable kernel)."""
        return self.h2 - self.h1 > 0.25

    def require_solver_admissible(self) -> None:
        if not self.solver_admissible:
            raise DomainError(
                f"require h2 - h1 > 1/4 for the integral-equation route, "
                f"got gap {self.h2 - self.h1:.6g}"
            )


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: Hurst pair, noise scale, drift, horizon."""

    hurst: HurstPair
    sigma: float = 1.0
    theta: float = 0.0
    horizon_T: float = 1.0

    def __post_init__(self) -> None:
        check_real("sigma", self.sigma, positive=True)
        check_real("theta", self.theta)
        check_real("horizon_T", self.horizon_T, positive=True)


def _alpha(h: float) -> float:
    # covariance-density constant: d^2/dtds of the fBm covariance off-diagonal
    return h * (2.0 * h - 1.0)


def _beta(h: float) -> float:
    return float((_alpha(h) / beta_fn(h - 0.5, 2.0 - 2.0 * h)) ** 0.5)


def _gamma_martingale(h: float) -> float:
    """Normalization of the fundamental martingale built from weight
    s^(1/2-h): its variance at time t is gamma^2 t^(2-2h)/(2-2h).

    Equal to beta_h * B(h-1/2, 3/2-h); validated against a brute-force
    double integral of the weighted fBm covariance in the test suite.
    """
    return _beta(h) * float(beta_fn(h - 0.5, 1.5 - h))


@dataclass(frozen=True)
class DerivedConstants:
    """All closed-form constants derived from a parameter set.

    Fields
    ------
    alpha_h1, alpha_h2 : float
        h(2h-1) for each index.
    beta_h1, beta_h2 : float
        Volterra-kernel normalizations (alpha_h / B(h-1/2, 2-2h))^(1/2).
    gamma_h1 : float
        Fundamental-martingale normalization for h1 (see note below).
    epsilon_h1 : float
        gamma_h1^2/(2-2h1); variance of the h1-martingale at t=1.
    script_b : float
        B(3/2-h1, 3/2-h1); the drift shape constant of the transformed
        observation.
    delta_paper : float
        (2-2h1)*script_b/(sigma*gamma_h1); retained for reporting.
    drift_norm : float
        (2-2h1)*script_b/(sigma*gamma_h1^2) = delta_paper/gamma_h1; the
        normalization that makes the estimator unbiased.

    The method ``lambda_of_T`` gives T -> T^(2h2-2h1)/(sigma^2 gamma^2),
    the coupling constant of the second-kind equation.  It is a method,
    not a stored callable, so the constants pickle (for example into a
    process pool).

    Note
    ----
    gamma_h1 uses beta_h * B(h-1/2, 3/2-h), which reproduces the
    brute-force martingale variance exactly.  An alternative closed form
    in circulation, (2h(3/2-h)Gamma(3/2-h)^3 Gamma(h+1/2)/Gamma(3-2h))^(1/2),
    exceeds it by the factor ((3/2-h)/(2-2h))^(1/2) and fails the variance
    oracle, so it is not used.
    """

    hurst: HurstPair
    sigma: float
    alpha_h1: float
    alpha_h2: float
    beta_h1: float
    beta_h2: float
    gamma_h1: float
    epsilon_h1: float
    script_b: float
    delta_paper: float
    drift_norm: float

    def lambda_of_T(self, T: float) -> float:
        """T^(2h2-2h1) / (sigma^2 gamma^2), the second-kind coupling;
        DomainError where it leaves the float range (is 0 or infinite)."""
        num = float(T) ** (2.0 * (self.hurst.h2 - self.hurst.h1))
        den = self.sigma * self.sigma * (self.gamma_h1 * self.gamma_h1)
        lam = num / den if den else math.inf
        if not 0.0 < lam < math.inf:
            raise DomainError(f"the coupling T^(2h2-2h1)/(sigma^2 gamma^2) "
                              f"leaves the float range at T={T}, sigma={self.sigma}")
        return lam

    def same_model(self, pair, T: float | None = None,
                   lam: float | None = None) -> bool:
        """Whether ``pair.h1``, ``pair.h2`` (of a ``HurstPair`` or kernel
        tables) and, when given, the coupling ``lam`` at horizon T are
        these constants': the pair to 1e-12, the coupling to 1e-12
        relative (never a NaN or infinite ``lam``)."""
        return (abs(self.hurst.h1 - pair.h1) <= 1e-12
                and abs(self.hurst.h2 - pair.h2) <= 1e-12
                and (lam is None or math.isclose(self.lambda_of_T(T), lam,
                                                 rel_tol=1e-12)))

    def as_dict(self) -> dict:
        """Scalar fields only, for JSON dumps: the Hurst pair as h1, h2."""
        out = {"h1": self.hurst.h1, "h2": self.hurst.h2}
        out.update((f.name, getattr(self, f.name))
                   for f in fields(self) if f.name != "hurst")
        return out


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Populate every derived constant for a validated parameter set.

    Parameters
    ----------
    params : ModelParams
        Validated parameters (HurstPair enforces the index ordering).

    Returns
    -------
    DerivedConstants
    """
    hp = params.hurst
    h1, h2 = hp.h1, hp.h2
    sigma = params.sigma

    gamma1 = _gamma_martingale(h1)
    gamma1_sq = gamma1 * gamma1
    script_b = float(beta_fn(1.5 - h1, 1.5 - h1))
    delta = (2.0 - 2.0 * h1) * script_b / (sigma * gamma1)
    drift_norm = delta / gamma1

    return DerivedConstants(
        hurst=hp,
        sigma=sigma,
        alpha_h1=_alpha(h1),
        alpha_h2=_alpha(h2),
        beta_h1=_beta(h1),
        beta_h2=_beta(h2),
        gamma_h1=gamma1,
        epsilon_h1=gamma1_sq / (2.0 - 2.0 * h1),
        script_b=script_b,
        delta_paper=delta,
        drift_norm=drift_norm,
    )
