"""Quadrature and fractional-calculus primitives.

Everything here is generic numerical plumbing: Gauss-Jacobi rules for
integrals with algebraic endpoint singularities

    int_a^b f(x) (x-a)^p (b-x)^q dx,      p, q > -1,

an adaptive wrapper that doubles the node count until convergence,
Riemann-Liouville fractional integrals/derivatives, and a dense linear
solve with a condition-number guard.  Heavy lifting is delegated to
scipy (roots_jacobi is a Golub-Welsch eigen solve; gammaln keeps beta
ratios stable), with the contracts and error semantics fixed here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.special import beta as _sp_beta
from scipy.special import gamma as _sp_gamma
from scipy.special import gammaln as _sp_gammaln
from scipy.special import roots_jacobi, roots_legendre

from .errors import AccuracyWarning, DomainError, IllConditionedError

__all__ = [
    "QuadratureRule",
    "gamma_fn",
    "beta_fn",
    "jacobi_rule",
    "jacobi_panels",
    "singular_integral",
    "frac_integral_right",
    "frac_derivative_left",
    "frac_derivative_right",
    "solve_dense",
]

MAX_DOUBLINGS_CAP = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for a weighted rule on ``interval``.

    The weights absorb the algebraic factor, i.e.

        sum_i w_i f(x_i)  ~  int_a^b f(x) (x-a)^p (b-x)^q dx,

    exact whenever f is a polynomial of degree <= 2n-1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    p: float
    q: float
    interval: tuple[float, float]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))

    def __iter__(self):
        # supports ``x, w = jacobi_rule(...)``
        yield self.nodes
        yield self.weights


def gamma_fn(x: float | np.ndarray) -> float | np.ndarray:
    """Gamma function restricted to positive arguments."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError(f"gamma_fn requires positive arguments, got {x}")
    out = _sp_gamma(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a, b) for positive a, b (log-gamma based, overflow safe)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn requires positive arguments, got ({a}, {b})")
    if max(a, b) < 100.0:
        return float(_sp_beta(a, b))
    return float(np.exp(_sp_gammaln(a) + _sp_gammaln(b) - _sp_gammaln(a + b)))


@lru_cache(maxsize=512)
def _base_rule(n: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for weight (1+t)^p (1-t)^q."""
    if p == 0.0 and q == 0.0:
        t, w = roots_legendre(n)
    else:
        # scipy convention: weight (1-t)^alpha (1+t)^beta
        t, w = roots_jacobi(n, q, p)
    return t, w


def jacobi_rule(n: int, p: float, q: float, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for ``int_a^b f(x)(x-a)^p(b-x)^q dx``.

    Parameters
    ----------
    n : number of nodes (>= 1).
    p, q : endpoint exponents at a and b, each > -1.
    a, b : interval, a < b.
    """
    if n < 1:
        raise DomainError(f"jacobi_rule needs n >= 1, got {n}")
    if p <= -1.0 or q <= -1.0:
        raise DomainError(f"endpoint exponents must exceed -1, got p={p}, q={q}")
    if not (b > a):
        raise DomainError(f"empty interval [{a}, {b}]")
    t, w = _base_rule(int(n), float(p), float(q))
    half = 0.5 * (b - a)
    nodes = a + half * (t + 1.0)
    weights = w * half ** (p + q + 1.0)
    return QuadratureRule(nodes=nodes, weights=weights, p=p, q=q, interval=(a, b))


def jacobi_panels(n: int, a, b, p, q) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rules on many panels at once.

    Row k of the returned (nodes, weights), each of shape (len(a), n),
    is ``jacobi_rule(n, p[k], q[k], a[k], b[k])``.  The panels of one
    batch typically share a handful of exponent pairs, so each distinct
    pair costs one base rule.
    """
    a, b, p, q = (np.asarray(v, dtype=float) for v in (a, b, p, q))
    if np.any(p <= -1.0) or np.any(q <= -1.0):
        raise DomainError("endpoint exponents must exceed -1")
    if not np.all(b > a):
        raise DomainError("empty panel in batch")
    pairs, inv = np.unique(p + 1j * q, return_inverse=True)
    base = [_base_rule(int(n), pq.real, pq.imag) for pq in pairs.tolist()]
    t = np.array([r[0] for r in base]).reshape(-1, n)[inv]
    w = np.array([r[1] for r in base]).reshape(-1, n)[inv]
    half = (0.5 * (b - a))[:, None]
    nodes = a[:, None] + half * (t + 1.0)
    weights = w * half ** (p + q + 1.0)[:, None]
    return nodes, weights


def singular_integral(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    p: float = 0.0,
    q: float = 0.0,
    n0: int = 16,
    rtol: float = 1e-10,
    n_cap: int = MAX_DOUBLINGS_CAP,
) -> float:
    """Adaptive Gauss-Jacobi evaluation of ``int_a^b f(x)(x-a)^p(b-x)^q dx``.

    Doubles the node count from n0 until two successive estimates agree to
    relative tolerance rtol or the cap is hit; in the latter case the last
    estimate is returned and an AccuracyWarning is emitted.
    """
    n = max(int(n0), 2)
    prev = jacobi_rule(n, p, q, a, b).apply(f)
    while n < n_cap:
        n = min(2 * n, n_cap)
        cur = jacobi_rule(n, p, q, a, b).apply(f)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    warnings.warn(
        f"singular_integral did not converge to rtol={rtol} at n_cap={n_cap}",
        AccuracyWarning,
        stacklevel=2,
    )
    return prev


def frac_integral_right(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    v: float,
    rtol: float = 1e-10,
    q: float = 0.0,
) -> float:
    """Right-sided Riemann-Liouville integral on [v, 1].

    (I^alpha_{1-} f)(v) = Gamma(alpha)^{-1} int_v^1 f(t) (t-v)^{alpha-1} dt.

    When f behaves like (1-t)^q near t=1, declaring q moves that factor
    into the Gauss-Jacobi weight; otherwise the node doubling converges
    only algebraically there.
    """
    if alpha <= 0.0:
        raise DomainError(f"fractional order must be positive, got {alpha}")
    if not (0.0 <= v < 1.0):
        raise DomainError(f"evaluation point must lie in [0, 1), got {v}")
    if q == 0.0:
        g = f
    else:
        g = lambda t: f(t) * (1.0 - t) ** (-q)
    val = singular_integral(g, v, 1.0, p=alpha - 1.0, q=q, rtol=rtol)
    return val / gamma_fn(alpha)


def _poly_fit_derivative(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """Derivative at x of the least-squares polynomial through (xs, ys)."""
    deg = len(xs) - 1
    # center/scale for conditioning
    scale = max(xs.max() - xs.min(), 1e-12)
    coeffs = np.polyfit((xs - x) / scale, ys, deg)
    dcoeffs = np.polyder(coeffs)
    return float(np.polyval(dcoeffs, 0.0) / scale)


def frac_derivative_left(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    x: float,
    power: float | None = None,
    stencil: int = 5,
    rel_h: float = 0.02,
) -> float:
    """Left-sided Riemann-Liouville derivative (D^alpha_{0+} f)(x), 0 < alpha < 1.

    If ``power`` is given, f is taken to be t -> t^power and the analytic rule

        D^alpha_{0+} t^beta = Gamma(beta+1)/Gamma(beta+1-alpha) x^{beta-alpha}

    is used.  Otherwise the fractional integral F = I^{1-alpha}_{0+} f is
    evaluated on a local stencil and the polynomial fit is differentiated.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"frac_derivative_left needs 0 < alpha < 1, got {alpha}")
    if x <= 0.0:
        raise DomainError(f"evaluation point must be positive, got {x}")
    if power is not None:
        if power <= -1.0:
            raise DomainError(f"power must exceed -1, got {power}")
        return (
            gamma_fn(power + 1.0)
            / gamma_fn(power + 1.0 - alpha)
            * x ** (power - alpha)
        )
    if stencil < 3 or stencil % 2 == 0:
        raise DomainError(f"stencil must be odd and >= 3, got {stencil}")
    h = rel_h * max(abs(x), 0.1)
    offsets = (np.arange(stencil) - stencil // 2) * h
    xs = x + offsets
    if xs[0] <= 0.0:
        xs = xs - xs[0] + 0.25 * h  # shift stencil inside the domain
    ga = gamma_fn(1.0 - alpha)

    def F(y: float) -> float:
        return singular_integral(f, 0.0, y, p=0.0, q=-alpha, rtol=1e-12) / ga

    ys = np.array([F(y) for y in xs])
    return _poly_fit_derivative(xs, ys, x)


def frac_derivative_right(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    x: float,
    power_one_minus: float | None = None,
    stencil: int = 5,
    rel_h: float = 0.02,
) -> float:
    """Right-sided Riemann-Liouville derivative (D^alpha_{1-} f)(x), 0 < alpha < 1.

    With ``power_one_minus = beta`` the function is taken to be t -> (1-t)^beta
    and the mirrored power rule applies.  The numeric fallback differentiates
    G = I^{1-alpha}_{1-} f through a local polynomial fit (note the sign:
    D^alpha_{1-} f = -d/dx I^{1-alpha}_{1-} f).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"frac_derivative_right needs 0 < alpha < 1, got {alpha}")
    if x >= 1.0:
        raise DomainError(f"evaluation point must be < 1, got {x}")
    if power_one_minus is not None:
        beta = power_one_minus
        if beta <= -1.0:
            raise DomainError(f"power must exceed -1, got {beta}")
        return (
            gamma_fn(beta + 1.0)
            / gamma_fn(beta + 1.0 - alpha)
            * (1.0 - x) ** (beta - alpha)
        )
    if stencil < 3 or stencil % 2 == 0:
        raise DomainError(f"stencil must be odd and >= 3, got {stencil}")
    h = rel_h * max(1.0 - x, 0.1)
    offsets = (np.arange(stencil) - stencil // 2) * h
    xs = x + offsets
    if xs[-1] >= 1.0:
        xs = xs - (xs[-1] - 1.0) - 0.25 * h
    ga = gamma_fn(1.0 - alpha)

    def G(y: float) -> float:
        return singular_integral(f, y, 1.0, p=-alpha, q=0.0, rtol=1e-12) / ga

    ys = np.array([G(y) for y in xs])
    return -_poly_fit_derivative(xs, ys, x)


def solve_dense(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = b with LU, one refinement step, and a condition guard.

    Returns (x, cond_1norm_estimate).  Raises IllConditionedError when the
    estimated condition number exceeds 1e12, and AccuracyError semantics are
    folded into the residual check (residual beyond 1e-10 relative is treated
    as ill-conditioning in disguise).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"A must be square, got shape {A.shape}")
    lu, piv = scipy.linalg.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0:
        raise IllConditionedError(f"condition estimate failed (info={info})")
    cond = 1.0 / max(rcond, 1e-300)
    if cond > 1e12:
        raise IllConditionedError(f"matrix condition estimate {cond:.3e} exceeds 1e12")
    x = scipy.linalg.lu_solve((lu, piv), b)
    # one step of iterative refinement
    r = b - A @ x
    x = x + scipy.linalg.lu_solve((lu, piv), r)
    r = b - A @ x
    denom = max(float(np.linalg.norm(b, np.inf)), 1e-300)
    rel = float(np.linalg.norm(r, np.inf)) / denom
    if rel > 1e-10:
        raise IllConditionedError(
            f"residual {rel:.3e} exceeds 1e-10 after refinement (cond ~ {cond:.3e})"
        )
    return x, cond
