"""Gauss-Jacobi panels, special functions and a guarded dense solve.

``jacobi_panels`` is the one source of Gauss rules in the package: it
maps n-point rules for integrals with algebraic endpoint singularities

    int_a^b f(x) (x-a)^p (b-x)^q dx,      p, q > -1,

onto many panels at once, from one base rule on [-1, 1] per exponent
pair (``_base_rule``; scipy's Golub-Welsch solve, memoized).  Beside
it: the gamma and beta functions on their positive domain (log-gamma
keeps large beta arguments from overflowing) and a dense linear solve
with a condition-number guard.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.special import beta as _sp_beta
from scipy.special import gamma as _sp_gamma
from scipy.special import gammaln as _sp_gammaln
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError, IllConditionedError

__all__ = [
    "gamma_fn",
    "beta_fn",
    "jacobi_panels",
    "solve_dense",
]


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


def jacobi_panels(n: int, a, b, p, q) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rules on many panels at once.

    Row k of the returned (nodes, weights), each of shape (len(a), n),
    is the rule for ``int_a[k]^b[k] f(x) (x-a[k])^p[k] (b[k]-x)^q[k] dx``:
    the weights absorb the algebraic factor, so the rule is exact for
    polynomial f of degree <= 2n-1.  The panels of one batch typically
    share a handful of exponent pairs, so each distinct pair costs one
    base rule.
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


def solve_dense(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = b with LU, one refinement step, and a condition guard.

    Returns (x, cond_1norm_estimate).  Raises IllConditionedError when the
    condition estimate exceeds 1e12 or the refined solution's backward
    error ||r||/(||A|| ||x|| + ||b||) (inf-norms) exceeds 1e-10, which a
    sound LU never reaches; a tighter verdict is the caller's, on cond.
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
    scale = (np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf)
             + np.linalg.norm(b, np.inf))
    backward = float(np.linalg.norm(r, np.inf) / max(scale, 1e-300))
    if not backward <= 1e-10:
        raise IllConditionedError(
            f"backward error {backward:.3e} exceeds 1e-10 after refinement "
            f"(cond ~ {cond:.3e})")
    return x, cond
