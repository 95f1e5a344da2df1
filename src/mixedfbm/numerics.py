"""Gauss-Jacobi panels, special functions, a dense solve and a spline.

``jacobi_panels`` is the one source of Gauss rules in the package: it
maps n-point rules for integrals with algebraic endpoint singularities

    int_a^b f(x) (x-a)^p (b-x)^q dx,      p, q > -1,

onto many panels at once, from one base rule on [-1, 1] per exponent
pair (``_base_rule``; scipy's Golub-Welsch solve, memoized).  Beside
it: the gamma and beta functions on their positive domain, a dense
linear solve with a condition-number guard, the package's one cubic
spline and ``as_batch``, the argument conversion of the package's kernels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.special import beta as _sp_beta
from scipy.special import gamma as _sp_gamma
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError, IllConditionedError

__all__ = [
    "as_batch",
    "gamma_fn",
    "beta_fn",
    "jacobi_panels",
    "solve_dense",
    "KnotSpline",
]


def as_batch(*args) -> tuple:
    """(finish, *arrays): the arguments as broadcast float arrays of at
    least one dimension, so that a scalar runs through a batch's array
    loops (numpy's scalar ``**`` can round the last bit differently),
    and the function that returns a result as a float for scalars."""
    arrays = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in args))
    if any(np.ndim(a) for a in args):
        return (lambda out: out, *arrays)
    return (lambda out: float(out[0]), *arrays)


def gamma_fn(x: float | np.ndarray) -> float | np.ndarray:
    """Gamma function restricted to positive arguments."""
    finish, arr = as_batch(x)
    if np.any(arr <= 0.0):
        raise DomainError(f"gamma_fn requires positive arguments, got {x}")
    return finish(_sp_gamma(arr))


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a, b) for positive a, b."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(_sp_beta(a, b))


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


class KnotSpline:
    """Not-a-knot cubic spline through the knots (x, y) (de Boor, *A
    Practical Guide to Splines*, ch. IV), formed and summed as scipy's
    CubicSpline is, bit for bit: knot slopes from one tridiagonal solve,
    then ``c``, each interval's cubic in powers 3..0 of the offset from
    its left knot.  DomainError unless x holds at least 4 finite,
    increasing knots and y one finite value per knot.
    """

    def __init__(self, x, y):
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        if not (x.ndim == 1 and x.size >= 4 and y.shape == x.shape
                and np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                and np.all(np.diff(x) > 0.0)):
            raise DomainError("a spline needs at least 4 finite, increasing "
                              "knots and one finite value per knot")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # rows: upper, main and lower diagonal of the slope system
        band = np.zeros((3, x.size))
        band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        band[0, 2:] = dx[:-1]
        band[-1, :-2] = dx[1:]
        rhs = np.empty(x.size)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        band[1, 0], band[0, 1] = dx[1], d
        rhs[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
        d = x[-1] - x[-3]
        band[1, -1], band[-1, -2] = dx[-2], d
        rhs[-1] = (dx[-1]**2*slope[-2] + (2*d + dx[-1])*dx[-2]*slope[-1]) / d
        s = scipy.linalg.solve_banded((1, 1), band, rhs, overwrite_ab=True,
                                      overwrite_b=True, check_finite=False)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self.y = x, y
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, x) -> np.ndarray:
        """The spline at the points x, an array of x's shape; the end
        cubics extend past the knots."""
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.x, x, side="right")
        i = np.clip(i, 1, self.x.size - 1) - 1
        out, s = np.empty(x.shape), x - self.x[i]
        _cubic_sum(self.c, i, s, out, np.empty(x.shape))
        return out

    def second_derivatives(self) -> np.ndarray:
        """At each knot, of the cubic from it; at the last, of the last."""
        c0, c1 = self.c[:2]
        h = self.x[-1] - self.x[-2]
        return np.append(c1 * 2, c1[-1] * 2 + (c0[-1] * h) * 6)


def _cubic_sum(c, i, s, out, term) -> None:
    """out = c3 + c2 s + c1 s^2 + c0 s^3 at the intervals i, summed as
    scipy's PPoly sums it; term is scratch.  i must be in range: the
    takes skip their bounds check."""
    c0, c1, c2, c3 = c
    s2 = s * s
    c3.take(i, out=out, mode="clip")
    out += np.multiply(c2.take(i, out=term, mode="clip"), s, out=term)
    out += np.multiply(c1.take(i, out=term, mode="clip"), s2, out=term)
    s2 *= s
    out += np.multiply(c0.take(i, out=term, mode="clip"), s2, out=term)
