"""Deterministic kernels of the mixed fractional model.

Every kernel here is homogeneous, so its two-argument values reduce to
one-dimensional profiles of the ratio of its arguments.
:class:`KernelTables` samples these profiles once per Hurst pair with
the batched layered quadrature (``_layered_batch``) and stores them as
log-coordinate splines; the tables back the Nystrom assembly, the
residual audit and the covariance builder.

Kernel inventory, for Hurst pair (h1, h2) and gap a = h2 - h1, by table
method:

* ``K12(t, s)``   Volterra kernel of the transformed second fBm,
                  K(t,s) = beta_{h2} s^(1/2-h2)
                  int_s^t (t-u)^(1/2-h1) u^(h2-h1) (u-s)^(h2-3/2) du.
* ``dK12(t, s)``  its t-derivative.
* ``k1(s, u)``    the solver kernel k1(s,u) = (su)^(h1-1/2) k(s,u), with
                  k(s,u) = int_0^{min} d_sK(s,v) d_uK(u,v) dv.
* ``R(t, s)``     R(t,s) = int_0^{min} K(t,v) K(s,v) dv.

The direct evaluators of the same kernels from their defining integrals
live with the tests, in ``tests/oracles.py``, as the references the
tables are checked against.

Scaling laws: rescaling both arguments by a > 0 multiplies K12 by
a^(1/2+h2-2h1), d_tK12 by a^(h2-2h1-1/2), k by a^(2h2-4h1) and k1 by
a^(2h2-2h1-1).  The tables evaluate each kernel as a power of one
argument times a profile of the ratio, so they satisfy these identities
up to the rounding of that ratio.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .model import DerivedConstants, _beta
from .numerics import jacobi_panels

__all__ = [
    "KernelContext",
    "KernelTables",
    "get_tables",
]

# separations below DIAG_RTOL*max(u,s) use the one-sided clamp rule
DIAG_RTOL = 1e-8

_PROFILE_XMIN = 1e-12
_PROFILE_PER_SIDE = 1500


@dataclass(frozen=True)
class KernelContext:
    """Evaluation context: the model constants of one parameter set."""

    constants: DerivedConstants

    @property
    def h1(self) -> float:
        return self.constants.hurst.h1

    @property
    def h2(self) -> float:
        return self.constants.hurst.h2


# geometric ladders double from the smallest scale 1e-12 to 1/2 in at
# most this many steps
_LADDER_STEPS = 40
# quadrature nodes evaluated per chunk of a batch: each temporary array
# of the integrand stays at 128 kB (larger chunks raise the peak RSS of
# a table build by several MB and are no faster)
_CHUNK_NODES = 1 << 14


def _ladder_edges(z0) -> np.ndarray:
    """Geometric breakpoints 0, z0, 2 z0, ... capped at 1/2, one row per scale.

    Each z0 is clipped to [1e-12, 1/4]; NaN (no ladder) leaves the single
    panel (0, 1/2].  Rows are padded with repeated 1/2, i.e. with empty
    panels.
    """
    z0 = np.clip(np.asarray(z0, dtype=float).reshape(-1), 1e-12, 0.25)
    steps = z0[:, None] * 2.0 ** np.arange(_LADDER_STEPS)
    steps[~(steps < 0.5)] = 0.5
    ends = np.full((z0.size, 1), 0.5)
    return np.hstack([np.zeros_like(ends), steps, ends])


# Panels of the layered rule, by kind: 0 the Jacobi panel (0, z_left) and
# 1 the Gauss panels of the left ladder; 2 and 3 the same on the right
# ladder, mirrored through z -> 1-z; 4 the Jacobi panel (1/2, 1) of a
# right half without ladder; 5 the single Jacobi panel (0, 1).  Column
# groups of the panel table: left ladder, right ladder, kind 4, kind 5.
_KIND_OF_COLUMN = np.concatenate([[0], np.ones(_LADDER_STEPS, int), [2],
                                  np.full(_LADDER_STEPS, 3), [4, 5]])
_GROUP_OF_COLUMN = np.concatenate([np.zeros(_LADDER_STEPS + 1, int),
                                   np.ones(_LADDER_STEPS + 1, int), [2, 3]])
_MIRRORED_KIND = np.array([False, False, True, True, False, False])


def _ladder_rule(p: float, q: float, n: int, z_left, z_right):
    """Nodes and weights of the layered rule on (0,1) for a batch of scales.

    Returns (nodes, weights, seg): one row of n nodes per panel, and the
    index of the specification each panel belongs to, one per entry of
    the broadcast scales z_left, z_right (NaN: no ladder on that half).
    The weights carry the endpoint factors z^p (1-z)^q, so that
    sum(weights * f(nodes)) over the panels of a specification is its
    layered integral of f; see ``_layered_01`` for the panel layout.
    """
    zl, zr = np.broadcast_arrays(np.atleast_1d(np.asarray(z_left, float)),
                                 np.atleast_1d(np.asarray(z_right, float)))
    plain = np.isnan(zl) & np.isnan(zr)
    ladder_right = ~np.isnan(zr)
    el, er = _ladder_edges(zl), _ladder_edges(zr)
    ones = np.ones((zl.size, 1))
    lo = np.hstack([el[:, :-1], er[:, :-1], 0.5 * ones, 0.0 * ones])
    hi = np.hstack([el[:, 1:], er[:, 1:], ones, ones])
    groups = np.stack([~plain, ladder_right, ~plain & ~ladder_right, plain], 1)
    seg, col = np.nonzero(groups[:, _GROUP_OF_COLUMN] & (hi > lo))
    kind = _KIND_OF_COLUMN[col]
    alpha = np.array([p, 0.0, q, 0.0, 0.0, p])[kind]
    beta = np.array([0.0, 0.0, 0.0, 0.0, q, q])[kind]
    ep = np.array([0.0, p, p, p, p, 0.0])[kind, None]
    eq = np.array([q, q, 0.0, q, 0.0, 0.0])[kind, None]
    x, w = jacobi_panels(n, lo[seg, col], hi[seg, col], alpha, beta)
    mirrored = _MIRRORED_KIND[kind, None]
    z = np.where(mirrored, 1.0 - x, x)
    w = w * (z ** ep * np.where(mirrored, x, 1.0 - x) ** eq)
    return z, w, seg


@lru_cache(maxsize=64)
def _ladder_rule_one(p: float, q: float, n: int,
                     z_left: float | None, z_right: float | None):
    """Nodes and weights of the layered rule for one specification.

    Memoized (read-only arrays): scalar callers and the shared-node
    batches repeat a few specifications many times.
    """
    nan = float("nan")
    z, w, _ = _ladder_rule(p, q, n, nan if z_left is None else z_left,
                           nan if z_right is None else z_right)
    z, w = z.ravel(), w.ravel()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _layered_batch(f, p: float, q: float, n: int, z_left, z_right) -> np.ndarray:
    """Layered integrals of many integrands, one per ladder specification.

    f(z, i) evaluates the integrands at nodes z of shape (panels, n),
    integrand i[k] on row k (i has shape (panels, 1)).  The
    specifications are taken in chunks of at most ``_CHUNK_NODES``
    nodes; each chunk evaluates its integrand once, sums it per panel
    and then per specification.
    """
    zl, zr = np.broadcast_arrays(np.atleast_1d(np.asarray(z_left, float)),
                                 np.atleast_1d(np.asarray(z_right, float)))
    out = np.empty(zl.size)
    step = max(1, _CHUNK_NODES // (2 * (_LADDER_STEPS + 1) * n))
    for s0 in range(0, zl.size, step):
        sl = slice(s0, s0 + step)
        z, w, seg = _ladder_rule(p, q, n, zl[sl], zr[sl])
        panels = (w * f(z, seg[:, None] + s0)).sum(axis=1)
        out[sl] = np.bincount(seg, weights=panels, minlength=zl[sl].size)
    return out


def _layered_01(f, p: float, q: float, n: int,
                z_left: float | None = None,
                z_right: float | None = None) -> float:
    """Integrate z^p (1-z)^q f(z) over (0,1) with endpoint-aware panels.

    f must accept numpy arrays and is assumed free of endpoint blow-up of
    its own, but may have boundary layers or Holder kinks near the ends:
    z_left (z_right) declares the scale at 0 (at 1) from which the mesh
    is refined geometrically outward.  None places a single Jacobi panel
    on that half; None on both halves, a single Jacobi panel on (0,1).

    Panels carry n nodes: on the left half a Jacobi panel (exponent p)
    on (0, z_left), then Gauss panels on the doubling ladder up to 1/2;
    the right half mirrors this through z -> 1-z with exponent q.  This
    is a batch of one of the engine behind ``_layered_batch``, which
    integrates many integrands on ragged ladders at once.
    """
    z, w = _ladder_rule_one(float(p), float(q), int(n), z_left, z_right)
    return float(np.dot(w, f(z)))


class _EdgeSpline:
    """Cubic spline of a bounded profile on (0,1) in log coordinates.

    Two charts: log(x) on (0, 1/2], log(1-x) on [1/2, 1).  Power-law
    (Holder) corrections at the endpoints interpolate with uniform
    relative accuracy in these coordinates.  Evaluation clamps beyond
    the sampled range, matching profiles with finite endpoint limits.
    """

    def __init__(self, sample_fn, xmin: float = _PROFILE_XMIN,
                 per_side: int = _PROFILE_PER_SIDE):
        grid = np.geomspace(xmin, 0.5, per_side)
        self._lo, self._hi = xmin, 1.0 - xmin
        self._left = CubicSpline(np.log(grid), sample_fn(grid))
        self._right = CubicSpline(np.log(grid), sample_fn(1.0 - grid))

    def __call__(self, x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        xa = np.clip(xa, self._lo, self._hi)
        out = np.empty_like(xa)
        left = xa <= 0.5
        if left.any():
            out[left] = self._left(np.log(xa[left]))
        if (~left).any():
            out[~left] = self._right(np.log(1.0 - xa[~left]))
        return out if np.ndim(x) else float(out[0])


@dataclass
class KernelTables:
    """Cached 1D scale profiles for one Hurst pair.

    With x the ratio of the smaller to the larger time argument and
    a = h2 - h1:

    m(x)      K12(1,x) = beta_{h2} x^(1/2-h2) (1-x)^a m(x)
    n(y)      companion integral of the derivative kernel
    psi_d(y)  d_tK12(1,y) = y^(1/2-h2) (1-y)^(a-1) psi_d(y)
    c(x)      k(s,u) = s^(1-2h1) (u-s)^(2a-1) c(s/u),  s < u
    rho(x)    R(t,s) = s^(2-2h1) t^(2h2-2h1) rho(s/t), s <= t

    All profiles are bounded with finite endpoint limits and are stored
    as log-coordinate cubic splines; the test suite pins them against
    the direct evaluators.
    """

    h1: float
    h2: float
    beta2: float
    m: _EdgeSpline = field(repr=False)
    n: _EdgeSpline = field(repr=False)
    psi_d: _EdgeSpline = field(repr=False)
    c: _EdgeSpline = field(repr=False)
    rho: _EdgeSpline = field(repr=False)

    @property
    def a(self) -> float:
        return self.h2 - self.h1

    def kappa(self, x):
        """K12(1, x) for x in (0,1)."""
        x = np.asarray(x, dtype=float)
        return self.beta2 * x ** (0.5 - self.h2) * (1.0 - x) ** self.a * self.m(x)

    def K12(self, t, s):
        t = np.asarray(t, dtype=float)
        return t ** (0.5 + self.h2 - 2.0 * self.h1) * self.kappa(np.asarray(s) / t)

    def dK12(self, t, s):
        t = np.asarray(t, dtype=float)
        y = np.asarray(s, dtype=float) / t
        prof = y ** (0.5 - self.h2) * (1.0 - y) ** (self.a - 1.0) * self.psi_d(y)
        return t ** (self.h2 - 2.0 * self.h1 - 0.5) * prof

    def k1(self, s, u):
        """k1(s,u), symmetric, with the diagonal clamp rule; vectorized."""
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        lo = np.minimum(s, u)
        hi = np.maximum(s, u)
        gap = np.maximum(hi - lo, DIAG_RTOL * hi)
        x = np.minimum(lo / hi, 1.0 - DIAG_RTOL)
        return (lo ** (0.5 - self.h1) * hi ** (self.h1 - 0.5)
                * gap ** (2.0 * self.a - 1.0) * self.c(x))

    def R(self, t, s):
        """Covariance of the transformed second fBm; vectorized."""
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(s, dtype=float))
        lo = np.minimum(s, t)
        hi = np.maximum(s, t)
        out = np.zeros(lo.shape)
        pos = lo > 0.0
        out[pos] = (lo[pos] ** (2.0 - 2.0 * self.h1)
                    * hi[pos] ** (2.0 * self.h2 - 2.0 * self.h1)
                    * self.rho(lo[pos] / hi[pos]))
        return out if out.ndim else float(out)


def _build_tables(h1: float, h2: float) -> KernelTables:
    """Sample every profile with batched layered quadrature.

    Each profile is a batch of 2 * _PROFILE_PER_SIDE layered integrals,
    one per sample x, on ladders that may vary with x.
    """
    a = h2 - h1
    beta2 = _beta(h2)
    nq = 24
    nan = float("nan")

    def m_at(x: np.ndarray) -> np.ndarray:
        zl = np.where(x < 0.2, x / (1.0 - x), nan)
        return _layered_batch(lambda z, i: (x[i] + (1.0 - x[i]) * z) ** a,
                              h2 - 1.5, 0.5 - h1, nq, zl, nan)

    def n_at(y: np.ndarray) -> np.ndarray:
        zl = np.where(y < 0.2, y / (1.0 - y), nan)
        return _layered_batch(lambda z, i: (y[i] + (1.0 - y[i]) * z) ** (a - 1.0),
                              h2 - 0.5, 0.5 - h1, nq, zl, nan)

    m_spl = _EdgeSpline(m_at)
    n_spl = _EdgeSpline(n_at)

    # psi_d follows from m and n without further integration
    psi_spl = _EdgeSpline(lambda ys: a * beta2 * (m_spl(ys)
                                                  + (1.0 - ys) * n_spl(ys)))

    def c_at(x: np.ndarray) -> np.ndarray:
        # Phi(x) = int_0^1 w^(1-2h2) (1-w)^(a-1) (1-wx)^(a-1)
        #          psi(w) psi(wx) dw;  c(x) = (1-x)^(1-2a) Phi(x).
        # Layers: psi's Holder kink spreads from w=0 (dyadic ladder) and
        # the (1-wx) factor varies on the scale (1-x)/x near w=1.
        def fsm(w: np.ndarray, i: np.ndarray) -> np.ndarray:
            xi = x[i]
            return (1.0 - w * xi) ** (a - 1.0) * psi_spl(w) * psi_spl(w * xi)

        zr = np.where(x > 0.5, np.maximum((1.0 - x) / x, 1e-10), 1e-10)
        phi = _layered_batch(fsm, 1.0 - 2.0 * h2, a - 1.0, nq, 1e-10, zr)
        return (1.0 - x) ** (1.0 - 2.0 * a) * phi

    c_spl = _EdgeSpline(c_at)

    def rho_at(x: np.ndarray) -> np.ndarray:
        def fsm(y: np.ndarray, i: np.ndarray) -> np.ndarray:
            xy = x[i] * y
            return (1.0 - xy) ** a * m_spl(xy) * m_spl(y)

        zs = np.full_like(x, 1e-10)
        val = _layered_batch(fsm, 1.0 - 2.0 * h2, a, 32, zs, zs)
        return beta2 * beta2 * val

    rho_spl = _EdgeSpline(rho_at)

    return KernelTables(h1=h1, h2=h2, beta2=beta2, m=m_spl, n=n_spl,
                        psi_d=psi_spl, c=c_spl, rho=rho_spl)


@lru_cache(maxsize=8)
def get_tables(h1: float, h2: float) -> KernelTables:
    """Profile tables for a Hurst pair, built once per pair per process."""
    return _build_tables(h1, h2)
