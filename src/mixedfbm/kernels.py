"""Deterministic kernels of the mixed fractional model.

Every kernel here is homogeneous, so its two-argument values reduce to
one-dimensional profiles of the ratio of its arguments.
:class:`KernelTables` builds each profile as a log-coordinate spline on
first read: m and n from closed forms (Gauss 2F1), c and rho by layered
quadrature on one rule per profile that all its samples share (c lays
its own ladder at w >= 1/2 only where that half needs one).  The solver
reads c; simulation and ``mixedfbm kernel`` read rho.  That quadrature's
geometric ladder (``_ladder_panels``) is the one panel layout of the
package's singular integrals: the tables' rules on (0,1), the audit's
kernel-integral rules and the near-field moments of ``fredholm``.

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

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.special import hyp2f1

from .errors import DomainError
from .model import DerivedConstants, _beta
from .numerics import KnotSpline, _cubic_sum, as_batch, beta_fn, jacobi_panels

__all__ = [
    "KernelContext",
    "KernelTables",
    "get_tables",
]

# separations below DIAG_RTOL*max(u,s) use the one-sided clamp rule
DIAG_RTOL = 1e-8

_PROFILE_XMIN = 1e-12
_PROFILE_PER_SIDE = 1500
# points per block of a profile evaluation: its few work arrays stay at
# 64 kB, in cache and in the allocator's heap (larger ones can be mapped
# and faulted in afresh on each call)
_EVAL_BLOCK = 1 << 13


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
# nodes per panel of c's rules
_C_NODES = 24


def _ladder_edges(z0) -> np.ndarray:
    """Geometric breakpoints 0, z0, 2 z0, ... capped at 1/2, one row per scale.

    NaN (no ladder), or a scale of 1/2 or more, leaves the single panel
    (0, 1/2].  Rows are padded with repeated 1/2, i.e. with empty panels.
    """
    steps = z0.reshape(-1, 1) * 2.0 ** np.arange(_LADDER_STEPS)
    steps[~(steps < 0.5)] = 0.5
    ends = np.full((z0.size, 1), 0.5)
    return np.hstack([np.zeros_like(ends), steps, ends])


# Panels of the layout, by kind: 0 the panel (0, z_left) at the origin and
# 1 the panels of the left ladder; 2 and 3 the same on the right ladder,
# in the mirrored coordinate 1-z; 4 the panel (1/2, 1) of a right half
# without ladder; 5 the single panel (0, 1).  Column groups of the panel
# table: left ladder, right ladder, kind 4, kind 5.
_KIND_OF_COLUMN = np.concatenate([[0], np.ones(_LADDER_STEPS, int), [2],
                                  np.full(_LADDER_STEPS, 3), [4, 5]])
_GROUP_OF_COLUMN = np.concatenate([np.zeros(_LADDER_STEPS + 1, int),
                                   np.ones(_LADDER_STEPS + 1, int), [2, 3]])
_MIRRORED_KIND = np.array([False, False, True, True, False, False])


def _ladder_panels(z_left, z_right):
    """The geometric ladder layout on (0,1) for a batch of scales.

    Returns (seg, lo, hi, kind) for every non-empty panel: the index of
    its specification in the broadcast scales z_left, z_right, its ends
    (in the mirrored coordinate 1-z for kinds 2 and 3) and its kind
    above.  z_left (z_right) is the scale at 0 (at 1) from which the
    panels double outward to 1/2; NaN puts no ladder on that half, and
    NaN on both gives the single panel (0, 1).
    """
    _, zl, zr = as_batch(z_left, z_right)
    plain = np.isnan(zl) & np.isnan(zr)
    ladder_right = ~np.isnan(zr)
    el, er = _ladder_edges(zl), _ladder_edges(zr)
    ones = np.ones((zl.size, 1))
    lo = np.hstack([el[:, :-1], er[:, :-1], 0.5 * ones, 0.0 * ones])
    hi = np.hstack([el[:, 1:], er[:, 1:], ones, ones])
    groups = np.stack([~plain, ladder_right, ~plain & ~ladder_right, plain], 1)
    seg, col = np.nonzero(groups[:, _GROUP_OF_COLUMN] & (hi > lo))
    return seg, lo[seg, col], hi[seg, col], _KIND_OF_COLUMN[col]


def _ladder_rule(p: float, q: float, n: int, z_left, z_right):
    """Nodes and weights of the layered rule on (0,1) for a batch of scales.

    Returns (nodes, weights, seg): n nodes per panel of ``_ladder_panels``
    at the scales clipped to [1e-12, 1/4], and the specification of each
    panel.  The weights carry the endpoint factors z^p (1-z)^q, so that
    sum(weights * f(nodes)) over the panels of a specification integrates
    z^p (1-z)^q f(z) over (0,1) for f free of endpoint blow-up but with
    boundary layers or Holder kinks near the ends.
    """
    seg, lo, hi, kind = _ladder_panels(np.clip(z_left, 1e-12, 0.25),
                                       np.clip(z_right, 1e-12, 0.25))
    z, w = _panel_rule(p, q, n, lo, hi, kind)
    return z, w, seg


def _panel_rule(p: float, q: float, n: int, lo, hi, kind):
    """n nodes and weights on each panel (lo, hi) of the given kinds, with
    the endpoint factors z^p (1-z)^q of ``_ladder_rule``."""
    alpha = np.array([p, 0.0, q, 0.0, 0.0, p])[kind]
    beta = np.array([0.0, 0.0, 0.0, 0.0, q, q])[kind]
    ep = np.array([0.0, p, p, p, p, 0.0])[kind, None]
    eq = np.array([q, q, 0.0, q, 0.0, 0.0])[kind, None]
    x, w = jacobi_panels(n, lo, hi, alpha, beta)
    mirrored = _MIRRORED_KIND[kind, None]
    z = np.where(mirrored, 1.0 - x, x)
    w = w * (z ** ep * np.where(mirrored, x, 1.0 - x) ** eq)
    return z, w


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


class _EdgeSpline:
    """Cubic spline of a bounded profile on (0,1) in log coordinates.

    Two charts: log(x) on (0, 1/2], log(1-x) on [1/2, 1).  Power-law
    (Holder) corrections at the endpoints interpolate with uniform
    relative accuracy in these coordinates.  Evaluation clamps beyond
    the sampled range, matching profiles with finite endpoint limits.

    Both charts are ``KnotSpline``s on the same breakpoints, which are
    uniform to rounding, and the spline evaluates them itself: a point's
    interval is its scaled distance from the first breakpoint, corrected
    by one comparison each way, where a chart searches for it (several
    times slower on the scattered points of the solver's batches).  The
    cubic is then summed as the charts sum it (``_cubic_sum``), so the
    values are theirs, bit for bit.  Points go in blocks of
    ``_EVAL_BLOCK``, each worked on in place.
    """

    def __init__(self, sample_fn):
        grid = np.geomspace(_PROFILE_XMIN, 0.5, _PROFILE_PER_SIDE)
        breaks = np.log(grid)
        self._left = KnotSpline(breaks, sample_fn(grid))
        self._right = KnotSpline(breaks, sample_fn(1.0 - grid))
        self._breaks = breaks
        self._per_break = (breaks.size - 1) / (breaks[-1] - breaks[0])
        # powers 3..0 of both charts side by side, the right chart's
        # interval i in column i + breaks.size - 1
        self._coef = np.hstack([self._left.c, self._right.c])

    def __call__(self, x):
        finish, x = as_batch(x)
        flat, out = x.ravel(), np.empty(x.size)
        for b0 in range(0, flat.size, _EVAL_BLOCK):
            block = slice(b0, b0 + _EVAL_BLOCK)
            self._evaluate(flat[block], out[block])
        return finish(out.reshape(x.shape))

    def _evaluate(self, x, out) -> None:
        """The spline at the points x, written into out."""
        y = np.maximum(x, _PROFILE_XMIN)
        np.minimum(y, 1.0 - _PROFILE_XMIN, out=y)
        right = y > 0.5
        np.subtract(1.0, y, out=y, where=right)
        np.log(y, out=y)
        breaks = self._breaks
        s = y - breaks[0]
        s *= self._per_break
        with np.errstate(invalid="ignore"):  # NaN in, NaN out
            i = s.astype(np.intp)
        # the scaled distance is within one interval of the point's;
        # below the first breakpoint the first cubic continues
        np.maximum(i, 1, out=i)
        np.minimum(i, breaks.size - 3, out=i)
        # every index is in range, so no take needs its bounds check
        take = partial(np.ndarray.take, mode="clip")
        i -= y < take(breaks, i, out=s)
        i += y >= take(breaks[1:], i, out=s)
        np.subtract(y, take(breaks, i, out=s), out=s)
        np.add(i, breaks.size - 1, out=i, where=right)
        _cubic_sum(self._coef, i, s, out, y)  # y is free


def _euler_integral(x, p: float, b: float, q: float):
    """int_0^1 z^(b-1) (1-z)^(q-1) (x+(1-x)z)^p dz in closed form,
    x^p B(b, q) 2F1(-p, b; b+q; -(1-x)/x) (Euler, DLMF 15.6.1)."""
    return x ** p * beta_fn(b, q) * hyp2f1(-p, b, b + q, -(1.0 - x) / x)


def _rule_products(g, e: float, x, z, wg) -> np.ndarray:
    """sum_j wg_j (1 - x z_j)^e g(x z_j) for every x, on one shared rule
    (z, wg), in chunks of at most ``_CHUNK_NODES`` nodes."""
    step = max(1, _CHUNK_NODES // z.size)
    out = np.empty(x.size)
    for s0 in range(0, x.size, step):
        xz = x[s0:s0 + step, None] * z
        out[s0:s0 + step] = ((1.0 - xz) ** e * g(xz)) @ wg
    return out


def _profile(sample_fn):
    """Cached property: the spline of sample_fn(tables, x), built on first read."""
    return cached_property(lambda self: _EdgeSpline(partial(sample_fn, self)))


@dataclass(frozen=True)
class KernelTables:
    """1D scale profiles of one Hurst pair, each built on first read.

    With x the ratio of the smaller to the larger time argument and
    a = h2 - h1:

    m(x)      K12(1,x) = beta_{h2} x^(1/2-h2) (1-x)^a m(x)
    n(y)      companion integral of the derivative kernel
    psi_d(y)  d_tK12(1,y) = y^(1/2-h2) (1-y)^(a-1) psi_d(y)
    c(x)      k(s,u) = s^(1-2h1) (u-s)^(2a-1) c(s/u),  s < u
    rho(x)    R(t,s) = s^(2-2h1) t^(2h2-2h1) rho(s/t), s <= t

    Each profile is bounded, with finite endpoint limits, and built on
    first read: m, n from closed forms; rho and c by layered quadrature,
    each on one rule with ladders of scale 1e-10 at both ends that all
    its samples share (32 and 24 nodes per panel).  c reads psi_d once
    at its rule's nodes (``_c_rule``); its samples with (1-x)/x above
    1e-10 keep the rule's w < 1/2 half and lay their own w >= 1/2 ladder
    at that scale.  ``k1`` (the solver) reads c; ``R`` (simulation,
    ``mixedfbm kernel``) rho.
    """

    h1: float
    h2: float

    @property
    def a(self) -> float:
        return self.h2 - self.h1

    @cached_property
    def beta2(self) -> float:
        return _beta(self.h2)

    @_profile
    def m(self, x):
        return _euler_integral(x, self.a, self.h2 - 0.5, 1.5 - self.h1)

    @_profile
    def n(self, y):
        return _euler_integral(y, self.a - 1.0, self.h2 + 0.5, 1.5 - self.h1)

    @_profile
    def psi_d(self, y):
        return self.a * self.beta2 * (self.m(y) + (1.0 - y) * self.n(y))

    @cached_property
    def _c_rule(self):
        # the layered rule that every c sample shares, with w psi(z) on it
        z, w = _ladder_rule_one(1.0 - 2.0 * self.h2, self.a - 1.0, _C_NODES,
                                1e-10, 1e-10)
        return z, w * self.psi_d(z)

    def _c_samples(self, x):
        # Phi(x) = int_0^1 w^(1-2h2) (1-w)^(a-1) (1-wx)^(a-1)
        #          psi(w) psi(wx) dw;  c(x) = (1-x)^(1-2a) Phi(x).
        # Layers: psi's Holder kink spreads from w=0 (dyadic ladder) and
        # the (1-wx) factor varies on the scale (1-x)/x near w=1, which
        # clamps to the shared rule's 1e-10 for every x <= 1/2.
        a, psi = self.a, self.psi_d
        z, wpsi = self._c_rule
        zr = np.where(x > 0.5, (1.0 - x) / x, 0.0)
        own = zr > 1e-10
        left = z < 0.5
        phi = np.empty(x.size)
        phi[~own] = _rule_products(psi, a - 1.0, x[~own], z, wpsi)
        phi[own] = (_rule_products(psi, a - 1.0, x[own], z[left], wpsi[left])
                    + self._c_right_ladders(x[own], zr[own]))
        return (1.0 - x) ** (1.0 - 2.0 * a) * phi

    c = _profile(_c_samples)

    def _c_right_ladders(self, x, zr) -> np.ndarray:
        """Phi's integral over w >= 1/2 on a right ladder of scale zr per
        sample, in chunks of at most ``_CHUNK_NODES`` nodes."""
        a, psi = self.a, self.psi_d
        out = np.empty(x.size)
        step = max(1, _CHUNK_NODES // ((_LADDER_STEPS + 1) * _C_NODES))
        for s0 in range(0, x.size, step):
            sl = slice(s0, s0 + step)
            seg, lo, hi, kind = _ladder_panels(np.nan, np.clip(zr[sl], 1e-12, 0.25))
            right = kind >= 2
            seg = seg[right]
            z, w = _panel_rule(1.0 - 2.0 * self.h2, a - 1.0, _C_NODES,
                               lo[right], hi[right], kind[right])
            xi = x[sl][seg, None]
            f = (1.0 - z * xi) ** (a - 1.0) * psi(z) * psi(z * xi)
            out[sl] = np.bincount(seg, weights=(w * f).sum(axis=1),
                                  minlength=x[sl].size)
        return out

    @_profile
    def rho(self, x):
        # rho(x) = beta2^2 int_0^1 y^(1-2h2) (1-y)^a (1-xy)^a m(xy) m(y) dy,
        # on one layered rule for every x
        z, w = _ladder_rule_one(1.0 - 2.0 * self.h2, self.a, 32, 1e-10, 1e-10)
        m = self.m
        return self.beta2 * self.beta2 * _rule_products(m, self.a, x, z, w * m(z))

    def kappa(self, x):
        """K12(1, x) for x in (0,1)."""
        finish, x = as_batch(x)
        return finish(self.beta2 * x ** (0.5 - self.h2) * (1.0 - x) ** self.a
                      * self.m(x))

    def K12(self, t, s):
        finish, t, s = as_batch(t, s)
        return finish(t ** (0.5 + self.h2 - 2.0 * self.h1) * self.kappa(s / t))

    def dK12(self, t, s):
        finish, t, s = as_batch(t, s)
        y = s / t
        prof = y ** (0.5 - self.h2) * (1.0 - y) ** (self.a - 1.0) * self.psi_d(y)
        return finish(t ** (self.h2 - 2.0 * self.h1 - 0.5) * prof)

    def k1(self, s, u):
        """k1(s,u), symmetric, with the diagonal clamp rule."""
        finish, s, u = as_batch(s, u)
        lo, hi = np.minimum(s, u), np.maximum(s, u)
        gap = np.maximum(hi - lo, DIAG_RTOL * hi)
        x = np.minimum(lo / hi, 1.0 - DIAG_RTOL)
        return finish(lo ** (0.5 - self.h1) * hi ** (self.h1 - 0.5)
                      * gap ** (2.0 * self.a - 1.0) * self.c(x))

    def R(self, t, s):
        """Covariance of the transformed second fBm, formed in place."""
        finish, t, s = as_batch(t, s)
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        if (lo < 0.0).any():
            raise DomainError("R is defined for nonnegative times")
        # R = 0 where lo = 0; the floor keeps lo/hi at 0, not NaN, at R(0, 0)
        np.maximum(hi, np.finfo(float).tiny, out=hi)
        prof = self.rho(lo / hi)
        lo **= 2.0 - 2.0 * self.h1
        lo *= np.power(hi, 2.0 * self.h2 - 2.0 * self.h1, out=hi)
        lo *= prof
        return finish(lo)


@lru_cache(maxsize=8)
def get_tables(h1: float, h2: float) -> KernelTables:
    """Profile tables for a Hurst pair, one object per pair per process."""
    return KernelTables(h1, h2)
