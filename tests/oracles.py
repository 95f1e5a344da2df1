"""Scalar reference implementations that the shipped code is tested against.

Gauss-Jacobi rules, one panel at a time: ``jacobi_rule`` (one row of
``numerics.jacobi_panels``, from the same memoized base rule), the
adaptive ``singular_integral`` that doubles the node count until two
estimates agree, and the right-sided Riemann-Liouville integral
``frac_integral_right`` built on it.

Verbatim copies of the one-specification-at-a-time ladders that the
batched engine replaced: ``_layered_01`` (the geometric ladder on (0,1)
behind ``kernels._layered_01``) and ``_cell_moments`` (the five-branch
product-quadrature moments behind ``fredholm._cell_moments``), with
their helpers.  They loop over panels with ``jacobi_rule``,
independently of the batched panel builder, and are the references the
engine is tested against in ``test_ladder_engine.py``.

The direct kernel evaluators (``kernel_K12``, ``kernel_K12_dt``,
``kernel_k``, ``kernel_k1``, ``covariance_X2``) compute each kernel
from its defining integral in a variable-changed form with explicit
Jacobi endpoint exponents, on the scalar ladder above with
``_QUAD_N`` nodes per panel; ``k1_l2_norm`` integrates the square of
the tables' k1.  Every rule places its panels at positions proportional
to the arguments, so the evaluators satisfy the kernels' scaling laws to
float roundoff.  They are the references for ``KernelTables`` in
``test_kernels.py`` and for acceptance criteria 1 and 2.

The residual audit as it ran before the per-operator audit plan is kept
verbatim below (``_kernel_integrals``, ``_nystrom_extension``,
``_extended_spline``, ``_integrals_at`` and ``_scan_residuals``): it
forms the quadrature rows and evaluates the solution's spline on every
kernel-integral node for each call, and is the reference the planned
audit is tested against in ``test_fredholm.py``.
"""
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from mixedfbm.errors import AccuracyWarning, DomainError
from mixedfbm.fredholm import (_EVAL_OFFSETS, _EXT_OFFSETS, DiscretizedOperator,
                               ResidualReport, _chunks, _graded_map,
                               _graded_map_inv, _KnotSpline,
                               _offsets_in_cells, _rhs_values)
from mixedfbm.kernels import (DIAG_RTOL, KernelContext, KernelTables,
                              _ladder_rule_one)
from mixedfbm.numerics import _base_rule, gamma_fn

# ----------------------------------------------------------------------
# Gauss-Jacobi rules, one panel at a time
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# layered ladder on (0, 1)
# ----------------------------------------------------------------------

def _ladder_edges(z0: float) -> list:
    """Geometric breakpoints 0, z0, 2 z0, ... capped at 1/2."""
    z0 = min(max(z0, 1e-12), 0.25)
    edges = [0.0, z0]
    while edges[-1] < 0.5:
        edges.append(min(edges[-1] * 2.0, 0.5))
    return edges


def _layered_01(f, p: float, q: float, n: int,
                z_left: float | None = None,
                z_right: float | None = None) -> float:
    """Integrate z^p (1-z)^q f(z) over (0,1) with endpoint-aware panels.

    f must accept numpy arrays and is assumed free of endpoint blow-up of
    its own, but may have boundary layers or Holder kinks near the ends:
    z_left (z_right) declares the scale at 0 (at 1) from which the mesh
    is refined geometrically outward.  None places a single Jacobi panel
    on that half.
    """
    if z_left is None and z_right is None:
        nodes, weights = jacobi_rule(n, p, q, 0.0, 1.0)
        return float(np.dot(weights, f(nodes)))

    total = 0.0
    # left half (0, 1/2]
    if z_left is not None:
        edges = _ladder_edges(z_left)
        x, w = jacobi_rule(n, p, 0.0, edges[0], edges[1])
        total += np.dot(w, (1.0 - x) ** q * f(x))
        for lo, hi in zip(edges[1:-1], edges[2:]):
            x, w = jacobi_rule(n, 0.0, 0.0, lo, hi)
            total += np.dot(w, x ** p * (1.0 - x) ** q * f(x))
    else:
        x, w = jacobi_rule(n, p, 0.0, 0.0, 0.5)
        total += np.dot(w, (1.0 - x) ** q * f(x))

    # right half [1/2, 1), mirrored through z -> 1-z
    if z_right is not None:
        edges = _ladder_edges(z_right)
        x, w = jacobi_rule(n, q, 0.0, edges[0], edges[1])
        z = 1.0 - x
        total += np.dot(w, z ** p * f(z))
        for lo, hi in zip(edges[1:-1], edges[2:]):
            x, w = jacobi_rule(n, 0.0, 0.0, lo, hi)
            z = 1.0 - x
            total += np.dot(w, z ** p * x ** q * f(z))
    else:
        x, w = jacobi_rule(n, 0.0, q, 0.5, 1.0)
        total += np.dot(w, x ** p * f(x))
    return float(total)


# ----------------------------------------------------------------------
# direct kernel evaluators
# ----------------------------------------------------------------------

# nodes per panel of the evaluators' ladders
_QUAD_N = 64


def _check_ts(t: float, s: float, strict: bool = False) -> None:
    if s <= 0.0:
        raise DomainError(f"require s > 0, got s={s}")
    if strict and s >= t:
        raise DomainError(f"require s < t, got t={t}, s={s}")
    if not strict and s > t:
        raise DomainError(f"require s <= t, got t={t}, s={s}")


@lru_cache(maxsize=1 << 18)
def kernel_K12(ctx: KernelContext, t: float, s: float) -> float:
    """Volterra kernel of the transformed second fBm.

    Evaluated in the substituted form on (0,1) with Jacobi exponents
    (h2-3/2) at z=0 and (1/2-h1) at z=1; the remaining factor
    (s+(t-s)z)^(h2-h1) varies on the scale z ~ s/(t-s), which sets the
    panel grading.
    """
    _check_ts(t, s)
    if s == t:
        return 0.0
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    d = t - s
    f = lambda z: (s + d * z) ** a
    val = _layered_01(f, h2 - 1.5, 0.5 - h1, _QUAD_N,
                      z_left=s / d if s < d / 4.0 else None)
    return ctx.constants.beta_h2 * s ** (0.5 - h2) * d ** a * val


@lru_cache(maxsize=1 << 18)
def kernel_K12_dt(ctx: KernelContext, t: float, s: float) -> float:
    """t-derivative of kernel_K12; requires s < t (singular on the diagonal).

    d_tK(t,s) = (h2-h1) [ K(t,s)/(t-s)
                 + beta_{h2} s^(1/2-h2) (t-s)^(h2-h1) J(t,s) ],
    J = int_0^1 (1-z)^(1/2-h1) z^(h2-1/2) (s+(t-s)z)^(h2-h1-1) dz.
    Nonnegative on its domain.
    """
    _check_ts(t, s, strict=True)
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    d = t - s
    f = lambda z: (s + d * z) ** (a - 1.0)
    J = _layered_01(f, h2 - 0.5, 0.5 - h1, _QUAD_N,
                    z_left=s / d if s < d / 4.0 else None)
    k = kernel_K12(ctx, t, s)
    return a * (k / d + ctx.constants.beta_h2 * s ** (0.5 - h2) * d ** a * J)


def _dK12_vals(ctx: KernelContext, t: float, v: np.ndarray) -> np.ndarray:
    return np.array([kernel_K12_dt(ctx, t, float(vi)) for vi in v])


def kernel_k(ctx: KernelContext, s: float, u: float) -> float:
    """k(s,u) = int_0^{min(s,u)} d_sK(s,v) d_uK(u,v) dv, straight from the
    defining integral (the cached fast path lives in KernelTables).

    Symmetric, nonnegative, homogeneous of degree 2h2-4h1; diverges like
    |u-s|^(2(h2-h1)-1) on the diagonal, where the clamp rule applies.
    """
    if s <= 0.0 or u <= 0.0:
        raise DomainError(f"require s, u > 0, got s={s}, u={u}")
    lo, hi = (s, u) if s <= u else (u, s)
    if hi - lo < DIAG_RTOL * hi:
        lo = hi * (1.0 - DIAG_RTOL)
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    n = max(24, _QUAD_N // 2)
    delta = hi - lo
    total = 0.0

    # (0, lo/2): both derivative factors behave like v^(1/2-h2)
    x, w = jacobi_rule(n, 1.0 - 2.0 * h2, 0.0, 0.0, lo / 2.0)
    g = _dK12_vals(ctx, lo, x) * _dK12_vals(ctx, hi, x) * x ** (2.0 * h2 - 1.0)
    total += float(np.dot(w, g))

    # (lo/2, lo): geometric refinement toward v=lo when u sits close
    # (the hi-side factor varies on the scale hi-lo there)
    inner = [lo / 2.0]
    if delta < lo / 4.0:
        width = 2.0 * delta
        while lo - width > lo / 2.0:
            inner.append(lo - width)
            width *= 2.0
        inner = inner[:1] + sorted(inner[1:])
    for lo_e, hi_e in zip(inner[:-1], inner[1:]):
        x, w = jacobi_rule(n, 0.0, 0.0, lo_e, hi_e)
        total += float(np.dot(w, _dK12_vals(ctx, lo, x) * _dK12_vals(ctx, hi, x)))

    # final panel: Jacobi exponent a-1 at v=lo; the lo-side factor times
    # (lo-v)^(1-a) extends continuously to the endpoint
    x, w = jacobi_rule(n, 0.0, a - 1.0, inner[-1], lo)
    g = _dK12_vals(ctx, lo, x) * (lo - x) ** (1.0 - a) * _dK12_vals(ctx, hi, x)
    total += float(np.dot(w, g))
    return total


def kernel_k1(ctx: KernelContext, s: float, u: float) -> float:
    """Solver kernel k1(s,u) = (su)^(h1-1/2) k(s,u); symmetric.

    Near-diagonal calls (|u-s| < 1e-8 max(u,s)) clamp the separation at
    the threshold, consistent with the |u-s|^(2(h2-h1)-1) diagonal
    exponent; the Nystrom assembly never places evaluations there.
    """
    if s <= 0.0 or u <= 0.0:
        raise DomainError(f"require s, u > 0, got s={s}, u={u}")
    return (s * u) ** (ctx.h1 - 0.5) * kernel_k(ctx, s, u)


def covariance_X2(ctx: KernelContext, t: float, s: float) -> float:
    """R(t,s) = int_0^{min} K12(t,v) K12(s,v) dv, the covariance of the
    transformed second fBm, in the graded single-integral product form.
    The weighted double integral over the fBm covariance density is the
    oracle for this routine in the tests.
    """
    if t < 0.0 or s < 0.0:
        raise DomainError(f"require t, s >= 0, got t={t}, s={s}")
    lo, hi = (s, t) if s <= t else (t, s)
    if lo == 0.0:
        return 0.0
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    n = _QUAD_N

    def k12_vals(tt: float, v: np.ndarray) -> np.ndarray:
        return np.array([kernel_K12(ctx, tt, float(vi)) for vi in v])

    # (0, lo/2): Jacobi panel on the innermost scale, then a dyadic
    # ladder; the Holder corrections of the profiles spread from v=0
    total = 0.0
    edges = lo * np.unique(_ladder_edges(1e-9))
    x, w = jacobi_rule(n, 1.0 - 2.0 * h2, 0.0, 0.0, edges[1])
    g = k12_vals(lo, x) * k12_vals(hi, x) * x ** (2.0 * h2 - 1.0)
    total += float(np.dot(w, g))
    for lo_e, hi_e in zip(edges[1:-1], edges[2:]):
        x, w = jacobi_rule(n, 0.0, 0.0, lo_e, hi_e)
        total += float(np.dot(w, k12_vals(lo, x) * k12_vals(hi, x)))

    expo = 2.0 * a if hi == lo else a
    x, w = jacobi_rule(n, 0.0, expo, lo / 2.0, lo)
    g = k12_vals(lo, x) / (lo - x) ** a
    g = g * g if hi == lo else g * k12_vals(hi, x)
    total += float(np.dot(w, g))
    return total


def k1_l2_norm(tables: KernelTables, n: int = 96) -> float:
    """L2(0,1)^2 norm of k1, reduced to a 1D integral of c(x)^2.

    Substituting s = ux in the inner integral gives
    ||k1||^2 = (1/(2a)) int_0^1 x^(1-2h1) (1-x)^(4a-2) c(x)^2 dx,
    finite precisely when a > 1/4 (the solver admissibility gate).
    """
    if 4.0 * tables.a - 2.0 <= -1.0:
        raise DomainError(
            f"k1 is not square integrable for h2-h1={tables.a} <= 1/4")
    val = _layered_01(lambda x: tables.c(x) ** 2,
                      1.0 - 2.0 * tables.h1, 4.0 * tables.a - 2.0, n,
                      z_left=1e-9, z_right=1e-9) / (2.0 * tables.a)
    return float(np.sqrt(val))


# ----------------------------------------------------------------------
# near-field cell moments
# ----------------------------------------------------------------------

_CELL_ORDER = 4     # Gauss nodes per mesh cell
_NQ_PANEL = 12      # nodes per panel inside the moment engine
_MAX_PANELS = 30    # dyadic refinement depth toward a singular point


def _lagrange_basis(cell_nodes: np.ndarray, s) -> np.ndarray:
    """All four Lagrange basis polynomials of a cell, shape (4, len(s))."""
    s = np.asarray(s, float)
    out = np.empty((_CELL_ORDER, s.size))
    for i in range(_CELL_ORDER):
        num = np.ones_like(s)
        den = 1.0
        for k in range(_CELL_ORDER):
            if k == i:
                continue
            num *= s - cell_nodes[k]
            den *= cell_nodes[i] - cell_nodes[k]
        out[i] = num / den
    return out


def _breaks_toward_right(a: float, b: float, k: int) -> list:
    """k dyadic breakpoints refining toward b, returned ascending."""
    w = b - a
    return [b - w * 0.5 ** j for j in range(1, k + 1)]


def _breaks_toward_left(a: float, b: float, k: int) -> list:
    w = b - a
    return [a + w * 0.5 ** j for j in range(k, 0, -1)]


def _cell_moments(tables: KernelTables, u: float, left: float, right: float,
                  cell_nodes: np.ndarray) -> np.ndarray:
    """Moments of the reduced symmetric kernel over one mesh cell.

    Returns the 4-vector of integrals over [left, right] of

        lo^p0 * |u - s|^qd * c(lo/hi) * ell_i(s),   lo = min(s,u), hi = max(s,u)

    against the cell's Lagrange basis ell_i, where p0 = 1 - 2*H1 and
    qd = 2*(H2 - H1) - 1 are both in (-1, 0).  The gap factor is the
    hard part: it peaks at whichever cell edge (or interior point) is
    closest to u, so every branch lays dyadic panels toward that point
    and hands the final panel to a Gauss-Jacobi rule with the exponent
    declared.  The profile c has a mild kink at argument 1, covered by
    the same refinement.
    """
    h1 = tables.h1
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (tables.h2 - h1) - 1.0
    c = tables.c
    mom = np.zeros(_CELL_ORDER)
    width = right - left

    def add(x, wq, fvals):
        nonlocal mom
        mom = mom + fvals @ wq

    if u >= right * (1.0 - 1e-15):
        # gap factor peaks at the right edge
        d = max(u - right, 0.0)
        if d <= width * 2.0 ** -50:
            # u machine-coincident with the edge: declare (u-s)^qd there;
            # the ratio ((u-s)/(right-s))^qd is smooth and O(1)
            br = _breaks_toward_right(left, right, _MAX_PANELS)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue  # subnormal panel width
                if B == right:
                    x, wq = jacobi_rule(_NQ_PANEL, 0.0, qd, A, B)
                    f = x ** p0 * c(x / u) * ((u - x) / (right - x)) ** qd \
                        * _lagrange_basis(cell_nodes, x)
                else:
                    pp = p0 if (left == 0.0 and A == left) else 0.0
                    x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                    f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
                    if pp == 0.0:
                        f = f * x ** p0
                add(x, wq, f)
        else:
            # u beyond the edge: boundary layer of width d, no true
            # singularity; ladder depth follows the layer
            k = min(_MAX_PANELS, max(1, int(np.ceil(np.log2(width / d))) + 3))
            br = _breaks_toward_right(left, right, k)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                pp = p0 if (left == 0.0 and A == left) else 0.0
                x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
                if pp == 0.0:
                    f = f * x ** p0
                add(x, wq, f)
    elif u <= left * (1.0 + 1e-15):
        # mirrored: gap factor peaks at the left edge
        d = max(left - u, 0.0)
        if d <= width * 2.0 ** -50:
            br = _breaks_toward_left(left, right, _MAX_PANELS)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                if A == left:
                    x, wq = jacobi_rule(_NQ_PANEL, qd, 0.0, A, B)
                    f = u ** p0 * c(u / x) * ((x - u) / (x - left)) ** qd \
                        * _lagrange_basis(cell_nodes, x)
                else:
                    x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                    f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
                add(x, wq, f)
        else:
            k = min(_MAX_PANELS, max(1, int(np.ceil(np.log2(width / d))) + 3))
            br = _breaks_toward_left(left, right, k)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
                add(x, wq, f)
    else:
        # u interior to the cell: split there, refine from both sides
        br = _breaks_toward_right(left, u, _MAX_PANELS)
        segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], u)]
        for A, B in segs:
            if B <= A:
                continue
            pp = p0 if (left == 0.0 and A == left) else 0.0
            if B == u:
                x, wq = jacobi_rule(_NQ_PANEL, pp, qd, A, B)
                f = c(x / u) * _lagrange_basis(cell_nodes, x)
            else:
                x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
            if pp == 0.0:
                f = f * x ** p0
            add(x, wq, f)
        br = _breaks_toward_left(u, right, _MAX_PANELS)
        segs = [(u, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
        for A, B in segs:
            if B <= A:
                continue
            if A == u:
                x, wq = jacobi_rule(_NQ_PANEL, qd, 0.0, A, B)
                f = u ** p0 * c(u / x) * _lagrange_basis(cell_nodes, x)
            else:
                x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
            add(x, wq, f)
    return mom


# ----------------------------------------------------------------------
# residual audit, per call
# ----------------------------------------------------------------------

def _kernel_integrals(tables: KernelTables, us: np.ndarray, phi: Callable,
                      nq: int = 24) -> np.ndarray:
    """int_0^1 k_sym(s, u) phi(s) ds at each point u of us, for bounded phi.

    Split at s = u; each piece is an endpoint-singular integral in a
    stretched variable handled by the layered Gauss/Gauss-Jacobi rule.
    Both rules have ladder scale 1e-9 at either end, so their nodes are
    the same for every u: phi is evaluated on blocks of _CHUNK_POINTS
    points times all nodes.
    """
    h1, h2 = tables.h1, tables.h2
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (h2 - h1) - 1.0
    c = tables.c
    zl, wl = _ladder_rule_one(p0, qd, nq, 1e-9, 1e-9)
    zr, wr = _ladder_rule_one(qd, 0.0, nq, 1e-9, 1e-9)
    c_left = c(zl)
    out = np.empty(us.size)
    for sl in _chunks(us.size):
        u = us[sl, None]
        s = u + (1.0 - u) * zr
        left = (c_left * phi(u * zl)) @ wl
        right = (c(u / s) * phi(s)) @ wr
        u = us[sl]
        out[sl] = u ** (2.0 + qd - 2.0 * h1) * left + np.where(
            u < 1.0, u ** p0 * (1.0 - u) ** (qd + 1.0) * right, 0.0)
    return out


def _nystrom_extension(op: DiscretizedOperator, lam: float, T: float,
                       h_hat: np.ndarray, us: np.ndarray) -> np.ndarray:
    """h_hat(u) = rhs(u) - lam * row(u) . h_hat at each point u of us."""
    applied = np.empty(us.size)
    for sl in _chunks(us.size):
        applied[sl] = op._rows(us[sl]) @ h_hat
    return _rhs_values(us, T, op.h1) - lam * applied


def _extended_spline(op: DiscretizedOperator, lam: float, T: float,
                     h_hat: np.ndarray) -> _KnotSpline:
    """Spline through nodal and freshly extended samples of the solution.

    Works in the bounded variable phi(u) = h_hat(u) * u^(H1 - 1/2) and
    in the mesh pre-image coordinate, where the endpoint behavior of
    the solution is mildest.
    """
    grid = op.grid
    g = grid.grading_exponent
    extra_x = _offsets_in_cells(grid, _EXT_OFFSETS)
    extra_u = _graded_map(extra_x, g)
    ext = _nystrom_extension(op, lam, T, h_hat, extra_u)
    hpow = op.h1 - 0.5
    xs = np.concatenate([grid.x_nodes, extra_x])
    vals = np.concatenate([h_hat * grid.nodes ** hpow, ext * extra_u ** hpow])
    order = np.argsort(xs)
    return _KnotSpline(xs[order], vals[order])


def _integrals_at(op: DiscretizedOperator, us: np.ndarray,
                  spline: CubicSpline) -> np.ndarray:
    """int_0^1 k1(s, u) * h_rec(s) ds at each point u of us, for the
    reconstructed solution."""
    g = op.grid.grading_exponent
    phi = lambda s: spline(_graded_map_inv(np.asarray(s, float), g))
    return us ** (op.h1 - 0.5) * _kernel_integrals(op.tables, us, phi)


def _scan_residuals(op: DiscretizedOperator, lam: float, T: float,
                    h_hat: np.ndarray, rhs: np.ndarray,
                    spline: CubicSpline) -> ResidualReport:
    grid = op.grid
    g = grid.grading_exponent
    h1 = op.h1
    ev_x = _offsets_in_cells(grid, _EVAL_OFFSETS)
    ev_u = _graded_map(ev_x, g)
    rhs_u = _rhs_values(ev_u, T, h1)
    integral = lam * _integrals_at(op, ev_u, spline)
    rec_val = spline(ev_x) * ev_u ** (0.5 - h1)
    rec = np.abs(rec_val + integral - rhs_u) / rhs_u
    nys_val = _nystrom_extension(op, lam, T, h_hat, ev_u)
    ext = np.abs(nys_val + integral - rhs_u) / rhs_u
    on = np.abs(h_hat + lam * _integrals_at(op, grid.nodes, spline) - rhs) / rhs
    worst = int(np.argmax(rec))
    return ResidualReport(reconstruction_sup=float(rec[worst]),
                          on_grid_sup=float(np.max(on)),
                          extension_sup=float(np.max(ext)),
                          worst_u=float(ev_u[worst]))
