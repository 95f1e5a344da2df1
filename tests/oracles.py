"""Scalar reference implementations of the layered quadrature ladders.

Verbatim copies of the one-specification-at-a-time ladders that the
batched engine replaced: ``_layered_01`` (the geometric ladder on (0,1)
behind ``kernels._layered_01``) and ``_cell_moments`` (the five-branch
product-quadrature moments behind ``fredholm._cell_moments``), with
their helpers.  They loop over panels with ``numerics.jacobi_rule``,
independently of the batched panel builder, and are the references the
engine is tested against in ``test_ladder_engine.py``.

The residual audit as it ran before the per-operator audit plan is kept
verbatim below (``_kernel_integrals``, ``_nystrom_extension``,
``_extended_spline``, ``_integrals_at`` and ``_scan_residuals``): it
forms the quadrature rows and evaluates the solution's spline on every
kernel-integral node for each call, and is the reference the planned
audit is tested against in ``test_fredholm.py``.
"""
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from mixedfbm.fredholm import (_EVAL_OFFSETS, _EXT_OFFSETS, DiscretizedOperator,
                               ResidualReport, _chunks, _graded_map,
                               _graded_map_inv, _KnotSpline,
                               _offsets_in_cells, _rhs_values)
from mixedfbm.kernels import KernelTables, _ladder_rule_one
from mixedfbm.numerics import jacobi_rule

_CELL_ORDER = 4     # Gauss nodes per mesh cell
_NQ_PANEL = 12      # nodes per panel inside the moment engine
_MAX_PANELS = 30    # dyadic refinement depth toward a singular point


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
