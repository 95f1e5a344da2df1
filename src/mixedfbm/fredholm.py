"""Nystrom solver for the rescaled second-kind equation on the unit interval.

The scale-reduced equation reads

    (u*T)^(1/2 - H1) = h_hat(u) + lam * int_0^1 h_hat(s) k1(s, u) ds,

with coupling lam = T^(2*H2 - 2*H1) / (sigma^2 * gamma_H1^2).  Its
solution ``h_hat`` is the rescaled optimal filter; unscaling returns the
filter h_T on (0, T], and a weighted integral of ``h_hat`` yields the
information <N>(T) of the drift estimator.

k1 carries an integrable diagonal singularity |u - s|^(2a - 1) with
a = H2 - H1 < 1/2, together with endpoint weight factors, so plain
Nystrom on a smooth rule stalls near 1e-2 relative accuracy.  The
discretization used here combines

* a doubly graded composite Gauss mesh (nodes clustered at 0 and 1), and
* product quadrature for the mesh cells adjacent to the collocation
  point and to the left endpoint: the singular factors are integrated
  exactly against the local Lagrange basis, so the matrix row stays
  accurate across the diagonal.

Rows are computed in batches: for a chunk of points, the product
quadrature panels of all their near cells are laid out at once on the
geometric ladders of ``kernels._ladder_panels``, the integrand is
evaluated once on the flat node array and the moments are summed per
cell (``_cell_moments``).  The solve itself is a single
dense LU per horizon.

The off-grid residual audit depends on the horizon only through the
solution vector, so all else it needs is built once per operator and
kept on it.  The first solve builds it (``DiscretizedOperator.audit_plan``,
11.25 n^2 floats): the quadrature rows at the extension samples, and the
kernel integrals of the solution's ``KnotSpline`` at the probes as a
linear map of its knot values and knot second derivatives
(``_spline_map``).  Each horizon's audit, and each ``residual_report``,
is then a few matrix-vector products and one evaluation of the spline.

What an estimate reads of a solution is a ``SolutionRecord``; a
``FredholmSolution`` is one, with the solve's diagnostics added, and the
``solve`` sidecar is its record fields written out and read back.  The
record owns the filter h_T (``filter``), built from the spline on first
read, and keeps its values at the midpoints of the last path grid an
estimate read (``midpoint_filter``, set by ``estimator.mle``), so
estimates from many paths on one grid evaluate the spline once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AccuracyError, AccuracyWarning, DomainError, IllConditionedError
from .kernels import (KernelContext, KernelTables, get_tables,
                      _ladder_panels, _ladder_rule_one)
from .model import (DerivedConstants, HurstPair, ModelParams, _shown,
                    check_int, check_real, derive_constants)
from .numerics import KnotSpline, as_batch, jacobi_panels, solve_dense

__all__ = [
    "QuadratureGrid",
    "DiscretizedOperator",
    "FredholmSolution",
    "SolutionRecord",
    "ResidualReport",
    "build_grid",
    "assemble",
    "solve_second_kind",
    "residual_report",
    "filter_interpolant",
]

_CELL_ORDER = 4     # Gauss nodes per mesh cell
_NQ_PANEL = 12      # nodes per panel inside the moment engine
_NQ_KERNEL = 24     # nodes per ladder rule of the audit's kernel integrals
_MAX_PANELS = 30    # dyadic refinement depth toward a singular point
_NEAR_RADIUS = 2    # cells on each side of a point given product quadrature
_GRADING = 2.0      # mesh grading exponent: node spacing O(1/n^2) at 0 and 1
# near-field ladders of scales 2^-d, d = 1.._MAX_PANELS: index d-1, y0, y1
_LADDER, _LADDER_Y0, _LADDER_Y1, _ = _ladder_panels(
    0.5 ** np.arange(1, _MAX_PANELS + 1), np.nan)
# points per chunk of batched rows and kernel integrals: about 16k
# near-field nodes, so each of their temporary arrays stays near 128 kB,
# and 16 x 2,880 = 46,080 kernel-integral rule nodes, about 368 kB per
# temporary; the process peak then stays within 1 MB of the per-point
# loops at n = 128
_CHUNK_POINTS = 16
# residual scan: 3 fresh samples per cell extend the solution, 12 probe
# points per cell (= 3n total) evaluate the continuous equation
_EXT_OFFSETS = (0.17, 0.52, 0.86)
_EVAL_OFFSETS = (0.06, 0.135, 0.22, 0.30, 0.38, 0.46,
                 0.56, 0.64, 0.72, 0.80, 0.90, 0.965)


# ----------------------------------------------------------------------
# graded mesh
# ----------------------------------------------------------------------

def _graded_map(x):
    """Symmetric endpoint-clustering map x -> x^g / (x^g + (1-x)^g),
    g = _GRADING."""
    x = np.asarray(x, float)
    xg = x ** _GRADING
    return xg / (xg + (1.0 - x) ** _GRADING)


def _graded_map_deriv(x):
    x = np.asarray(x, float)
    g = _GRADING
    num = g * x ** (g - 1.0) * (1.0 - x) ** (g - 1.0)
    return num / (x ** g + (1.0 - x) ** g) ** 2


def _graded_map_inv(u):
    u = np.asarray(u, float)
    r = ((1.0 - u) / u) ** (1.0 / _GRADING)
    return 1.0 / (1.0 + r)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss mesh on (0,1), graded toward both endpoints.

    The mesh has ``n // 4`` cells, uniform in the pre-image coordinate
    ``x``; each cell carries a 4-point Gauss rule mapped through the
    grading map (exponent ``_GRADING``).  Weights are normalized to sum
    to one exactly.

    Fields
    ------
    n : int
        Total number of nodes.
    nodes, weights : arrays of shape (n,)
        Strictly increasing nodes in (0,1) and positive weights.
    cell_edges : array of shape (n//4 + 1,)
        Images of the uniform cell boundaries; first/last pinned to 0/1.
    x_nodes : array of shape (n,)
        Pre-image coordinates of the nodes; kept because splines of the
        solution are better behaved in this variable.
    """

    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    cell_edges: np.ndarray = field(repr=False)
    x_nodes: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cell_edges) - 1


def build_grid(n: int) -> QuadratureGrid:
    """Build the graded composite quadrature mesh.

    Parameters
    ----------
    n : int
        Number of nodes; must be a multiple of 4 and at least 8.

    Returns
    -------
    QuadratureGrid

    Raises
    ------
    DomainError
        If ``n`` is out of range.
    """
    n = check_int("grid size n", n, minimum=8)
    if n % _CELL_ORDER != 0:
        raise DomainError(f"grid size must be a multiple of {_CELL_ORDER}, "
                          f"got {_shown(n)}")

    m = n // _CELL_ORDER
    xe = np.linspace(0.0, 1.0, m + 1)
    xn, xw = jacobi_panels(_CELL_ORDER, xe[:-1], xe[1:], np.zeros(m), np.zeros(m))
    x_nodes = xn.ravel()
    nodes = _graded_map(x_nodes)
    weights = xw.ravel() * _graded_map_deriv(x_nodes)
    weights = weights / weights.sum()
    edges = _graded_map(xe)
    edges[0], edges[-1] = 0.0, 1.0
    return QuadratureGrid(n=n, nodes=nodes, weights=weights,
                          cell_edges=edges, x_nodes=x_nodes)


# ----------------------------------------------------------------------
# product-quadrature moment engine
# ----------------------------------------------------------------------

def _lagrange_basis(cell_nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """All four Lagrange basis polynomials at s, shape (4,) + s.shape.

    cell_nodes has shape (4,), or (4, ...) broadcasting against s for
    one cell per point.
    """
    # each difference s - node is formed once and serves three products
    diff = [s - cell_nodes[k] for k in range(_CELL_ORDER)]
    out = np.empty((_CELL_ORDER,) + s.shape)
    for i in range(_CELL_ORDER):
        k0, k1, k2 = (k for k in range(_CELL_ORDER) if k != i)
        den = 1.0
        for k in (k0, k1, k2):
            den *= cell_nodes[i] - cell_nodes[k]
        np.multiply(diff[k0], diff[k1], out=out[i])
        out[i] *= diff[k2]
        out[i] /= den
    return out


def _cell_moments(tables: KernelTables, u, left, right,
                  cell_nodes) -> np.ndarray:
    """Moments of the reduced symmetric kernel over mesh cells, batched.

    For each k, row k of the result holds the integrals over
    [left[k], right[k]] of

        lo^p0 * |u - s|^qd * c(lo/hi) * ell_i(s),   lo = min(s,u), hi = max(s,u)

    against the Lagrange basis ell_i of the cell nodes cell_nodes[k]
    (shape (K, 4)), with u = u[k], p0 = 1 - 2*H1 and qd = 2*(H2 - H1) - 1
    both in (-1, 0).  The gap factor is the hard part: it peaks at the
    point of the cell closest to u.  Each piece (the cell, or its two
    parts split at an interior u) gets one ladder of the kernels' layout
    (``_ladder_panels``) toward that point, with scale 2^-depth.  When u
    is machine-coincident with that end (always for u inside), the panel
    there carries the exponent qd in its Gauss-Jacobi weight and depth
    is _MAX_PANELS; otherwise u lies a distance d off the cell and the
    depth follows log2(width / d).  In the first cell (left == 0) the
    panel at the origin carries p0 the same way.  The profile c has a
    mild kink at argument 1, covered by the same refinement.  The
    integrand is evaluated once on all panels of the batch and summed
    per cell.
    """
    u, left, right = (np.asarray(v, float) for v in (u, left, right))
    h1 = tables.h1
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (tables.h2 - h1) - 1.0
    width = right - left
    at_right = u >= right * (1.0 - 1e-15)
    at_left = ~at_right & (u <= left * (1.0 + 1e-15))
    inside = ~at_right & ~at_left
    d = np.maximum(np.where(at_right, u - right, left - u), 0.0)
    declared = inside | (d <= width * 2.0 ** -50)
    with np.errstate(divide="ignore"):
        layer = np.ceil(np.log2(width / d)) + 3.0
    depth = np.where(declared, _MAX_PANELS, np.clip(layer, 1, _MAX_PANELS))
    # pieces from the end nearest u (target) to the far end; right parts last
    two = np.flatnonzero(inside)
    moment = np.concatenate([np.arange(u.size), two])
    target = np.concatenate([np.where(at_left, left, np.where(inside, u, right)),
                             u[two]])
    far = np.concatenate([np.where(at_left, right, left), right[two]])

    # each piece takes the ladder of its depth, reversed toward its upper
    # end (tb) so that s ascends; y maps to target + (far - target) y
    lad = depth[moment].astype(int) - 1
    start, count = np.searchsorted(_LADDER, lad), np.bincount(_LADDER)[lad]
    piece = np.repeat(np.arange(lad.size), count)
    j = np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count)
    tb = (target > far)[piece]
    i = start[piece] + np.where(tb, count[piece] - 1 - j, j)
    y0, y1 = _LADDER_Y0[i], _LADDER_Y1[i]
    target, far = target[piece], far[piece]
    s0 = target + (far - target) * y0
    s1 = np.where(y1 == 1.0, far, target + (far - target) * y1)
    lo, hi = np.minimum(s0, s1), np.maximum(s0, s1)
    keep = hi > lo  # panels of subnormal width vanish on the piece
    piece, tb, target, lo, hi = (v[keep] for v in (piece, tb, target, lo, hi))
    k = moment[piece]
    singular = declared[k] & np.where(tb, hi == target, lo == target)
    origin = tb & (lo == 0.0)  # s^p0 goes into the weight at s = 0
    x, wq = jacobi_panels(_NQ_PANEL, lo, hi,
                          np.where(singular & ~tb, qd, np.where(origin, p0, 0.0)),
                          np.where(singular & tb, qd, 0.0))

    uk = u[k][:, None]
    # a declared panel holds |target - s|^qd in its weight, which leaves
    # the ratio |u - s| / |target - s| to the integrand, or nothing at all
    # when u is the target
    at_u = singular & (target == u[k])
    gap = np.where(at_u[:, None], 1.0, np.abs(uk - x)) / np.where(
        (singular & ~at_u)[:, None], np.abs(target[:, None] - x), 1.0)
    s_lo, s_hi = np.minimum(x, uk), np.maximum(x, uk)
    f = (wq * np.where(origin[:, None], 1.0, s_lo ** p0) * gap ** qd
         * tables.c(s_lo / s_hi))
    ell = _lagrange_basis(np.asarray(cell_nodes, float)[k].T[:, :, None], x)
    per_panel = (f * ell).sum(axis=-1)
    return np.stack([np.bincount(k, weights=m, minlength=u.size)
                     for m in per_panel], axis=1)


def _apply_near_field(tables: KernelTables, grid: QuadratureGrid,
                      us: np.ndarray, rows: np.ndarray) -> None:
    """Overwrite the near-diagonal cells of plain Nystrom rows in place.

    Row i belongs to the point us[i].  Uses k1(s,u) =
    (s*u)^(H1-1/2) * k_sym(s,u): the cell moments of the symmetric
    reduced kernel against the Lagrange basis give quadrature weights
    exact for the singular factors.  The cells within ``_NEAR_RADIUS`` of
    each point, and the first cell, go to one ``_cell_moments`` batch.
    """
    hpow = tables.h1 - 0.5
    nc = grid.n_cells
    c0 = np.clip(np.searchsorted(grid.cell_edges, us, side="right") - 1,
                 0, nc - 1)
    # the window of near cells, plus cell 0 when the window misses it: the
    # left-endpoint weight s^(1-2*H1) always needs declared rules
    window = np.arange(-_NEAR_RADIUS, _NEAR_RADIUS + 1)
    cells = np.hstack([c0[:, None] + window, np.zeros((us.size, 1), int)])
    near = (cells >= 0) & (cells < nc)
    near[:, -1] = c0 > _NEAR_RADIUS
    r, k = np.nonzero(near)
    cell = cells[r, k]
    cols = _CELL_ORDER * cell[:, None] + np.arange(_CELL_ORDER)
    sn = grid.nodes[cols]
    mom = _cell_moments(tables, us[r], grid.cell_edges[cell],
                        grid.cell_edges[cell + 1], sn)
    rows[r[:, None], cols] = (us[r] ** hpow)[:, None] * mom * sn ** hpow


def _quadrature_rows(tables: KernelTables, grid: QuadratureGrid,
                     us: np.ndarray) -> np.ndarray:
    """Quadrature rows at the points us, shape (len(us), n).

    Far from the diagonal weights[j] * k1(nodes[j], u); the near cells
    carry product-quadrature weights.  The rows are formed in chunks of
    at most _CHUNK_POINTS points, which bounds the near-field
    temporaries.
    """
    rows = np.empty((us.size, grid.n))
    for sl in _chunks(us.size):
        rows[sl] = grid.weights * tables.k1(grid.nodes[None, :], us[sl, None])
        _apply_near_field(tables, grid, us[sl], rows[sl])
    return rows


def _chunks(m: int):
    """Slices of at most _CHUNK_POINTS covering range(m)."""
    return [slice(i, i + _CHUNK_POINTS) for i in range(0, m, _CHUNK_POINTS)]


# ----------------------------------------------------------------------
# discretized operator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiscretizedOperator:
    """Collocation matrix for f |-> int_0^1 k1(s, .) f(s) ds.

    ``matrix[i, j]`` multiplies the nodal value f(nodes[j]) in the
    quadrature of the integral at collocation point nodes[i].  Far from
    the diagonal this is weights[j] * k1(nodes[j], nodes[i]); cells
    within ``_NEAR_RADIUS`` of the collocation point (and the first cell)
    carry product-quadrature weights instead.
    """

    matrix: np.ndarray = field(repr=False)
    grid: QuadratureGrid
    tables: KernelTables = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def audit_plan(self) -> "_AuditPlan":
        """The horizon-independent part of every solve's residual scan.

        Built on first use (the first solve) and kept with the operator;
        see ``_build_audit_plan``.
        """
        return _build_audit_plan(self.tables, self.grid)


def assemble(ctx: KernelContext, grid: QuadratureGrid) -> DiscretizedOperator:
    """Assemble the collocation matrix on a grid.

    Parameters
    ----------
    ctx : KernelContext
        Kernel context; the Hurst pair must satisfy H2 - H1 > 1/4.
    grid : QuadratureGrid

    Returns
    -------
    DiscretizedOperator
    """
    hurst = ctx.constants.hurst
    hurst.require_solver_admissible()
    tables = get_tables(hurst.h1, hurst.h2)
    matrix = _quadrature_rows(tables, grid, grid.nodes)
    if not np.all(np.isfinite(matrix)):
        raise AccuracyError("assembled operator contains non-finite entries")
    return DiscretizedOperator(matrix=matrix, grid=grid, tables=tables)


# ----------------------------------------------------------------------
# second-kind solve
# ----------------------------------------------------------------------

class ResidualReport(NamedTuple):
    """Residual diagnostics of a solution.

    reconstruction_sup: relative residual of the continuous equation
    with the solution reconstructed from nodal plus freshly extended
    samples (a spline in grid coordinates), evaluated at 3n off-grid
    points.  Sensitive to solve errors: a wrong nodal vector cannot
    satisfy the continuous equation.

    worst_u: the probe point where reconstruction_sup is attained.
    """

    reconstruction_sup: float
    worst_u: float


def _rhs_values(u, T: float, h1: float):
    return (np.asarray(u, float) * T) ** (0.5 - h1)


def _kernel_rules(tables: KernelTables, us: np.ndarray):
    """Quadrature rules for int_0^1 k_sym(s, u) phi(s) ds at the points us.

    Yields (sl, s, w) for each chunk sl of at most _CHUNK_POINTS points:
    nodes s and weights w of shape (len(us[sl]), nodes), so that the
    integral at us[sl][k] is sum_j w[k, j] * phi(s[k, j]) for bounded
    phi.  The integral is split at s = u; each piece is an
    endpoint-singular integral in a stretched variable handled by the
    layered Gauss/Gauss-Jacobi rule.  Both rules have ladder scale 1e-9
    at either end, so their nodes are the same for every u.  Each row
    of s is ascending.
    """
    h1, h2 = tables.h1, tables.h2
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (h2 - h1) - 1.0
    zl, wl = _ladder_rule_one(p0, qd, _NQ_KERNEL, 1e-9, 1e-9)
    zr, wr = _ladder_rule_one(qd, 0.0, _NQ_KERNEL, 1e-9, 1e-9)
    # ascending nodes make each row of s ascending
    il, ir = np.argsort(zl), np.argsort(zr)
    zl, wl, zr, wr = zl[il], wl[il], zr[ir], wr[ir]
    w_left = tables.c(zl) * wl
    for sl in _chunks(us.size):
        u = us[sl, None]
        s = u + (1.0 - u) * zr
        right = np.where(u < 1.0, u ** p0 * (1.0 - u) ** (qd + 1.0), 0.0)
        yield sl, np.hstack([u * zl, s]), np.hstack(
            [u ** (2.0 + qd - 2.0 * h1) * w_left, right * tables.c(u / s) * wr])


def _offsets_in_cells(grid: QuadratureGrid, offsets) -> np.ndarray:
    xe = np.linspace(0.0, 1.0, grid.n_cells + 1)
    pat = np.asarray(offsets, float)
    return (xe[:-1, None] + (xe[1:] - xe[:-1])[:, None] * pat).ravel()


def _spline_map(knots: np.ndarray, x: np.ndarray,
                w: np.ndarray) -> np.ndarray:
    """sum_j w[r, j] * S(x[r, j]) for each row r, as a linear map.

    S is a cubic spline with knots ``knots``, values y and second
    derivatives M there.  On the knot interval [k_i, k_(i+1)] of width
    h, with t = (x - k_i) / h,

        S(x) = (1-t) y_i + t y_(i+1)
               + h^2/6 ((-t^3 + 3t^2 - 2t) M_i + (t^3 - t) M_(i+1)),

    which continues the end pieces beyond the knots, as KnotSpline
    does.  Returns shape (rows, 2m): columns :m act on y, columns m: on
    M.  Each row of x must be ascending, so that the entries falling in
    one interval are contiguous: the power sums sum w t^k, k = 0..3, of
    every interval come from one ``np.add.reduceat``, and no rows x
    entries x knots array is formed.
    """
    rows, cols = x.shape
    m = knots.size
    starts = np.zeros((rows, m - 1), int)
    for r in range(rows):
        starts[r, 1:] = np.searchsorted(x[r], knots[1:-1])
    counts = np.diff(starts, axis=1, append=cols).ravel()
    starts = (starts + cols * np.arange(rows)[:, None]).ravel()
    h = np.diff(knots)
    t = x.ravel() - np.repeat(np.tile(knots[:-1], rows), counts)
    t *= np.repeat(np.tile(1.0 / h, rows), counts)
    # w t^k for k = 0..3 in turn, in one buffer (so the working set stays
    # in cache) whose zero entry closes the last interval; reduceat
    # returns an entry, not 0, for an empty interval
    term = np.append(w.ravel(), 0.0)
    sums = []
    for k in range(4):
        if k:
            term[:-1] *= t
        sums.append(np.add.reduceat(term, starts) * (counts > 0))
    s0, s1, s2, s3 = (v.reshape(rows, m - 1) for v in sums)
    c = h * h / 6.0
    out = np.zeros((rows, 2, m))
    out[:, 0, :-1] = s0 - s1
    out[:, 0, 1:] += s1
    out[:, 1, :-1] = c * (3.0 * s2 - 2.0 * s1 - s3)
    out[:, 1, 1:] += c * (s3 - s1)
    return out.reshape(rows, 2 * m)


class _AuditPlan(NamedTuple):
    """The horizon-independent part of the residual scan of every solve.

    ext_u, ext_rows: the points between nodes (3 per cell) at which the
    solve extends the solution, and their quadrature rows.
    knots, order: the extended spline's knots in the mesh pre-image
    coordinate, sorted, and the permutation that sorts the nodal values
    followed by the extension values into knot order.
    probe_x, probe_u: the 3n off-grid probe points, as pre-images and as
    points of (0, 1).
    probe_integrals: int_0^1 k1(s, u) h_rec(s) ds at the probes, for the
    reconstruction h_rec of a spline with these knots, as a linear map
    of its knot values and knot second derivatives (see ``_spline_map``).
    """

    ext_u: np.ndarray
    ext_rows: np.ndarray
    knots: np.ndarray
    order: np.ndarray
    probe_x: np.ndarray
    probe_u: np.ndarray
    probe_integrals: np.ndarray


def _spline_integrals(tables: KernelTables, knots: np.ndarray,
                      us: np.ndarray) -> np.ndarray:
    """int_0^1 k1(s, u) h_rec(s) ds at the points us, as a linear map of
    the knot values and knot second derivatives of h_rec's spline."""
    # = u^(H1 - 1/2) int k_sym(s, u) phi(s) ds, and the spline holds
    # phi(s) = h_rec(s) s^(H1 - 1/2) at the mesh pre-image of s
    integrals = np.empty((us.size, 2 * knots.size))
    for sl, s, w in _kernel_rules(tables, us):
        integrals[sl] = _spline_map(knots, _graded_map_inv(s), w)
    integrals *= us[:, None] ** (tables.h1 - 0.5)
    return integrals


def _build_audit_plan(tables: KernelTables,
                      grid: QuadratureGrid) -> _AuditPlan:
    """Rows and kernel-integral map of every solve's residual scan: 0.75 n
    rows of n and 3 n maps of 2m = 3.5 n floats, 11.25 n^2 floats."""
    ext_x = _offsets_in_cells(grid, _EXT_OFFSETS)
    ext_u = _graded_map(ext_x)
    xs = np.concatenate([grid.x_nodes, ext_x])
    order = np.argsort(xs)
    knots = xs[order]
    probe_x = _offsets_in_cells(grid, _EVAL_OFFSETS)
    probe_u = _graded_map(probe_x)
    return _AuditPlan(
        ext_u=ext_u,
        ext_rows=_quadrature_rows(tables, grid, ext_u),
        knots=knots, order=order, probe_x=probe_x, probe_u=probe_u,
        probe_integrals=_spline_integrals(tables, knots, probe_u))


def _extended_spline(op: DiscretizedOperator, lam: float, T: float,
                     h_hat: np.ndarray) -> KnotSpline:
    """Spline through nodal and freshly extended samples of the solution.

    Works in the bounded variable phi(u) = h_hat(u) * u^(H1 - 1/2) and
    in the mesh pre-image coordinate, where the endpoint behavior of
    the solution is mildest.  The fresh samples come from the Nystrom
    extension at the plan's points ``ext_u``.
    """
    plan, h1 = op.audit_plan, op.tables.h1
    ext = _rhs_values(plan.ext_u, T, h1) - lam * (plan.ext_rows @ h_hat)
    hpow = h1 - 0.5
    vals = np.concatenate([h_hat * op.grid.nodes ** hpow,
                           ext * plan.ext_u ** hpow])
    return KnotSpline(plan.knots, vals[plan.order])


def _scan_residuals(op: DiscretizedOperator, lam: float, T: float,
                    spline: KnotSpline) -> ResidualReport:
    """The residual scan of the spline on the operator's audit plan."""
    plan, h1 = op.audit_plan, op.tables.h1
    knot_data = np.concatenate([spline.y, spline.second_derivatives()])
    rhs_u = _rhs_values(plan.probe_u, T, h1)
    integral = lam * (plan.probe_integrals @ knot_data)
    rec_val = spline(plan.probe_x) * plan.probe_u ** (0.5 - h1)
    rec = np.abs(rec_val + integral - rhs_u) / rhs_u
    worst = int(np.argmax(rec))
    return ResidualReport(reconstruction_sup=float(rec[worst]),
                          worst_u=float(plan.probe_u[worst]))


def solve_second_kind(op: DiscretizedOperator, T: float,
                      constants: DerivedConstants,
                      residual_tol: float = 1e-5) -> FredholmSolution:
    """Solve the rescaled equation at horizon T and audit the residual.

    Parameters
    ----------
    op : DiscretizedOperator
    T : float
        Horizon; enters through the right-hand side and the coupling
        lam = T^(2*H2-2*H1) / (sigma^2 * gamma^2).
    constants : DerivedConstants
        Must be derived for the operator's Hurst pair.
    residual_tol : float, optional
        The solution is flagged with an AccuracyWarning when the scanned
        residual exceeds this.

    Returns
    -------
    FredholmSolution

    Raises
    ------
    DomainError
        Horizon nonpositive or constants from a different Hurst pair.
    IllConditionedError
        The coupling sits against a spectral point of the discretized
        operator: the condition estimate, smooth in the coupling, exceeds
        1e7 (above 1e6 the solve warns).  At n=64 it reads 2.7e6 at 3e-6
        off the top eigenvalue and 4.5e7 on it; physical couplings stay
        near 3e3.
    """
    T = check_real("T", T, positive=True)
    if not constants.same_model(op.tables):
        pair, tab = constants.hurst, op.tables
        raise DomainError(
            f"constants are for ({pair.h1}, {pair.h2}) but the operator "
            f"was assembled at ({tab.h1}, {tab.h2})")
    lam = float(constants.lambda_of_T(T))
    rhs = _rhs_values(op.grid.nodes, T, op.tables.h1)
    system = np.eye(op.n) + lam * op.matrix
    try:
        h_hat, cond = solve_dense(system, rhs)
        if cond > 1e7:
            raise IllConditionedError(f"condition estimate {cond:.3e} exceeds 1e7")
    except IllConditionedError as exc:
        raise IllConditionedError(
            f"second-kind system is numerically singular at T={T}: the "
            f"coupling {lam:.6g} sits against a spectral point of the "
            f"discretized operator ({exc}); perturb the horizon") from exc
    if cond > 1e6:
        warnings.warn(
            f"condition estimate {cond:.3e} at T={T}: the coupling is "
            "approaching a spectral point of the discretized operator",
            AccuracyWarning, stacklevel=2)
    spline = _extended_spline(op, lam, T, h_hat)
    report = _scan_residuals(op, lam, T, spline)
    if report.reconstruction_sup > residual_tol:
        warnings.warn(
            f"scanned residual {report.reconstruction_sup:.3e} exceeds "
            f"tolerance {residual_tol:.1e} at T={T}, n={op.n}; the "
            "solution is returned but should not be trusted at this "
            "tolerance", AccuracyWarning, stacklevel=2)
    qv = _quadratic_variation(op.grid, h_hat, T, constants)
    return FredholmSolution(
        constants=constants, horizon_T=T, spline=spline, qv_N=qv, h_hat=h_hat,
        residual_sup=report.reconstruction_sup, condition=float(cond),
        operator=op, worst_u=report.worst_u)


def residual_report(sol: FredholmSolution) -> ResidualReport:
    """Rerun the residual scan of the solve from the nodal solution.

    Rebuilds the extended spline and scans it on the operator's audit
    plan, as the solve did, so ``reconstruction_sup`` equals
    ``sol.residual_sup`` and ``worst_u`` equals ``sol.worst_u`` exactly.
    Forms no quadrature rows and no kernel integrals.
    """
    op, T = sol.operator, sol.horizon_T
    return _scan_residuals(op, sol.lam, T,
                           _extended_spline(op, sol.lam, T, sol.h_hat))


# ----------------------------------------------------------------------
# the filter and the information functional
# ----------------------------------------------------------------------

def _on_horizon(T: float, values: Callable) -> Callable:
    """Filter h_T on (0, T] given as values(t, u) with u = t/T.

    Accepts a scalar or array t (scalar in, scalar out); raises
    DomainError outside (0, T].
    """
    def h_T(t):
        finish, arr = as_batch(t)
        if (arr <= 0.0).any() or (arr > T).any():
            raise DomainError(f"filter argument must lie in (0, {T}]")
        # the minimum guards roundoff of the division, not out-of-range input
        return finish(values(arr, np.minimum(arr / T, 1.0)))

    return h_T


def filter_interpolant(sol: SolutionRecord) -> Callable:
    """Spline-backed filter h_T on (0, T] of a solution or a record read
    back: the record's own ``filter``, the same object on every call.  It
    agrees with the Nystrom extension to spline interpolation error, far
    below the solver residual, at microseconds per point."""
    return sol.filter


_KNOT_RULE = ("filter knots need finite number lists x and y of one "
              "length, at least 4, x increasing")


@dataclass(frozen=True)
class SolutionRecord:
    """What an estimate reads of one solve, and the ``solve`` sidecar:
    the model's ``constants``, ``horizon_T``, the solution's ``spline``,
    a ``KnotSpline`` on the mesh pre-image (its knots give the filter
    h_T, ``filter``, built on first read) and the information ``qv_N``.
    DomainError for a horizon or ``qv_N`` that is not a positive finite
    number.  ``midpoint_filter`` holds the filter's values at the fine
    and coarse midpoints of the last path grid ``estimator.mle`` read,
    as (grid bytes, read-only values).
    """

    constants: DerivedConstants
    horizon_T: float
    spline: KnotSpline = field(repr=False)
    qv_N: float
    midpoint_filter: Optional[tuple] = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self) -> None:
        check_real("T", self.horizon_T, positive=True)
        check_real("information <N>(T) qv_N", self.qv_N, positive=True)

    @property
    def lam(self) -> float:
        """The coupling of the constants at ``horizon_T``, the solve's."""
        return self.constants.lambda_of_T(self.horizon_T)

    @cached_property
    def filter(self) -> Callable:
        """The filter h_T on (0, T], built from the spline on first read."""
        # h_T(t) = T^(H1 - 1/2) * spline(x), x the mesh pre-image of t/T
        spline = self.spline
        scale = self.horizon_T ** (self.constants.hurst.h1 - 0.5)
        return _on_horizon(self.horizon_T, lambda t, u: scale * spline(
            _graded_map_inv(u)))

    def to_json(self) -> dict:
        """The record as a JSON object, read back by ``from_json``."""
        pair = self.constants.hurst
        return {"h1": pair.h1, "h2": pair.h2, "sigma": self.constants.sigma,
                "T": self.horizon_T, "grading_exponent": _GRADING,
                "lambda": self.lam, "qv_N": self.qv_N,
                "filter_knots": {"x": self.spline.x.tolist(),
                                 "y": self.spline.y.tolist()}}

    @staticmethod
    def from_json(obj, source: str = "solution record") -> SolutionRecord:
        """The record that ``to_json`` wrote, from its parsed JSON object;
        DomainError, naming ``source``, for any malformed entry, a
        grading that is not the solver's, or a ``lambda`` that is not
        the coupling of the sidecar's own model at its ``T``: sigma
        enters the solve only through it."""
        try:
            if not isinstance(obj, dict) or "filter_knots" not in obj:
                raise DomainError("holds no filter knots; rerun solve")
            try:
                knots = obj["filter_knots"]
                spline = KnotSpline(knots["x"], knots["y"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(_KNOT_RULE) from exc
            if obj.get("grading_exponent") != _GRADING:
                raise DomainError(f"require grading_exponent {_GRADING}, "
                                  "the solver's mesh grading; rerun solve")
            # HurstPair and ModelParams refuse a missing, bool or
            # non-number h1, h2, sigma or T
            constants = derive_constants(ModelParams(
                hurst=HurstPair(obj.get("h1"), obj.get("h2")),
                sigma=obj.get("sigma"), horizon_T=obj.get("T")))
            record = SolutionRecord(constants=constants, horizon_T=obj["T"],
                                    spline=spline, qv_N=obj.get("qv_N"))
            lam = check_real("lambda", obj.get("lambda"))
            if not constants.same_model(constants.hurst, record.horizon_T,
                                        lam):
                raise DomainError(
                    f"the coupling {record.lam:.6g} of the constants at "
                    f"T={record.horizon_T} is not the solve's lambda "
                    f"{lam:.6g}; rerun solve")
            return record
        except DomainError as exc:
            raise DomainError(f"{source}: {exc}") from exc


@dataclass(frozen=True)
class FredholmSolution(SolutionRecord):
    """Solution of the rescaled second-kind equation at one horizon.

    A ``SolutionRecord``, checked as every record is: its ``spline`` is
    the residual audit's reconstruction of the solution (see
    ``_extended_spline``).  The solve adds these fields.

    Fields
    ------
    h_hat : array
        Nodal values of the rescaled filter on (0,1).
    residual_sup : float
        Sup over 3n off-grid probe points of the relative residual of
        the continuous equation, with the solution reconstructed
        independently of the solve (see ``residual_report``).
    condition : float
        1-norm condition estimate of I + lam * matrix.
    operator : DiscretizedOperator
        The operator the solve used; kept for Nystrom interpolation.
    worst_u : float
        The probe point in (0, 1) where ``residual_sup`` is attained.
    """

    h_hat: np.ndarray = field(repr=False)
    residual_sup: float
    condition: float
    operator: DiscretizedOperator = field(repr=False)
    worst_u: float

    @property
    def grid(self) -> QuadratureGrid:
        """The quadrature grid of the solve, ``operator.grid``."""
        return self.operator.grid


def _quadratic_variation(grid: QuadratureGrid, h_hat: np.ndarray, T: float,
                         constants: DerivedConstants) -> float:
    # <N>(T) = sigma^2 gamma^2 int_0^T h_T(t) t^(1-2H1) dt; substituting
    # t = s*T and h_T(sT) = h_hat(s) (sT)^(H1-1/2) gives the T power 3/2-H1
    h1 = constants.hurst.h1
    try:
        scale = (constants.sigma * constants.gamma_h1) ** 2 * T ** (1.5 - h1)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise DomainError(f"the information prefactor (sigma gamma)^2 T^(3/2-H1) "
                          f"leaves the float range at T={T}, sigma={constants.sigma}")
    qv = scale * float(np.dot(grid.weights, h_hat * grid.nodes ** (0.5 - h1)))
    if not np.isfinite(qv) or qv <= 0.0:
        raise AccuracyError(
            f"information <N>(T) came out nonpositive ({qv}) at T={T}; "
            "the solve failed")
    return qv

