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
quadrature panels of all their near cells are laid out at once, the
integrand is evaluated once on the flat node array and the moments are
summed per cell (``_cell_moments``).  The solve itself is a single
dense LU per horizon.

The off-grid residual audit depends on the horizon only through the
solution vector, so everything else it needs is built once per operator,
on its first solve, and kept on it (``DiscretizedOperator.audit_plan``):
the quadrature rows at the extension samples and at the probes, and the
kernel integrals of the solution's spline at the probes and at the
nodes as a linear map of the spline's knot values and knot second
derivatives (``_spline_map``).  Each horizon's audit is then a few
matrix-vector products and one evaluation of the spline.  The plan
holds 17.75 n^2 floats (2.3 MB at n = 128, 37 MB at n = 512) and is
freed with the operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AccuracyError, AccuracyWarning, DomainError, IllConditionedError
from .kernels import KernelContext, KernelTables, get_tables, _ladder_rule_one
from .model import DerivedConstants
from .numerics import jacobi_panels, solve_dense

__all__ = [
    "QuadratureGrid",
    "DiscretizedOperator",
    "FredholmSolution",
    "ResidualReport",
    "build_grid",
    "assemble",
    "solve_second_kind",
    "residual_report",
    "unscale",
    "filter_interpolant",
    "filter_from_knots",
    "quadratic_variation_N",
    "spectrum_report",
]

_CELL_ORDER = 4     # Gauss nodes per mesh cell
_NQ_PANEL = 12      # nodes per panel inside the moment engine
_MAX_PANELS = 30    # dyadic refinement depth toward a singular point
# points per chunk of batched rows and kernel integrals: about 16k
# near-field nodes (23k kernel-integral nodes), so each temporary array
# stays near 128 kB; the process peak then stays within 1 MB of the
# per-point loops at n = 128
_CHUNK_POINTS = 16
# residual scan: 3 fresh samples per cell extend the solution, 12 probe
# points per cell (= 3n total) evaluate the continuous equation
_EXT_OFFSETS = (0.17, 0.52, 0.86)
_EVAL_OFFSETS = (0.06, 0.135, 0.22, 0.30, 0.38, 0.46,
                 0.56, 0.64, 0.72, 0.80, 0.90, 0.965)


# ----------------------------------------------------------------------
# graded mesh
# ----------------------------------------------------------------------

def _graded_map(x, g: float):
    """Symmetric endpoint-clustering map x -> x^g / (x^g + (1-x)^g)."""
    x = np.asarray(x, float)
    xg = x ** g
    return xg / (xg + (1.0 - x) ** g)


def _graded_map_deriv(x, g: float):
    x = np.asarray(x, float)
    num = g * x ** (g - 1.0) * (1.0 - x) ** (g - 1.0)
    return num / (x ** g + (1.0 - x) ** g) ** 2


def _graded_map_inv(u, g: float):
    u = np.asarray(u, float)
    r = ((1.0 - u) / u) ** (1.0 / g)
    return 1.0 / (1.0 + r)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss mesh on (0,1), graded toward both endpoints.

    The mesh has ``n // 4`` cells, uniform in the pre-image coordinate
    ``x``; each cell carries a 4-point Gauss rule mapped through the
    grading map.  Weights are normalized to sum to one exactly.

    Fields
    ------
    n : int
        Total number of nodes.
    grading_exponent : float
        Exponent of the clustering map (>= 1; 1 means no grading).
    nodes, weights : arrays of shape (n,)
        Strictly increasing nodes in (0,1) and positive weights.
    cell_edges : array of shape (n//4 + 1,)
        Images of the uniform cell boundaries; first/last pinned to 0/1.
    x_nodes : array of shape (n,)
        Pre-image coordinates of the nodes; kept because splines of the
        solution are better behaved in this variable.
    """

    n: int
    grading_exponent: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    cell_edges: np.ndarray = field(repr=False)
    x_nodes: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cell_edges) - 1


def build_grid(n: int, grading_exponent: float = 2.0) -> QuadratureGrid:
    """Build the graded composite quadrature mesh.

    Parameters
    ----------
    n : int
        Number of nodes; must be a multiple of 4 and at least 8.
    grading_exponent : float, optional
        Clustering strength at the endpoints.  2 (default) gives node
        spacing O(1/n^2) near 0 and 1; 1 disables grading.

    Returns
    -------
    QuadratureGrid

    Raises
    ------
    DomainError
        If ``n`` or ``grading_exponent`` is out of range.
    """
    if int(n) != n or n < 8:
        raise DomainError(f"grid size must be an integer >= 8, got {n}")
    n = int(n)
    if n % _CELL_ORDER != 0:
        raise DomainError(f"grid size must be a multiple of {_CELL_ORDER}, got {n}")
    g = float(grading_exponent)
    if not np.isfinite(g) or g < 1.0:
        raise DomainError(f"grading exponent must be >= 1, got {grading_exponent}")

    m = n // _CELL_ORDER
    xe = np.linspace(0.0, 1.0, m + 1)
    xn, xw = jacobi_panels(_CELL_ORDER, xe[:-1], xe[1:], np.zeros(m), np.zeros(m))
    x_nodes = xn.ravel()
    nodes = _graded_map(x_nodes, g)
    weights = xw.ravel() * _graded_map_deriv(x_nodes, g)
    weights = weights / weights.sum()
    edges = _graded_map(xe, g)
    edges[0], edges[-1] = 0.0, 1.0
    return QuadratureGrid(n=n, grading_exponent=g, nodes=nodes,
                          weights=weights, cell_edges=edges, x_nodes=x_nodes)


# ----------------------------------------------------------------------
# product-quadrature moment engine
# ----------------------------------------------------------------------

def _lagrange_basis(cell_nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """All four Lagrange basis polynomials at s, shape (4,) + s.shape.

    cell_nodes has shape (4,), or (4, ...) broadcasting against s for
    one cell per point.
    """
    out = np.empty((_CELL_ORDER,) + s.shape)
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


def _cell_ladders(u: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Dyadic ladders of the cell moments, one or two per (u, cell).

    Each ladder covers [a, b] with panels halving toward its target end,
    b when ``toward_b`` and a otherwise.  The five kinds of moment are
    parameters of it:

    * u on or beyond the right edge: [left, right] toward right;
    * u on or before the left edge: [left, right] toward left;
    * u inside the cell: [left, u] and [u, right], both toward u.

    A ladder is ``declared`` when u is machine-coincident with its
    target (always for u inside): its last panel then puts the exponent
    qd at the target into the Gauss-Jacobi weight, with depth
    _MAX_PANELS.  Otherwise u lies a distance d off the cell, the layer
    has no true singularity, and the depth follows log2(width / d).

    Returns flat arrays (moment, a, b, toward_b, depth, declared), where
    ``moment`` indexes the input triples.
    """
    width = right - left
    at_right = u >= right * (1.0 - 1e-15)
    at_left = ~at_right & (u <= left * (1.0 + 1e-15))
    inside = ~at_right & ~at_left
    d = np.maximum(np.where(at_right, u - right, left - u), 0.0)
    declared = inside | (d <= width * 2.0 ** -50)
    with np.errstate(divide="ignore"):
        layer = np.ceil(np.log2(width / d)) + 3.0
    depth = np.where(declared, _MAX_PANELS, np.clip(layer, 1, _MAX_PANELS))
    two = np.flatnonzero(inside)
    moment = np.concatenate([np.arange(u.size), two])
    return (moment,
            np.concatenate([left, u[two]]),
            np.concatenate([np.where(inside, u, right), right[two]]),
            np.concatenate([~at_left, np.zeros(two.size, bool)]),
            depth[moment].astype(int),
            declared[moment])


def _cell_moments(tables: KernelTables, u, left, right,
                  cell_nodes) -> np.ndarray:
    """Moments of the reduced symmetric kernel over mesh cells, batched.

    For each k, row k of the result holds the integrals over
    [left[k], right[k]] of

        lo^p0 * |u - s|^qd * c(lo/hi) * ell_i(s),   lo = min(s,u), hi = max(s,u)

    against the Lagrange basis ell_i of the cell nodes cell_nodes[k]
    (shape (K, 4)), with u = u[k], p0 = 1 - 2*H1 and qd = 2*(H2 - H1) - 1
    both in (-1, 0).  The gap factor is the hard part: it peaks at the
    cell edge (or interior point) closest to u, so the panels halve
    toward that point (``_cell_ladders``), and a declared final panel
    carries the exponent qd in its Gauss-Jacobi rule.  In the first
    cell (left == 0) the panel at the origin carries p0 the same way.
    The profile c has a mild kink at argument 1, covered by the same
    refinement.  All panels of the batch are laid out at once, the
    integrand is evaluated once on their nodes, and the moments are
    summed per cell with ``np.bincount``.
    """
    u, left, right = (np.asarray(v, float) for v in (u, left, right))
    h1 = tables.h1
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (tables.h2 - h1) - 1.0
    moment, a, b, toward_b, depth, declared = _cell_ladders(u, left, right)

    # breakpoints b - w/2^j (toward b) or a + w/2^j (toward a) for
    # j <= depth; unused slots repeat a or b and give empty panels
    j = np.arange(1, _MAX_PANELS + 1)
    w = (b - a)[:, None]
    halves = 0.5 ** j
    brk = np.where(toward_b[:, None],
                   np.where(j <= depth[:, None], b[:, None] - w * halves, b[:, None]),
                   np.where(j[::-1] <= depth[:, None],
                            a[:, None] + w * halves[::-1], a[:, None]))
    edges = np.hstack([a[:, None], brk, b[:, None]])
    lad, col = np.nonzero(edges[:, 1:] > edges[:, :-1])  # skip empty panels
    lo, hi = edges[lad, col], edges[lad, col + 1]
    tb = toward_b[lad]
    target = np.where(tb, b[lad], a[lad])
    singular = declared[lad] & np.where(tb, hi == target, lo == target)
    origin = tb & (lo == 0.0)  # s^p0 goes into the weight at s = 0
    x, wq = jacobi_panels(_NQ_PANEL, lo, hi,
                          np.where(singular & ~tb, qd, np.where(origin, p0, 0.0)),
                          np.where(singular & tb, qd, 0.0))

    k = moment[lad]
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
                      us: np.ndarray, rows: np.ndarray,
                      near_radius: int) -> None:
    """Overwrite the near-diagonal cells of plain Nystrom rows in place.

    Row i belongs to the point us[i].  Uses k1(s,u) =
    (s*u)^(H1-1/2) * k_sym(s,u): the cell moments of the symmetric
    reduced kernel against the Lagrange basis give quadrature weights
    exact for the singular factors.  The cells within ``near_radius`` of
    each point, and the first cell, go to one ``_cell_moments`` batch.
    """
    hpow = tables.h1 - 0.5
    nc = grid.n_cells
    c0 = np.clip(np.searchsorted(grid.cell_edges, us, side="right") - 1,
                 0, nc - 1)
    # the window of near cells, plus cell 0 when the window misses it: the
    # left-endpoint weight s^(1-2*H1) always needs declared rules
    cells = np.hstack([c0[:, None] + np.arange(-near_radius, near_radius + 1),
                       np.zeros((us.size, 1), int)])
    near = (cells >= 0) & (cells < nc)
    near[:, -1] = c0 > near_radius
    r, k = np.nonzero(near)
    cell = cells[r, k]
    cols = _CELL_ORDER * cell[:, None] + np.arange(_CELL_ORDER)
    sn = grid.nodes[cols]
    mom = _cell_moments(tables, us[r], grid.cell_edges[cell],
                        grid.cell_edges[cell + 1], sn)
    rows[r[:, None], cols] = (us[r] ** hpow)[:, None] * mom * sn ** hpow


def _quadrature_rows(tables: KernelTables, grid: QuadratureGrid,
                     near_radius: int, us: np.ndarray) -> np.ndarray:
    """Quadrature rows at the points us, shape (len(us), n).

    Far from the diagonal weights[j] * k1(nodes[j], u); the near cells
    carry product-quadrature weights.  The rows are formed in chunks of
    at most _CHUNK_POINTS points, which bounds the near-field
    temporaries.
    """
    rows = np.empty((us.size, grid.n))
    for sl in _chunks(us.size):
        rows[sl] = grid.weights * tables.k1(grid.nodes[None, :], us[sl, None])
        _apply_near_field(tables, grid, us[sl], rows[sl], near_radius)
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
    within ``near_radius`` of the collocation point (and the first cell)
    carry product-quadrature weights instead.
    """

    matrix: np.ndarray = field(repr=False)
    grid: QuadratureGrid
    h1: float
    h2: float
    near_radius: int
    tables: KernelTables = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    def row(self, u: float) -> np.ndarray:
        """Quadrature row at an arbitrary point u in (0, 1].

        At a grid node this reproduces the matching matrix row exactly,
        so Nystrom interpolation is consistent with the solve.
        """
        if not 0.0 < u <= 1.0:
            raise DomainError(f"collocation point must lie in (0, 1], got {u}")
        return self._rows(np.array([u], float))[0]

    def _rows(self, us: np.ndarray) -> np.ndarray:
        """Quadrature rows at the points us, shape (len(us), n)."""
        return _quadrature_rows(self.tables, self.grid, self.near_radius, us)

    @cached_property
    def audit_plan(self) -> "_AuditPlan":
        """The horizon-independent part of the residual audit.

        Built on first use (the first solve) and kept with the operator;
        see ``_build_audit_plan``.
        """
        return _build_audit_plan(self.tables, self.grid, self.near_radius)

    def symmetrized(self) -> np.ndarray:
        """Symmetric part of D^(1/2) * matrix * D^(-1/2), D = diag(weights).

        The similarity transform makes the quadrature form self-adjoint;
        its symmetric part carries the spectrum used for positivity and
        norm diagnostics.
        """
        rw = np.sqrt(self.grid.weights)
        s = rw[:, None] * self.matrix / rw[None, :]
        return 0.5 * (s + s.T)

    def asymmetry(self) -> float:
        """Relative sup-norm asymmetry of the weighted form.

        Product quadrature treats the two arguments of the kernel
        asymmetrically near the diagonal, so this is O(percent) by
        design; the far field agrees to roundoff.
        """
        rw = np.sqrt(self.grid.weights)
        s = rw[:, None] * self.matrix / rw[None, :]
        return float(np.max(np.abs(s - s.T)) / np.max(np.abs(s)))

    def frobenius_norm(self) -> float:
        """Frobenius norm of the symmetrized form; estimates ||k1||_L2."""
        return float(np.linalg.norm(self.symmetrized(), "fro"))


def assemble(ctx: KernelContext, grid: QuadratureGrid,
             near_radius: int = 2) -> DiscretizedOperator:
    """Assemble the collocation matrix on a grid.

    Parameters
    ----------
    ctx : KernelContext
        Kernel context; the Hurst pair must satisfy H2 - H1 > 1/4.
    grid : QuadratureGrid
    near_radius : int, optional
        Number of cells on each side of the collocation point assembled
        with product quadrature.

    Returns
    -------
    DiscretizedOperator
    """
    hurst = ctx.constants.hurst
    hurst.require_solver_admissible()
    if near_radius < 0:
        raise DomainError(f"near_radius must be >= 0, got {near_radius}")
    tables = get_tables(hurst.h1, hurst.h2)
    matrix = _quadrature_rows(tables, grid, near_radius, grid.nodes)
    if not np.all(np.isfinite(matrix)):
        raise AccuracyError("assembled operator contains non-finite entries")
    return DiscretizedOperator(matrix=matrix, grid=grid,
                               h1=hurst.h1, h2=hurst.h2,
                               near_radius=near_radius, tables=tables)


def spectrum_report(op: DiscretizedOperator) -> np.ndarray:
    """Eigenvalues of the symmetrized weighted operator, descending.

    The continuous operator is compact, self-adjoint and nonnegative,
    so the discrete spectrum should be nonnegative and decay to zero;
    this report is the diagnostic used in place of a hard uniqueness
    claim for exceptional horizons.
    """
    eig = np.linalg.eigvalsh(op.symmetrized())
    return eig[::-1]


# ----------------------------------------------------------------------
# second-kind solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FredholmSolution:
    """Solution of the rescaled second-kind equation at one horizon.

    Fields
    ------
    grid : QuadratureGrid
    h_hat : array
        Nodal values of the rescaled filter on (0,1).
    horizon_T : float
    lam : float
        Coupling constant multiplying the integral operator.
    residual_sup : float
        Sup over 3n off-grid probe points of the relative residual of
        the continuous equation, with the solution reconstructed
        independently of the solve (see ``residual_report``).
    qv_N : float
        Information <N>(T) of the drift estimator.
    condition : float
        1-norm condition estimate of I + lam * matrix.
    operator : DiscretizedOperator
        The operator the solve used; kept for Nystrom interpolation.
    spline : CubicSpline
        The residual audit's reconstruction of the solution (see
        ``_extended_spline``), with knots ``spline.x`` and values
        ``spline.y``; the filter of ``filter_interpolant``.
    worst_u : float
        The probe point in (0, 1) where ``residual_sup`` is attained.
    """

    grid: QuadratureGrid
    h_hat: np.ndarray = field(repr=False)
    horizon_T: float
    lam: float
    residual_sup: float
    qv_N: float
    condition: float
    operator: DiscretizedOperator = field(repr=False)
    spline: CubicSpline = field(repr=False)
    worst_u: float


class ResidualReport(NamedTuple):
    """Residual diagnostics of a solution.

    reconstruction_sup: relative residual of the continuous equation
    with the solution reconstructed from nodal plus freshly extended
    samples (a spline in grid coordinates), evaluated at 3n off-grid
    points.  Sensitive to solve errors: a wrong nodal vector cannot
    satisfy the continuous equation.

    on_grid_sup: the same functional evaluated at the collocation nodes.

    extension_sup: off-grid residual with the point value taken from
    the Nystrom extension formula instead of the spline; measures pure
    quadrature consistency and is comparable to on_grid_sup.
    """

    reconstruction_sup: float
    on_grid_sup: float
    extension_sup: float
    worst_u: float


def _rhs_values(u, T: float, h1: float):
    return (np.asarray(u, float) * T) ** (0.5 - h1)


def _kernel_rules(tables: KernelTables, us: np.ndarray, nq: int = 24):
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
    zl, wl = _ladder_rule_one(p0, qd, nq, 1e-9, 1e-9)
    zr, wr = _ladder_rule_one(qd, 0.0, nq, 1e-9, 1e-9)
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


def _nystrom_extension(op: DiscretizedOperator, lam: float, T: float,
                       h_hat: np.ndarray, us: np.ndarray) -> np.ndarray:
    """h_hat(u) = rhs(u) - lam * row(u) . h_hat at each point u of us."""
    applied = np.empty(us.size)
    for sl in _chunks(us.size):
        applied[sl] = op._rows(us[sl]) @ h_hat
    return _rhs_values(us, T, op.h1) - lam * applied


def _spline_map(knots: np.ndarray, x: np.ndarray,
                w: np.ndarray) -> np.ndarray:
    """sum_j w[r, j] * S(x[r, j]) for each row r, as a linear map.

    S is a cubic spline with knots ``knots``, values y and second
    derivatives M there.  On the knot interval [k_i, k_(i+1)] of width
    h, with t = (x - k_i) / h,

        S(x) = (1-t) y_i + t y_(i+1)
               + h^2/6 ((-t^3 + 3t^2 - 2t) M_i + (t^3 - t) M_(i+1)),

    which continues the end pieces beyond the knots, as CubicSpline
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
    # w t^k in row k; the zero column closes the last interval
    powers = np.zeros((4, t.size + 1))
    powers[0, :-1] = w.ravel()
    for k in (1, 2, 3):
        np.multiply(powers[k - 1, :-1], t, out=powers[k, :-1])
    # reduceat returns an entry, not 0, for an empty interval
    s0, s1, s2, s3 = (np.add.reduceat(powers, starts, axis=1)
                      * (counts > 0)).reshape(4, rows, m - 1)
    c = h * h / 6.0
    out = np.zeros((rows, 2, m))
    out[:, 0, :-1] = s0 - s1
    out[:, 0, 1:] += s1
    out[:, 1, :-1] = c * (3.0 * s2 - 2.0 * s1 - s3)
    out[:, 1, 1:] += c * (s3 - s1)
    return out.reshape(rows, 2 * m)


class _AuditPlan(NamedTuple):
    """The horizon-independent part of the residual audit of an operator.

    ext_u, ext_rows: the points between nodes (3 per cell) at which the
    solve extends the solution, and their quadrature rows.
    knots, order: the extended spline's knots in the mesh pre-image
    coordinate, sorted, and the permutation that sorts the nodal values
    followed by the extension values into knot order.
    probe_x, probe_u, probe_rows: the 3n off-grid probe points, as
    pre-images and as points of (0, 1), and their rows.
    probe_integrals, node_integrals: int_0^1 k1(s, u) h_rec(s) ds at the
    probes and at the nodes, for the reconstruction h_rec of a spline
    with these knots, as a linear map of its knot values and knot second
    derivatives (see ``_spline_map``).
    """

    ext_u: np.ndarray
    ext_rows: np.ndarray
    knots: np.ndarray
    order: np.ndarray
    probe_x: np.ndarray
    probe_u: np.ndarray
    probe_rows: np.ndarray
    probe_integrals: np.ndarray
    node_integrals: np.ndarray


def _build_audit_plan(tables: KernelTables, grid: QuadratureGrid,
                      near_radius: int) -> _AuditPlan:
    """Rows and kernel-integral maps of the residual audit.

    Holds (0.75 + 3) n rows of n and (3 + 1) n maps of 2m = 3.5 n
    floats: 17.75 n^2 floats.
    """
    g = grid.grading_exponent
    ext_x = _offsets_in_cells(grid, _EXT_OFFSETS)
    ext_u = _graded_map(ext_x, g)
    xs = np.concatenate([grid.x_nodes, ext_x])
    order = np.argsort(xs)
    knots = xs[order]
    probe_x = _offsets_in_cells(grid, _EVAL_OFFSETS)
    probe_u = _graded_map(probe_x, g)
    # int k1(s, u) h_rec(s) ds = u^(H1 - 1/2) int k_sym(s, u) phi(s) ds,
    # and the spline holds phi(s) = h_rec(s) s^(H1 - 1/2) at the mesh
    # pre-image of s
    us = np.concatenate([probe_u, grid.nodes])
    integrals = np.empty((us.size, 2 * knots.size))
    for sl, s, w in _kernel_rules(tables, us):
        integrals[sl] = _spline_map(knots, _graded_map_inv(s, g), w)
    integrals *= us[:, None] ** (tables.h1 - 0.5)
    return _AuditPlan(
        ext_u=ext_u,
        ext_rows=_quadrature_rows(tables, grid, near_radius, ext_u),
        knots=knots, order=order, probe_x=probe_x, probe_u=probe_u,
        probe_rows=_quadrature_rows(tables, grid, near_radius, probe_u),
        probe_integrals=integrals[:probe_u.size],
        node_integrals=integrals[probe_u.size:])


class _KnotSpline(CubicSpline):
    """Cubic spline that keeps its knot values ``y``, so it can be rebuilt."""

    def __init__(self, x, y):
        super().__init__(x, y)
        self.y = np.asarray(y, float)


def _extended_spline(op: DiscretizedOperator, lam: float, T: float,
                     h_hat: np.ndarray) -> _KnotSpline:
    """Spline through nodal and freshly extended samples of the solution.

    Works in the bounded variable phi(u) = h_hat(u) * u^(H1 - 1/2) and
    in the mesh pre-image coordinate, where the endpoint behavior of
    the solution is mildest.  The fresh samples come from the Nystrom
    extension at the plan's points ``ext_u``.
    """
    plan = op.audit_plan
    ext = _rhs_values(plan.ext_u, T, op.h1) - lam * (plan.ext_rows @ h_hat)
    hpow = op.h1 - 0.5
    vals = np.concatenate([h_hat * op.grid.nodes ** hpow,
                           ext * plan.ext_u ** hpow])
    return _KnotSpline(plan.knots, vals[plan.order])


def _scan_residuals(op: DiscretizedOperator, lam: float, T: float,
                    h_hat: np.ndarray, rhs: np.ndarray,
                    spline: _KnotSpline) -> ResidualReport:
    plan = op.audit_plan
    h1 = op.h1
    knot_data = np.concatenate([spline.y, spline(spline.x, 2)])
    rhs_u = _rhs_values(plan.probe_u, T, h1)
    integral = lam * (plan.probe_integrals @ knot_data)
    rec_val = spline(plan.probe_x) * plan.probe_u ** (0.5 - h1)
    rec = np.abs(rec_val + integral - rhs_u) / rhs_u
    nys_val = rhs_u - lam * (plan.probe_rows @ h_hat)
    ext = np.abs(nys_val + integral - rhs_u) / rhs_u
    on = np.abs(h_hat + lam * (plan.node_integrals @ knot_data) - rhs) / rhs
    worst = int(np.argmax(rec))
    return ResidualReport(reconstruction_sup=float(rec[worst]),
                          on_grid_sup=float(np.max(on)),
                          extension_sup=float(np.max(ext)),
                          worst_u=float(plan.probe_u[worst]))


def solve_second_kind(op: DiscretizedOperator, T: float,
                      constants: DerivedConstants,
                      residual_tol: float = 1e-5,
                      lam_override: Optional[float] = None) -> FredholmSolution:
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
    lam_override : float, optional
        Diagnostic seam replacing the physical coupling.

    Returns
    -------
    FredholmSolution

    Raises
    ------
    DomainError
        Horizon nonpositive or constants from a different Hurst pair.
    IllConditionedError
        The shifted system is numerically singular, i.e. the coupling
        sits against a spectral point of the discretized operator.
    """
    if T <= 0.0 or not np.isfinite(T):
        raise DomainError(f"horizon must be positive, got {T}")
    pair = constants.hurst
    if abs(pair.h1 - op.h1) > 1e-12 or abs(pair.h2 - op.h2) > 1e-12:
        raise DomainError(
            f"constants are for ({pair.h1}, {pair.h2}) but the operator "
            f"was assembled at ({op.h1}, {op.h2})")
    lam = float(constants.lambda_of_T(T)) if lam_override is None \
        else float(lam_override)
    rhs = _rhs_values(op.grid.nodes, T, op.h1)
    system = np.eye(op.n) + lam * op.matrix
    try:
        h_hat, cond = solve_dense(system, rhs)
    except IllConditionedError as exc:
        raise IllConditionedError(
            f"second-kind system is numerically singular at T={T}: the "
            f"coupling {lam:.6g} sits against a spectral point of the "
            "discretized operator; perturb the horizon") from exc
    if cond > 1e6:
        warnings.warn(
            f"condition estimate {cond:.3e} at T={T}: the coupling is "
            "approaching a spectral point of the discretized operator",
            AccuracyWarning, stacklevel=2)
    spline = _extended_spline(op, lam, T, h_hat)
    report = _scan_residuals(op, lam, T, h_hat, rhs, spline)
    if report.reconstruction_sup > residual_tol:
        warnings.warn(
            f"scanned residual {report.reconstruction_sup:.3e} exceeds "
            f"tolerance {residual_tol:.1e} at T={T}, n={op.n}; the "
            "solution is returned but should not be trusted at this "
            "tolerance", AccuracyWarning, stacklevel=2)
    qv = _quadratic_variation(op.grid, h_hat, T, constants)
    return FredholmSolution(grid=op.grid, h_hat=h_hat, horizon_T=float(T),
                            lam=lam, residual_sup=report.reconstruction_sup,
                            qv_N=qv, condition=float(cond), operator=op,
                            spline=spline, worst_u=report.worst_u)


def residual_report(sol: FredholmSolution) -> ResidualReport:
    """Recompute the full residual diagnostics of a solution.

    Runs the scan of the solve on the operator's audit plan, so its
    ``reconstruction_sup`` equals ``sol.residual_sup`` exactly.
    """
    op, T = sol.operator, sol.horizon_T
    rhs = _rhs_values(sol.grid.nodes, T, op.h1)
    return _scan_residuals(op, sol.lam, T, sol.h_hat, rhs,
                           _extended_spline(op, sol.lam, T, sol.h_hat))


# ----------------------------------------------------------------------
# unscaling and the information functional
# ----------------------------------------------------------------------

def _on_horizon(T: float, values: Callable) -> Callable:
    """Filter h_T on (0, T] given as values(t, u) with u = t/T.

    Accepts a scalar or array t (scalar in, scalar out); raises
    DomainError outside (0, T].
    """
    def h_T(t):
        arr = np.asarray(t, float)
        if np.any(arr <= 0.0) or np.any(arr > T):
            raise DomainError(f"filter argument must lie in (0, {T}]")
        # the minimum guards roundoff of the division, not out-of-range input
        out = values(arr, np.minimum(arr / T, 1.0))
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    return h_T


def unscale(sol: FredholmSolution) -> Callable:
    """Filter h_T on (0, T] from the rescaled solution.

    h_T(t) = h_hat(t/T) * t^(H1 - 1/2), with h_hat between nodes given
    by the Nystrom extension

        h_hat(u) = rhs(u) - lam * sum_j row(u)_j * h_hat_j,

    which reproduces the nodal values exactly at grid images.

    Returns
    -------
    callable
        Accepts a scalar or array t; raises DomainError outside (0, T].
    """
    op, T = sol.operator, sol.horizon_T

    def values(t, u):
        h_hat = _nystrom_extension(op, sol.lam, T, sol.h_hat, np.atleast_1d(u))
        return h_hat.reshape(np.shape(u)) * t ** (op.h1 - 0.5)

    return _on_horizon(T, values)


def filter_interpolant(sol: FredholmSolution) -> Callable:
    """Spline-backed filter h_T for bulk evaluation.

    Wraps the solution's extended spline (nodal plus fresh Nystrom
    samples between nodes, built once by the solve) and evaluates in
    microseconds per point, unlike ``unscale`` which prices a full
    quadrature row per call.  Agrees with the Nystrom extension to
    spline interpolation error, far below the solver residual.  Same
    domain contract: (0, T].
    """
    return _spline_filter(sol.spline, sol.horizon_T, sol.operator.h1,
                          sol.grid.grading_exponent)


def filter_from_knots(x, y, horizon_T: float, h1: float,
                      grading_exponent: float) -> Callable:
    """The filter of ``filter_interpolant`` rebuilt, bit for bit, from
    the knots ``sol.spline.x``, ``sol.spline.y`` of its solution."""
    return _spline_filter(CubicSpline(x, y), float(horizon_T), h1,
                          grading_exponent)


def _spline_filter(spline: CubicSpline, T: float, h1: float,
                   g: float) -> Callable:
    # h_T(t) = T^(H1 - 1/2) * spline(x), x the mesh pre-image of t/T
    scale = T ** (h1 - 0.5)
    return _on_horizon(T, lambda t, u: scale * spline(_graded_map_inv(u, g)))


def _quadratic_variation(grid: QuadratureGrid, h_hat: np.ndarray, T: float,
                         constants: DerivedConstants) -> float:
    # <N>(T) = sigma^2 gamma^2 int_0^T h_T(t) t^(1-2H1) dt; substituting
    # t = s*T and h_T(sT) = h_hat(s) (sT)^(H1-1/2) gives the T power 3/2-H1
    h1 = constants.hurst.h1
    scale = (constants.sigma * constants.gamma_h1) ** 2 * T ** (1.5 - h1)
    qv = scale * float(np.dot(grid.weights, h_hat * grid.nodes ** (0.5 - h1)))
    if not np.isfinite(qv) or qv <= 0.0:
        raise AccuracyError(
            f"information <N>(T) came out nonpositive ({qv}) at T={T}; "
            "the solve failed")
    return qv


def quadratic_variation_N(sol: FredholmSolution,
                          constants: DerivedConstants) -> float:
    """Information <N>(T): variance of the estimator's Gaussian kernel.

    Strictly positive for a valid solution; nonpositive values raise
    AccuracyError as a solver failure.
    """
    return _quadratic_variation(sol.grid, sol.h_hat, sol.horizon_T, constants)
