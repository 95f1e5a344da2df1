"""Graded grid, product-quadrature assembly, and second-kind solve."""

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import oracles
from mixedfbm import fredholm as fr
from mixedfbm.errors import (AccuracyError, AccuracyWarning, DomainError,
                             IllConditionedError)
from mixedfbm.kernels import KernelContext
from mixedfbm.model import HurstPair, ModelParams, derive_constants

H1, H2 = 0.6, 0.9


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


@pytest.fixture(scope="module")
def ctx(cons):
    return KernelContext(constants=cons)


@pytest.fixture(scope="module")
def op64(ctx):
    return fr.assemble(ctx, fr.build_grid(64))


@pytest.fixture(scope="module")
def op128(ctx):
    return fr.assemble(ctx, fr.build_grid(128))


@pytest.fixture(scope="module")
def op256(ctx):
    return fr.assemble(ctx, fr.build_grid(256))


@pytest.fixture(scope="module")
def sol64(op64, cons):
    return fr.solve_second_kind(op64, 1.0, cons, residual_tol=2e-5)


@pytest.fixture(scope="module")
def sol128(op128, cons):
    return fr.solve_second_kind(op128, 1.0, cons)


@pytest.fixture(scope="module")
def sol256(op256, cons):
    return fr.solve_second_kind(op256, 1.0, cons)


@pytest.fixture(scope="module")
def sol512(ctx, cons):
    return fr.solve_second_kind(fr.assemble(ctx, fr.build_grid(512)), 1.0, cons)


# ---------------------------------------------------------------- grid

def test_grid_validation():
    with pytest.raises(DomainError):
        fr.build_grid(4)
    with pytest.raises(DomainError):
        fr.build_grid(66)  # not a multiple of the cell order
    with pytest.raises(DomainError):
        fr.build_grid(64.5)


def test_build_grid_names_a_huge_n_by_its_size():
    # str() of an int beyond 4300 digits raises ValueError, so the
    # refusal names the int by its size, as check_int does
    for n in (10**400 + 1, 10**5000 + 1):
        with pytest.raises(DomainError, match=r"multiple of 4, got an int "
                           rf"of {n.bit_length()} bits"):
            fr.build_grid(n)


def test_grid_invariants_smallest():
    grid = fr.build_grid(8)
    assert grid.n == 8 and grid.n_cells == 2
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0 and grid.nodes[-1] < 1
    assert np.all(grid.weights > 0)
    assert abs(grid.weights.sum() - 1.0) <= 1e-12
    assert grid.cell_edges[0] == 0.0 and grid.cell_edges[-1] == 1.0


def test_grid_endpoint_clustering():
    grid = fr.build_grid(64)
    assert grid.nodes[0] < 64.0 ** -1.9
    assert 1.0 - grid.nodes[-1] < 64.0 ** -1.9
    assert np.allclose(fr._graded_map(grid.x_nodes), grid.nodes, rtol=1e-15)


def test_grid_integrates_endpoint_singularity():
    grid = fr.build_grid(256)
    val = float(np.dot(grid.weights, grid.nodes ** -0.4))
    assert abs(val - 1.0 / 0.6) * 0.6 <= 1e-4


def test_grid_is_its_size():
    # n is the grid's one field, its arrays are derived from it, so grids
    # compare and hash by n
    grid = fr.build_grid(64)
    assert [f.name for f in dataclasses.fields(grid)] == ["n"]
    assert grid == fr.build_grid(64) == fr.QuadratureGrid(64)
    assert grid != fr.build_grid(68) and len({grid, fr.build_grid(64)}) == 1
    assert type(fr.build_grid(np.int64(64)).n) is int


# ------------------------------------------------------------ assembly

def test_far_field_matches_plain_rule_and_is_symmetric(op64):
    grid, tab = op64.grid, op64.tables
    # far entries are literally w_j * k1(s_j, u_i); columns in the first
    # cell are excluded because they always carry product weights
    for i, j in ((5, 40), (60, 13), (20, 55)):
        expect = grid.weights[j] * tab.k1(grid.nodes[j], grid.nodes[i])
        assert op64.matrix[i, j] == pytest.approx(expect, rel=1e-14)
    # and the weighted far block is symmetric to roundoff
    rw = np.sqrt(grid.weights)
    s = rw[:, None] * op64.matrix / rw[None, :]
    cells = np.arange(64) // 4
    far = (np.abs(cells[:, None] - cells[None, :]) > fr._NEAR_RADIUS) \
        & (cells[:, None] != 0) & (cells[None, :] != 0)
    assert np.max(np.abs(s - s.T)[far]) <= 1e-12


def test_near_field_asymmetry_is_inherent_and_small(op64):
    # product quadrature treats the kernel's two arguments differently
    # near the diagonal; the effect is O(percent), not roundoff
    asym = oracles.asymmetry(op64)
    assert 1e-3 < asym < 0.1


def test_row_at_node_reproduces_matrix_row(op64):
    for i in (0, 17, 40, 63):
        row = oracles.row(op64, float(op64.grid.nodes[i]))
        assert np.max(np.abs(row - op64.matrix[i])) <= 1e-15
    with pytest.raises(DomainError):
        oracles.row(op64, 0.0)
    assert np.all(np.isfinite(oracles.row(op64, 1.0)))


def test_operator_positivity(op128):
    eig = oracles.spectrum_report(op128)
    assert eig[-1] >= -1e-8
    assert eig[-1] > 1e-4  # strictly positive in practice
    da = op128.grid.weights[:, None] * op128.matrix
    rng = np.random.default_rng(11)
    for f in rng.standard_normal((100, 128)):
        assert f @ da @ f >= -1e-8 * (f @ f)


def test_spectrum_shape(op128):
    eig = oracles.spectrum_report(op128)
    assert np.all(np.diff(eig[:21]) < 0)  # compact: leading part decays
    assert eig[0] == pytest.approx(1.197963, rel=1e-5)
    assert eig[1] == pytest.approx(0.257275, rel=1e-4)
    assert eig[2] == pytest.approx(0.184799, rel=1e-4)


def test_frobenius_approaches_kernel_l2_norm(op64, op128, op256):
    fro = np.array([oracles.frobenius_norm(op) for op in (op64, op128, op256)])
    assert fro == pytest.approx([1.300070, 1.310299, 1.319158], rel=1e-4)
    l2 = oracles.k1_l2_norm(op256.tables)
    assert l2 == pytest.approx(1.377286, rel=1e-4)
    # nodal rules cannot see the diagonal band, so the estimate climbs
    # toward the true norm from below; successive levels agree within 1%
    gaps = l2 - fro
    assert np.all(fro < l2) and np.all(np.diff(fro) > 0)
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(fro[1] - fro[0]) / fro[1] < 0.01
    assert abs(fro[2] - fro[1]) / fro[2] < 0.01


def test_assemble_validation(ctx):
    grid = fr.build_grid(8)
    bad = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.7)))
    with pytest.raises(DomainError):
        fr.assemble(KernelContext(constants=bad), grid)


def test_assemble_refuses_non_finite_entries(ctx, monkeypatch):
    real_tables = fr.get_tables

    class NaNTables:
        """The model's tables, with kernels that read NaN."""

        def __init__(self, h1, h2):
            self.tables = real_tables(h1, h2)

        def __getattr__(self, name):
            return getattr(self.tables, name)

        def k1(self, s, u):
            return np.full(np.broadcast(s, u).shape, np.nan)

        def c(self, x):
            return np.full(np.shape(x), np.nan)

    monkeypatch.setattr(fr, "get_tables", NaNTables)
    with pytest.raises(AccuracyError, match="non-finite entries"):
        fr.assemble(ctx, fr.build_grid(32))


def test_operator_and_solution_compare_without_raising(op64, sol64, sol128):
    # an operator is equal only to itself; a solution compares as its
    # record does, and neither compares arrays
    assert op64 in [op64] and {op64} == {op64}
    assert op64 != dataclasses.replace(op64)
    assert sol64 in [sol64] and sol64 != sol128
    assert len({sol64, sol128, sol64}) == 2
    assert sol64 == dataclasses.replace(sol64, residual_sup=0.0)


# --------------------------------------------------------------- solve

def test_solve_basic(sol128, cons):
    assert sol128.lam == pytest.approx(cons.lambda_of_T(1.0), rel=1e-14)
    assert sol128.lam == pytest.approx(0.8356727780475772, rel=1e-12)
    assert sol128.condition < 10.0
    assert sol128.residual_sup <= 1e-5
    assert sol128.qv_N == pytest.approx(0.74836074, rel=1e-6)
    assert np.all(sol128.h_hat > 0)


def test_residual_is_nontrivial(sol128):
    # a residual of exact zero would mean the scan is blind to the solve
    assert 1e-8 < sol128.residual_sup < 1e-5


def test_nystrom_consistency(sol128):
    # the grid and extension residuals come from the per-call audit
    rep = oracles._scan_residuals(
        sol128.operator, sol128.lam, 1.0, sol128.h_hat,
        fr._rhs_values(sol128.grid.nodes, 1.0, H1), sol128.spline)
    assert rep.reconstruction_sup <= 1e-5
    assert rep.on_grid_sup <= 1e-6
    assert rep.extension_sup <= 10.0 * rep.on_grid_sup
    assert rep.on_grid_sup <= rep.reconstruction_sup
    assert 0.0 < sol128.worst_u < 1.0 and sol128.worst_u == rep.worst_u


@pytest.mark.parametrize("sigma", [1.0, 1.7])
@pytest.mark.parametrize("n", [64, 128])
def test_planned_audit_matches_per_call_audit(request, n, sigma):
    # the operator's audit plan against the audit that formed its rows
    # and spline integrals on every call (oracles.py).  The extended
    # spline is the same arithmetic; the kernel integrals are summed in
    # another order, so the residuals agree to roundoff of their O(1)
    # terms: 1e-9 relative
    op = request.getfixturevalue(f"op{n}")
    cons = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=sigma))
    for T in (1.0, 5.0, 25.0, 125.0):
        sol = fr.solve_second_kind(op, T, cons, residual_tol=1e-3)
        spline = oracles._extended_spline(op, sol.lam, T, sol.h_hat)
        rhs = fr._rhs_values(op.grid.nodes, T, H1)
        ref = oracles._scan_residuals(op, sol.lam, T, sol.h_hat, rhs, spline)
        got = fr.residual_report(sol)
        np.testing.assert_array_equal(sol.spline.x, spline.x)
        assert np.max(np.abs(sol.spline.y / spline.y - 1.0)) <= 1e-14
        assert got.reconstruction_sup == sol.residual_sup
        assert got.reconstruction_sup == pytest.approx(
            ref.reconstruction_sup, rel=1e-9, abs=0.0)
        assert got.worst_u == ref.worst_u == sol.worst_u


def test_self_convergence(sol64, sol128, sol256, sol512):
    def dist(a, b):
        sp = CubicSpline(a.grid.x_nodes, a.h_hat * a.grid.nodes ** (H1 - 0.5))
        v = sp(b.grid.x_nodes) * b.grid.nodes ** (0.5 - H1)
        scale = np.sqrt(np.dot(b.grid.weights, b.h_hat ** 2))
        return float(np.sqrt(np.dot(b.grid.weights, (v - b.h_hat) ** 2)) / scale)

    d = [dist(sol64, sol128), dist(sol128, sol256), dist(sol256, sol512)]
    assert d[0] > d[1] > d[2]
    assert d[0] < 1e-4
    assert dist(sol128, sol512) <= 1e-5  # well under the 1e-3 contract


def test_residual_improves_with_resolution(sol64, sol128, sol256):
    r = [s.residual_sup for s in (sol64, sol128, sol256)]
    assert r[0] > r[1] > r[2]
    assert r[2] <= 2e-6


def test_solve_validation(op128, cons):
    with pytest.raises(DomainError):
        fr.solve_second_kind(op128, 0.0, cons)
    with pytest.raises(DomainError):
        fr.solve_second_kind(op128, -2.0, cons)
    other = derive_constants(ModelParams(hurst=HurstPair(0.55, 0.85)))
    with pytest.raises(DomainError):
        fr.solve_second_kind(op128, 1.0, other)


def _acting_as(op, cons, lam):
    """The operator scaled so that the physical coupling at T = 1 times
    its matrix is ``lam`` times op's."""
    return dataclasses.replace(op, matrix=op.matrix * lam
                               / cons.lambda_of_T(1.0))


def test_singular_coupling_raises(op64, cons):
    lam_bad = -1.0 / oracles.spectrum_report(op64)[0]
    with pytest.raises(IllConditionedError, match="spectral"):
        fr.solve_second_kind(_acting_as(op64, cons, lam_bad), 1.0, cons)


def test_near_singular_coupling_warns(op64, cons):
    lam_near = -1.0 / (oracles.spectrum_report(op64)[0] * (1.0 + 3e-6))
    with pytest.warns(AccuracyWarning, match="spectral point"):
        fr.solve_second_kind(_acting_as(op64, cons, lam_near), 1.0, cons,
                             residual_tol=np.inf)


@pytest.mark.parametrize("k", range(-4, 5))
def test_spectral_verdict_survives_roundoff(op64, cons, k):
    # the verdict reads the condition estimate (4.5e7 at the spectral
    # point, 2.7e6 next to it), which a relative change of 1e-15 in the
    # matrix leaves on its side of the 1e7 bound
    op = dataclasses.replace(op64, matrix=op64.matrix * (1.0 + k * 1e-15))
    top = oracles.spectrum_report(op64)[0]
    with pytest.raises(IllConditionedError, match="spectral"):
        fr.solve_second_kind(_acting_as(op, cons, -1.0 / top), 1.0, cons)
    with pytest.warns(AccuracyWarning, match="spectral point"):
        fr.solve_second_kind(
            _acting_as(op, cons, -1.0 / (top * (1.0 + 3e-6))), 1.0, cons,
            residual_tol=np.inf)


def test_residual_flagging_warns(op64, cons):
    with pytest.warns(AccuracyWarning, match="exceeds"):
        fr.solve_second_kind(op64, 1.0, cons, residual_tol=1e-12)


# ------------------------------------------------- degenerate couplings

def test_zero_kernel_stub(op64, cons):
    # sigma -> infinity: the coupling vanishes (1.3e-200 at sigma = 1e100)
    # and the equation reduces to h_hat = rhs
    big_sigma = derive_constants(ModelParams(hurst=HurstPair(H1, H2),
                                             sigma=1e100))
    sol = fr.solve_second_kind(op64, 2.0, big_sigma)
    assert sol.lam < 1e-199
    op = sol.operator
    rhs = (op.grid.nodes * 2.0) ** (0.5 - H1)
    assert np.array_equal(sol.h_hat, rhs)
    assert sol.residual_sup <= 1e-12
    # information over sigma^2 reduces to the plain power integral
    expect = cons.epsilon_h1 * 2.0 ** (2.0 - 2.0 * H1)
    assert sol.qv_N / big_sigma.sigma ** 2 == pytest.approx(expect, rel=5e-5)
    h_T = oracles.unscale(sol)
    for t in (1e-3, 0.5, 1.7, 2.0):
        assert h_T(t) == pytest.approx(1.0, abs=1e-10)


def test_rank_one_kernel_matches_analytic_solve(op64, cons):
    # plain Nystrom matrix of the constant kernel, divided by the
    # coupling so that the system is I + that matrix; the residual audit
    # still checks against k1, so its tolerance is switched off
    const = 0.5
    w = op64.grid.weights
    op = fr.DiscretizedOperator(
        matrix=np.tile(w * const, (w.size, 1)) / cons.lambda_of_T(1.0),
        grid=op64.grid, tables=op64.tables)
    sol = fr.solve_second_kind(op, 1.0, cons, residual_tol=np.inf)
    rhs = op.grid.nodes ** (0.5 - H1)
    mean = float(np.dot(op.grid.weights, rhs))
    expect = rhs - const * mean / (1.0 + const)
    assert np.max(np.abs(sol.h_hat - expect)) <= 1e-10


# ----------------------------------------------------------- unscaling

def test_unscale_reproduces_nodal_values(sol128):
    h_T = oracles.unscale(sol128)
    nodes = sol128.grid.nodes
    for i in (3, 60, 127):
        t = float(nodes[i])
        expect = sol128.h_hat[i] * t ** (H1 - 0.5)
        assert h_T(t) == pytest.approx(expect, rel=1e-13)


def test_unscale_between_nodes_matches_reference(sol128, sol512):
    h128, h512 = oracles.unscale(sol128), oracles.unscale(sol512)
    ts = np.array([0.037, 0.21, 0.44, 0.68, 0.83, 0.97])
    vals = h128(ts)
    assert vals == pytest.approx([h128(float(t)) for t in ts], rel=1e-14)
    assert vals == pytest.approx(h512(ts), rel=1e-6)
    assert h128(1.0) == pytest.approx(0.55943982, rel=1e-6)


def test_unscale_domain(sol128):
    h_T = oracles.unscale(sol128)
    for bad in (0.0, -0.3, 1.0 + 1e-9):
        with pytest.raises(DomainError):
            h_T(bad)
    with pytest.raises(DomainError):
        h_T(np.array([0.5, 1.2]))


# ----------------------------------------------------- information <N>

def test_qv_monotone_in_horizon(op128, sol128, cons):
    sol2 = fr.solve_second_kind(op128, 2.0, cons)
    assert sol2.qv_N == pytest.approx(1.03626693, rel=1e-6)
    assert sol2.qv_N > sol128.qv_N
    assert oracles.quadratic_variation_N(sol128, cons) == sol128.qv_N


def test_qv_energy_identity(sol64, cons):
    # dual route: the information must equal the summed energies of the
    # filter against the two independent noise channels,
    #   sigma^2 gamma^2 int h~^2 dt  +  int int h~ h~ k1 ds dt,
    # recomputed here with the layered quadrature, not the solve matrix
    op = sol64.operator
    spline = fr._extended_spline(op, sol64.lam, 1.0, sol64.h_hat)
    phi = lambda s: spline(fr._graded_map_inv(np.asarray(s, float)))
    w, nodes = op.grid.weights, op.grid.nodes
    sg2 = (cons.sigma * cons.gamma_h1) ** 2
    e1 = sg2 * float(np.dot(w, sol64.h_hat ** 2))
    kints = oracles._kernel_integrals(op.tables, nodes, phi)
    e2 = float(np.dot(w, sol64.h_hat * nodes ** (H1 - 0.5) * kints))
    assert (e1 + e2) == pytest.approx(sol64.qv_N, rel=1e-6)


def test_qv_rejects_nonpositive(sol128, cons):
    bad = dataclasses.replace(sol128, h_hat=-np.ones(sol128.grid.n))
    with pytest.raises(AccuracyError):
        oracles.quadratic_variation_N(bad, cons)
