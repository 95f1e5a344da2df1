"""The batched ladder-quadrature engine against the scalar ladders it replaced.

The references in ``oracles.py`` integrate one specification at a time,
panel by panel; the engine lays out the panels of a whole batch at once
and sums per segment.  Only the order of summation differs, so the two
agree to a few ulps.
"""
import numpy as np
import pytest

import oracles
from mixedfbm import fredholm as fr
from mixedfbm import closed_form, kernels, numerics
from mixedfbm.kernels import _layered_01, _layered_batch, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants

H1, H2 = 0.6, 0.9
A_GAP = H2 - H1
RTOL = 1e-13


@pytest.fixture(scope="module")
def tables():
    return get_tables(H1, H2)


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


def _rel(got, ref):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


# ------------------------------------------------------- layered ladder

def _kinked(z):
    return np.abs(z - 0.4731) ** 0.5 + np.abs(z - 0.9613) ** 0.5


@pytest.mark.parametrize("z_left,z_right", [
    (None, None), (1e-12, None), (3e-7, None), (0.019, None), (0.0295, None),
    (0.25, None), (0.7, None), (None, 1e-10), (None, 0.3), (1e-9, 1e-9),
    (1e-10, 0.04), (0.0295, 0.0585),
])
@pytest.mark.parametrize("p,q,n", [(-0.6, -0.1, 24), (0.3, -0.4, 12),
                                   (-0.2, 0.0, 32)])
def test_layered_01_matches_scalar_ladder(p, q, n, z_left, z_right):
    # the kinks make the sum depend on where the panels break, so the
    # panel layout must match, not only the integral
    f = lambda z: np.cos(2.0 * z) * (0.01 + z) ** 0.3 + _kinked(z)
    got = _layered_01(f, p, q, n, z_left, z_right)
    ref = oracles._layered_01(f, p, q, n, z_left, z_right)
    assert _rel(got, ref) <= RTOL


def test_layered_batch_ragged_left_ladders():
    # the m profile: a ladder at x/(1-x) below x = 0.2, none above
    x = np.concatenate([np.geomspace(1e-12, 0.5, 40), 1.0 - np.geomspace(1e-12, 0.5, 9)])
    zl = np.where(x < 0.2, x / (1.0 - x), np.nan)
    got = _layered_batch(lambda z, i: (x[i] + (1.0 - x[i]) * z) ** A_GAP + _kinked(z),
                         H2 - 1.5, 0.5 - H1, 24, zl, np.nan)
    ref = [oracles._layered_01(lambda z: (xi + (1.0 - xi) * z) ** A_GAP + _kinked(z),
                               H2 - 1.5, 0.5 - H1, 24,
                               z_left=xi / (1.0 - xi) if xi < 0.2 else None)
           for xi in x]
    assert np.any(x < 0.2) and np.any(x >= 0.2)
    assert _rel(got, ref) <= RTOL


def test_layered_batch_ragged_right_ladders_across_chunks():
    # the c profile: the right ladder follows (1-x)/x above x = 0.5; more
    # specifications than one chunk holds
    x = np.linspace(0.01, 1.0 - 1e-9, 150)
    zr = np.where(x > 0.5, np.maximum((1.0 - x) / x, 1e-10), 1e-10)
    f = lambda z, xi: (1.0 - z * xi) ** (A_GAP - 1.0) * np.exp(-z) + _kinked(z)
    got = _layered_batch(lambda z, i: f(z, x[i]), 1.0 - 2.0 * H2, A_GAP - 1.0,
                         24, 1e-10, zr)
    ref = [oracles._layered_01(lambda z: f(z, xi), 1.0 - 2.0 * H2,
                               A_GAP - 1.0, 24, z_left=1e-10, z_right=zr_i)
           for xi, zr_i in zip(x, zr)]
    assert x.size > kernels._CHUNK_NODES // (2 * (kernels._LADDER_STEPS + 1) * 24)
    assert _rel(got, ref) <= RTOL


# --------------------------------------------------------- table samples

def _knots(side):
    grid = np.geomspace(kernels._PROFILE_XMIN, 0.5, kernels._PROFILE_PER_SIDE)
    idx = [0, 1, 250, 700, 1000, 1200, 1400, 1499]
    return np.log(grid[idx]), grid[idx] if side == "left" else 1.0 - grid[idx]


@pytest.mark.parametrize("side", ["left", "right"])
def test_table_samples_match_scalar_ladder(tables, side):
    a, beta2, nq = A_GAP, tables.beta2, 24
    psi, m_spl = tables.psi_d, tables.m

    def m_at(x):
        return oracles._layered_01(lambda z: (x + (1.0 - x) * z) ** a,
                                   H2 - 1.5, 0.5 - H1, nq,
                                   z_left=x / (1.0 - x) if x < 0.2 else None)

    def n_at(y):
        return oracles._layered_01(lambda z: (y + (1.0 - y) * z) ** (a - 1.0),
                                   H2 - 0.5, 0.5 - H1, nq,
                                   z_left=y / (1.0 - y) if y < 0.2 else None)

    def c_at(x):
        fsm = lambda w: (1.0 - w * x) ** (a - 1.0) * psi(w) * psi(w * x)
        zr = max((1.0 - x) / x, 1e-10) if x > 0.5 else 1e-10
        return (1.0 - x) ** (1.0 - 2.0 * a) * oracles._layered_01(
            fsm, 1.0 - 2.0 * H2, a - 1.0, nq, z_left=1e-10, z_right=zr)

    def rho_at(x):
        fsm = lambda y: (1.0 - x * y) ** a * m_spl(x * y) * m_spl(y)
        return beta2 * beta2 * oracles._layered_01(
            fsm, 1.0 - 2.0 * H2, a, 32, z_left=1e-10, z_right=1e-10)

    logs, xs = _knots(side)
    for name, ref_fn in (("m", m_at), ("n", n_at), ("c", c_at), ("rho", rho_at)):
        spl = getattr(tables, name)
        chart = spl._left if side == "left" else spl._right
        got = chart(logs)
        ref = [ref_fn(float(x)) for x in xs]
        assert _rel(got, ref) <= 1e-12, name


# ---------------------------------------------------------- cell moments

def _cell(grid, k):
    return (grid.cell_edges[k], grid.cell_edges[k + 1],
            grid.nodes[4 * k:4 * k + 4])


def _moment_cases():
    grid = fr.build_grid(64)
    cases = []
    left, right, sn = _cell(grid, 5)
    width = right - left
    cases += [
        ("u on the right edge", right, left, right, sn),
        ("u one ulp above the right edge", np.nextafter(right, 1.0), left, right, sn),
        ("u beyond the right edge", right + 0.3 * width, left, right, sn),
        ("u far beyond the right edge", 0.9, left, right, sn),
        ("u on the left edge", left, left, right, sn),
        ("u one ulp below the left edge", np.nextafter(left, 0.0), left, right, sn),
        ("u before the left edge", left - 0.01 * width, left, right, sn),
        ("u interior", left + 0.37 * width, left, right, sn),
        ("u interior near the left edge", left + 1e-9 * width, left, right, sn),
    ]
    left0, right0, sn0 = _cell(grid, 0)
    cases += [
        ("first cell, u interior", 0.4 * right0, left0, right0, sn0),
        ("first cell, u on its right edge", right0, left0, right0, sn0),
        ("first cell, u just beyond", right0 * 1.01, left0, right0, sn0),
        ("first cell, u beyond", right0 * 7.0, left0, right0, sn0),
        ("first cell, u far beyond", 0.6, left0, right0, sn0),
    ]
    leftn, rightn, snn = _cell(grid, grid.n_cells - 1)
    cases += [("last cell, u interior near 1", 1.0 - 1e-7, leftn, rightn, snn),
              ("last cell, u = 1", 1.0, leftn, rightn, snn)]
    return cases


CASES = _moment_cases()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cell_moments_match_scalar_branches(tables, case):
    _, u, left, right, sn = case
    got = fr._cell_moments(tables, [u], [left], [right], [sn])[0]
    ref = oracles._cell_moments(tables, u, left, right, sn)
    assert np.all(np.isfinite(got))
    assert _rel(got, ref) <= RTOL


def test_cell_moments_one_batch_over_all_branches(tables):
    u, left, right, sn = (np.array([c[i] for c in CASES]) for i in range(1, 5))
    got = fr._cell_moments(tables, u, left, right, sn)
    ref = np.array([oracles._cell_moments(tables, *c[1:]) for c in CASES])
    assert got.shape == (len(CASES), 4)
    assert _rel(got, ref) <= RTOL


# ------------------------------------------------------ batched entry points

def test_quadrature_rows_match_scalar_rows(cons):
    op = fr.assemble(kernels.KernelContext(constants=cons), fr.build_grid(64))
    us = np.concatenate([op.grid.nodes[::7], [0.5, 1.0, 1e-6]])
    batch = op._rows(us)
    for u, row in zip(us, batch):
        assert np.max(np.abs(row - op.row(float(u)))) <= 1e-15


def test_kernel_integrals_batch_matches_scalar(tables):
    phi = lambda s: np.cos(3.0 * np.asarray(s))
    us = np.array([1e-7, 0.01, 0.3, 0.77, 1.0] * 10)
    got = np.empty(us.size)
    for sl, s, w in fr._kernel_rules(tables, us):
        got[sl] = (w * phi(s)).sum(1)
    ref = oracles._kernel_integrals(tables, us, phi)
    assert us.size > fr._CHUNK_POINTS
    assert _rel(got, ref) <= RTOL


def test_h0_batch_matches_scalar_ladder(cons):
    # h0 integrates one ladder per point, all points in one batch; the
    # reference runs the scalar ladder per point on the same integrand,
    # across several chunks of the batch and every ladder scale regime
    v = np.concatenate([np.geomspace(1e-9, 0.3, 30), np.linspace(0.31, 0.69, 9),
                        1.0 - np.geomspace(0.3, 1e-9, 30)])
    alpha, q = H1 - 0.5, 0.5 - H2
    ladders = [(1.0 - vi) ** (alpha + q) * oracles._layered_01(
        lambda x: (vi + (1.0 - vi) * x) ** (H1 - H2), alpha - 1.0, q, 24,
        min(max(vi / (1.0 - vi), 1e-12), 0.4), None) for vi in v]
    c6 = closed_form.constant_chain(1.0 / cons.gamma_h1**2, cons).c6
    ref = c6 / numerics.gamma_fn(alpha) * v ** (0.5 - H1) * np.array(ladders)
    assert _rel(closed_form.h0(v, cons), ref) <= RTOL


# -------------------------------------------------------------- work counts

def _audit_counts(monkeypatch, sol):
    counts = {"jacobi_panels": 0, "spline": 0}
    rule = numerics.jacobi_panels

    def counting_rule(*args, **kwargs):
        counts["jacobi_panels"] += 1
        return rule(*args, **kwargs)

    spline_call = kernels._EdgeSpline.__call__

    def counting_spline(self, x):
        counts["spline"] += 1
        return spline_call(self, x)

    with monkeypatch.context() as mp:
        for module in (numerics, kernels, fr):
            mp.setattr(module, "jacobi_panels", counting_rule)
        mp.setattr(kernels._EdgeSpline, "__call__", counting_spline)
        fr.residual_report(sol)
    return counts


def test_audit_work_counts_do_not_grow_per_point(monkeypatch, cons):
    # the audit forms rows at 6n points (3n extension samples, 3n probes)
    # and kernel integrals at 4n (the probes and the nodes); batched, it
    # builds no Gauss rule and calls a profile spline about twice per
    # chunk of points, where per-point loops made ~130 spline calls and
    # ~130 rule calls per point
    ctx = kernels.KernelContext(constants=cons)
    counts = {}
    for n in (64, 128):
        sol = fr.solve_second_kind(fr.assemble(ctx, fr.build_grid(n)), 1.0,
                                   cons, residual_tol=1e-3)
        counts[n] = _audit_counts(monkeypatch, sol)
    assert counts[128]["jacobi_panels"] == counts[64]["jacobi_panels"] == 0
    for n in (64, 128):
        assert counts[n]["spline"] <= 2 * 10 * n / fr._CHUNK_POINTS + 4
    assert counts[128]["spline"] <= 2 * counts[64]["spline"]


def test_later_horizons_reuse_the_operators_audit_plan(monkeypatch, cons):
    # the audit's quadrature rows and kernel-integral ladders belong to
    # the operator: its first solve lays them out, and a later horizon
    # or a residual_report forms none of them again
    names = ("_quadrature_rows", "_kernel_rules", "_ladder_rule_one")
    counts = dict.fromkeys(names, 0)

    def count(name):
        call = getattr(fr, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(fr, name, counting)

    for name in names:
        count(name)
    op = fr.assemble(kernels.KernelContext(constants=cons), fr.build_grid(64))
    counts.update(dict.fromkeys(names, 0))
    first = fr.solve_second_kind(op, 1.0, cons, residual_tol=1e-3)
    assert counts["_quadrature_rows"] > 0 and counts["_ladder_rule_one"] > 0
    counts.update(dict.fromkeys(names, 0))
    fr.solve_second_kind(op, 5.0, cons, residual_tol=1e-3)
    fr.residual_report(first)
    assert counts == dict.fromkeys(names, 0)
