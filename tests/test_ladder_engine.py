"""The batched ladder-quadrature engine against the scalar ladders it replaced.

The references in ``oracles.py`` integrate one specification at a time,
panel by panel; the engine lays out the panels of a whole batch at once
and sums per segment.  Only the order of summation differs, so the two
agree to a few ulps.
"""
import mpmath
import numpy as np
import pytest

import oracles
from mixedfbm import fredholm as fr
from mixedfbm import closed_form, harness, kernels, numerics
from mixedfbm.kernels import _ladder_rule_one, get_tables
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
    z, w = _ladder_rule_one(p, q, n, z_left, z_right)
    got = np.dot(w, f(z))
    ref = oracles._layered_01(f, p, q, n, z_left, z_right)
    assert _rel(got, ref) <= RTOL


def test_layered_batch_ragged_left_ladders():
    # the m profile: a ladder at x/(1-x) below x = 0.2, none above
    x = np.concatenate([np.geomspace(1e-12, 0.5, 40), 1.0 - np.geomspace(1e-12, 0.5, 9)])
    zl = np.where(x < 0.2, x / (1.0 - x), np.nan)
    got = oracles._layered_batch(
        lambda z, i: (x[i] + (1.0 - x[i]) * z) ** A_GAP + _kinked(z),
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
    got = oracles._layered_batch(lambda z, i: f(z, x[i]), 1.0 - 2.0 * H2,
                                 A_GAP - 1.0, 24, 1e-10, zr)
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
    for name, ref_fn in (("c", c_at), ("rho", rho_at)):
        spl = getattr(tables, name)
        chart = spl._left if side == "left" else spl._right
        got = chart(logs)
        ref = [ref_fn(float(x)) for x in xs]
        assert _rel(got, ref) <= 1e-12, name


def _c_points():
    """Both charts of the c profile, x = 1/2 and its neighbours, and the
    x around 1/(1+1e-10), where the right ladder's scale (1-x)/x crosses
    its floor 1e-10."""
    grid = np.geomspace(kernels._PROFILE_XMIN, 0.5, 300)
    cross = [1.0 / (1.0 + 1e-10)]
    for _ in range(3):
        cross = [np.nextafter(cross[0], 0.0)] + cross + [np.nextafter(cross[-1], 1.0)]
    x = np.concatenate([grid, 1.0 - grid, [np.nextafter(0.5, 0.0), 0.5,
                                           np.nextafter(0.5, 1.0)], cross])
    scale = (1.0 - x) / x
    assert np.any(x == 0.5) and np.any(scale > 1e-10) and np.any(
        (x > 0.5) & (scale <= 1e-10))
    return x


@pytest.mark.parametrize("h1,h2", [(0.6, 0.9), (0.55, 0.82), (0.6, 0.86),
                                   (0.7, 0.99)])
def test_c_samples_match_per_sample_ladders(h1, h2):
    # the shared rule moves only the order of summation: one matrix
    # product per chunk on it, plus per-sample right ladders at w >= 1/2,
    # against one full ladder per sample.  (0.6, 0.86) is near the gap
    # edge h2 - h1 = 1/4
    tab = kernels.KernelTables(h1, h2)
    x = _c_points()
    assert _rel(tab._c_samples(x), oracles.c_samples(tab, x)) <= 1e-14


def test_c_build_reads_psi_once_on_the_shared_rule(monkeypatch):
    # one c build (both charts) asks once for the shared rule and
    # evaluates psi at its nodes once; the only other Gauss rules it
    # builds are the w >= 1/2 ladders of the right-chart samples whose
    # scale (1-x)/x exceeds 1e-10, and every integrand temporary stays
    # within _CHUNK_NODES nodes
    tab = kernels.KernelTables(H1, H2)
    psi = tab.psi_d
    shared, panels, psi_args, inside = [], [], [], []
    rule_one, rule = kernels._ladder_rule_one, kernels.jacobi_panels
    spline_call = kernels._EdgeSpline.__call__

    def counting_rule_one(*args):
        shared.append(args)
        inside.append(True)
        try:
            return rule_one(*args)
        finally:
            inside.pop()

    def counting_rule(n, lo, *args):
        if not inside:
            panels.append(np.size(lo))
        return rule(n, lo, *args)

    def counting_spline(self, x):
        if self is psi:
            psi_args.append(np.asarray(x))
        return spline_call(self, x)

    with monkeypatch.context() as mp:
        mp.setattr(kernels, "_ladder_rule_one", counting_rule_one)
        mp.setattr(kernels, "jacobi_panels", counting_rule)
        mp.setattr(kernels._EdgeSpline, "__call__", counting_spline)
        tab.c

    assert shared == [(1.0 - 2.0 * H2, A_GAP - 1.0, 24, 1e-10, 1e-10)]
    nodes = rule_one(*shared[0])[0]
    flat = [a for a in psi_args if a.ndim == 1]
    assert len(flat) == 1 and np.array_equal(flat[0], nodes)
    assert max(a.size for a in psi_args) <= kernels._CHUNK_NODES
    x = 1.0 - np.geomspace(kernels._PROFILE_XMIN, 0.5, kernels._PROFILE_PER_SIDE)
    own = (x > 0.5) & ((1.0 - x) / x > 1e-10)
    scale = np.clip((1.0 - x[own]) / x[own], 1e-12, 0.25)
    steps = scale[:, None] * 2.0 ** np.arange(kernels._LADDER_STEPS)
    # the panels (0, s), (s, 2s), ..., (s 2^K, 1/2) in 1-w per sample
    assert sum(panels) == np.sum(steps < 0.5) + scale.size


@pytest.mark.parametrize("h1,h2", [(0.6, 0.9), (0.55, 0.82), (0.7, 0.99),
                                   (0.51, 0.8), (0.6, 0.86)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_table_m_n_samples_match_mpmath(h1, h2, side):
    # m and n are Euler integrals of 2F1 (DLMF 15.6.1); mpmath at 30
    # digits evaluates the same closed forms at the spline knots
    tab = kernels.KernelTables(h1, h2)
    logs, xs = _knots(side)
    with mpmath.workdps(30):
        a = mpmath.mpf(h2) - mpmath.mpf(h1)
        m_at = lambda x: x ** a * mpmath.beta(h2 - 0.5, 1.5 - h1) * \
            mpmath.hyp2f1(-a, h2 - 0.5, 1 + a, -(1 - x) / x)
        n_at = lambda y: y ** (a - 1) * mpmath.beta(h2 + 0.5, 1.5 - h1) * \
            mpmath.hyp2f1(1 - a, h2 + 0.5, 2 + a, -(1 - y) / y)
        for name, ref_fn in (("m", m_at), ("n", n_at)):
            spl = getattr(tab, name)
            chart = spl._left if side == "left" else spl._right
            ref = [float(ref_fn(mpmath.mpf(float(x)))) for x in xs]
            assert _rel(chart(logs), ref) <= 1e-14, name


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
    batch = fr._quadrature_rows(op.tables, op.grid, us)
    for u, row in zip(us, batch):
        assert np.max(np.abs(row - oracles.row(op, float(u)))) <= 1e-15


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
    # the scalar ladder per point on h0's fractional integral, across
    # every ladder scale regime, against the shipped hypergeometric form
    # (measured 3.2e-14) and against the batched quadrature it replaced,
    # which lays one ladder per point over several chunks of one batch
    v = np.concatenate([np.geomspace(1e-9, 0.3, 30), np.linspace(0.31, 0.69, 9),
                        1.0 - np.geomspace(0.3, 1e-9, 30)])
    alpha, q = H1 - 0.5, 0.5 - H2
    ladders = [(1.0 - vi) ** (alpha + q) * oracles._layered_01(
        lambda x: (vi + (1.0 - vi) * x) ** (H1 - H2), alpha - 1.0, q, 24,
        min(max(vi / (1.0 - vi), 1e-12), 0.4), None) for vi in v]
    c6 = oracles.constant_chain(1.0 / cons.gamma_h1**2, cons).c6
    ref = c6 / numerics.gamma_fn(alpha) * v ** (0.5 - H1) * np.array(ladders)
    assert _rel(closed_form.h0(v, cons), ref) <= RTOL
    assert _rel(oracles.h0(v, cons), ref) <= RTOL


# -------------------------------------------------------------- work counts

def _work_counts(monkeypatch, call):
    """Gauss-rule builds and profile-spline calls made by call()."""
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
        call()
    return counts


def test_audit_work_counts_do_not_grow_per_point(monkeypatch, cons):
    # the first solve on an operator builds its audit plan: rows at 0.75n
    # extension points and kernel integrals at the 3n probes.  Batched,
    # it forms one Gauss-rule batch per chunk of row points (plus, once
    # per process, the two memoized kernel-integral ladders) and calls a
    # profile spline about twice per chunk of points, where per-point
    # loops made ~130 spline calls and ~130 rule calls per point.  The
    # first residual_report reruns the scan on that plan: no rule, no
    # profile spline
    ctx = kernels.KernelContext(constants=cons)
    chunks = lambda m: -(-m // fr._CHUNK_POINTS)
    counts = {}
    for n in (64, 128):
        op = fr.assemble(ctx, fr.build_grid(n))
        sol = []
        solve = _work_counts(monkeypatch, lambda: sol.append(
            fr.solve_second_kind(op, 1.0, cons, residual_tol=1e-3)))
        report = _work_counts(monkeypatch,
                              lambda: fr.residual_report(sol[0]))
        counts[n] = solve
        assert 0 < solve["jacobi_panels"] <= chunks(3 * n // 4) + 2
        assert 0 < solve["spline"] <= 2 * (15 * n // 4) / fr._CHUNK_POINTS + 4
        assert report == {"jacobi_panels": 0, "spline": 0}
    assert counts[128]["spline"] <= 2 * counts[64]["spline"]


def _audit_points(monkeypatch):
    """Points at which fredholm forms quadrature rows and kernel-integral
    rules, and its calls of the memoized ladder rule, as they happen."""
    points = {"_quadrature_rows": 0, "_kernel_rules": 0}
    calls = {"_ladder_rule_one": 0}

    def count(name, tally, size):
        call = getattr(fr, name)

        def counting(*args, **kwargs):
            tally[name] += size(*args)
            return call(*args, **kwargs)

        monkeypatch.setattr(fr, name, counting)

    count("_quadrature_rows", points, lambda *a: a[2].size)
    count("_kernel_rules", points, lambda *a: a[1].size)
    count("_ladder_rule_one", calls, lambda *a: 1)
    return points, calls


def test_later_horizons_reuse_the_operators_audit_plan(monkeypatch, cons):
    # the audit's quadrature rows and kernel-integral ladders belong to
    # the operator.  Its first solve forms rows at the 0.75n extension
    # points and kernel integrals at the 3n probes only; a later horizon
    # forms none, and neither does a residual_report, the first included.
    points, calls = _audit_points(monkeypatch)

    def reset():
        points.update(dict.fromkeys(points, 0))
        calls.update(dict.fromkeys(calls, 0))

    n = 64
    op = fr.assemble(kernels.KernelContext(constants=cons), fr.build_grid(n))
    reset()
    first = fr.solve_second_kind(op, 1.0, cons, residual_tol=1e-3)
    assert points == {"_quadrature_rows": 3 * n // 4, "_kernel_rules": 3 * n}
    assert calls["_ladder_rule_one"] > 0
    reset()
    fr.solve_second_kind(op, 5.0, cons, residual_tol=1e-3)
    assert points == dict.fromkeys(points, 0)
    assert calls == dict.fromkeys(calls, 0)
    for _ in range(2):
        assert fr.residual_report(first).reconstruction_sup == \
            first.residual_sup
        assert points == dict.fromkeys(points, 0)
        assert calls == dict.fromkeys(calls, 0)


def test_asymptotics_builds_no_report_plan(monkeypatch):
    # the horizon ladder forms rows at the n nodes (assembly) and the
    # 0.75n extension points, and kernel integrals at the 3n probes, for
    # all four horizons together
    points, _ = _audit_points(monkeypatch)
    config = harness.ExperimentConfig(
        params=ModelParams(hurst=HurstPair(H1, H2)))
    report = harness.run_asymptotics(config)
    n = config.grid_n
    assert len(report.per_T_detail) == 4
    assert points == {"_quadrature_rows": n + 3 * n // 4,
                      "_kernel_rules": 3 * n}
