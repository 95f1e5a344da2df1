"""Kernel tables and the direct evaluators they are checked against.

Frozen reference values were computed with mpmath (dps=30) from the
defining integrals in substituted form; the covariance references use
the weighted double-integral reduction as an independent route.
"""
import math
import tracemalloc

import numpy as np
import pytest

from mixedfbm import closed_form, fredholm, kernels
from mixedfbm.errors import DomainError
from mixedfbm.estimator import mle
from mixedfbm.gaussian_sim import SamplePath
from mixedfbm.kernels import DIAG_RTOL, KernelContext, KernelTables, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
from mixedfbm.numerics import beta_fn
from oracles import (covariance_X2, jacobi_rule, k1_l2_norm, kernel_K12,
                     kernel_K12_dt, kernel_k, kernel_k1)

H1, H2 = 0.6, 0.9
A_GAP = H2 - H1


@pytest.fixture(scope="module")
def ctx():
    params = ModelParams(hurst=HurstPair(H1, H2))
    return KernelContext(constants=derive_constants(params))


@pytest.fixture(scope="module")
def tables():
    return get_tables(H1, H2)


class TestKernelK12:
    def test_frozen_value(self, ctx):
        # mpmath (dps=25) on the substituted integral with smoothing maps
        # applied at both endpoints: 1.00462574835927977578
        got = kernel_K12(ctx, 1.0, 0.3)
        assert math.isclose(got, 1.0046257483592798, rel_tol=1e-12)

    def test_upper_bound(self, ctx):
        # (s + (t-s)z)^a <= t^a pointwise gives an explicit envelope
        for (t, s) in [(1.0, 0.3), (2.0, 1.2), (1.0, 0.9)]:
            val = kernel_K12(ctx, t, s)
            cap = (ctx.constants.beta_h2 * s ** (0.5 - H2) * (t - s) ** A_GAP
                   * t ** A_GAP * beta_fn(H2 - 0.5, 1.5 - H1))
            assert 0.0 < val <= cap

    def test_scaling(self, ctx):
        base = kernel_K12(ctx, 1.0, 0.4)
        for lam in (2.0, 0.37, 11.3):
            scaled = kernel_K12(ctx, lam, lam * 0.4)
            assert math.isclose(scaled, lam ** (0.5 + H2 - 2 * H1) * base,
                                rel_tol=1e-12)

    def test_diagonal_zero(self, ctx):
        assert kernel_K12(ctx, 0.7, 0.7) == 0.0

    def test_memoized(self, ctx):
        kernel_K12.cache_clear()
        kernel_K12(ctx, 1.0, 0.123)
        misses = kernel_K12.cache_info().misses
        kernel_K12(ctx, 1.0, 0.123)
        assert kernel_K12.cache_info().misses == misses
        assert kernel_K12.cache_info().hits >= 1


class TestKernelK12Dt:
    def test_finite_difference(self, ctx):
        h = 1e-5
        for (t, s) in [(1.0, 0.3), (1.0, 0.7), (2.0, 0.5)]:
            fd = (kernel_K12(ctx, t + h, s) - kernel_K12(ctx, t - h, s)) / (2 * h)
            got = kernel_K12_dt(ctx, t, s)
            assert math.isclose(got, fd, rel_tol=1e-4)

    def test_positive_at_random_points(self, ctx):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = rng.uniform(0.2, 3.0)
            s = t * rng.uniform(1e-3, 1.0 - 1e-3)
            val = kernel_K12_dt(ctx, t, s)
            assert np.isfinite(val) and val > 0.0

    def test_scaling(self, ctx):
        base = kernel_K12_dt(ctx, 1.0, 0.4)
        for lam in (2.0, 0.37):
            scaled = kernel_K12_dt(ctx, lam, lam * 0.4)
            assert math.isclose(scaled, lam ** (H2 - 2 * H1 - 0.5) * base,
                                rel_tol=1e-12)

    def test_requires_strict_order(self, ctx):
        with pytest.raises(DomainError):
            kernel_K12_dt(ctx, 1.0, 1.0)


class TestKernelSmallK:
    def test_symmetry_exact(self, ctx):
        assert kernel_k(ctx, 0.3, 0.7) == kernel_k(ctx, 0.7, 0.3)
        assert kernel_k1(ctx, 0.2, 0.9) == kernel_k1(ctx, 0.9, 0.2)

    def test_positive_and_finite(self, ctx):
        for (s, u) in [(0.3, 0.7), (0.05, 0.95), (0.5, 0.50001)]:
            val = kernel_k(ctx, s, u)
            assert np.isfinite(val) and val > 0.0

    def test_k1_scaling_factor_three(self, ctx):
        base = kernel_k1(ctx, 0.1, 0.2)
        scaled = kernel_k1(ctx, 0.3, 0.6)
        assert math.isclose(scaled, 3.0 ** (2 * H2 - 2 * H1 - 1) * base,
                            rel_tol=1e-12)

    def test_k_scaling(self, ctx):
        base = kernel_k(ctx, 0.3, 0.8)
        for lam in (2.0, 0.37, 11.3):
            scaled = kernel_k(ctx, lam * 0.3, lam * 0.8)
            assert math.isclose(scaled, lam ** (2 * H2 - 4 * H1) * base,
                                rel_tol=1e-12)

    def test_near_diagonal_clamp(self, ctx, tables):
        # separations below DIAG_RTOL*max collapse to the one-sided limit
        u = 0.5
        ref = kernel_k1(ctx, u, u * (1.0 + DIAG_RTOL))
        for eps in (1e-13, 1e-10, 1e-9):
            got = kernel_k1(ctx, u, u * (1.0 + eps))
            assert math.isclose(got, ref, rel_tol=1e-6)
            fast = float(tables.k1(u, u * (1.0 + eps)))
            assert math.isclose(fast, ref, rel_tol=2e-4)

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            kernel_k(ctx, 0.0, 0.5)
        with pytest.raises(DomainError):
            kernel_k1(ctx, 0.5, -0.1)


class TestProfileTables:
    def test_K12_matches_direct(self, ctx, tables):
        for (t, s) in [(1.0, 0.3), (1.0, 0.0123), (2.5, 2.1), (1.0, 0.99)]:
            direct = kernel_K12(ctx, t, s)
            fast = float(tables.K12(t, s))
            assert math.isclose(fast, direct, rel_tol=1e-9)

    def test_dK12_matches_direct(self, ctx, tables):
        for (t, s) in [(1.0, 0.3), (1.0, 0.0123), (2.5, 2.1), (1.0, 0.99)]:
            direct = kernel_K12_dt(ctx, t, s)
            fast = float(tables.dK12(t, s))
            assert math.isclose(fast, direct, rel_tol=1e-9)

    def test_k1_matches_direct(self, ctx, tables):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s, u = np.sort(rng.uniform(0.02, 1.0, size=2))
            u = max(u, s + 1e-3)
            direct = kernel_k1(ctx, float(s), float(u))
            fast = float(tables.k1(float(s), float(u)))
            assert math.isclose(fast, direct, rel_tol=2e-4)

    def test_c_profile_frozen(self, tables):
        # independent oracle: the nested profile integrals evaluated with
        # endpoint-smoothing substitutions and a 240-point Gauss rule
        assert math.isclose(float(tables.c(0.3)), 0.605086435229294,
                            rel_tol=1e-8)
        assert math.isclose(float(tables.c(0.9)), 0.46075644915147834,
                            rel_tol=1e-8)

    def test_l2_norm(self, tables):
        val = k1_l2_norm(tables)
        assert np.isfinite(val) and val > 0.0
        assert math.isclose(val, k1_l2_norm(tables, n=192), rel_tol=1e-8)

    def test_l2_norm_gate(self):
        thin = KernelTables(h1=0.6, h2=0.8)
        with pytest.raises(DomainError):
            k1_l2_norm(thin)
        assert not {"m", "n", "psi_d", "c", "rho"} & thin.__dict__.keys()

    def test_profiles_built_on_first_read(self, ctx, monkeypatch):
        # the solver reads c; rho is read only by the covariance R
        fresh = KernelTables(H1, H2)
        monkeypatch.setattr(fredholm, "get_tables", lambda h1, h2: fresh)
        cons = ctx.constants
        op = fredholm.assemble(ctx, fredholm.build_grid(64))
        sol = fredholm.solve_second_kind(op, 1.0, cons, residual_tol=1e-3)
        times = (np.arange(513) / 512.0) ** 2
        drift = cons.script_b * times ** (2.0 - 2.0 * H1)
        mle(sol, SamplePath(times=times, values=drift, label="Y"), cons)
        assert op.tables is fresh and "c" in fresh.__dict__
        assert "rho" not in fresh.__dict__
        assert fresh.R(0.7, 0.4) == get_tables(H1, H2).R(0.7, 0.4)
        assert "rho" in fresh.__dict__

    def test_gram_positivity(self, tables):
        s = np.linspace(0.05, 0.95, 12)
        G = np.asarray(tables.k1(s[:, None], s[None, :]))
        eig = np.linalg.eigvalsh(0.5 * (G + G.T))
        assert eig.min() >= -1e-10 * np.trace(G)


class TestProfileEvaluation:
    """The profiles' own evaluation against the KnotSpline charts they hold."""

    def _charts(self, spl, x):
        # each KnotSpline chart's own evaluation, which searches for the
        # interval of every point
        xa = np.clip(x, kernels._PROFILE_XMIN, 1.0 - kernels._PROFILE_XMIN)
        left = xa <= 0.5
        out = np.empty_like(xa)
        out[left] = spl._left(np.log(xa[left]))
        out[~left] = spl._right(np.log(1.0 - xa[~left]))
        return out

    def test_breaks_guess_within_one_interval(self, tables):
        # the scaled distance of breakpoint k from the first lies in
        # interval k - 1 or k, so one comparison each way finds every
        # point's interval
        breaks = tables.c._breaks
        guess = ((breaks - breaks[0]) * tables.c._per_break).astype(int)
        assert set(guess - np.arange(breaks.size)) <= {-1, 0}

    @pytest.mark.parametrize("name", ["c", "rho", "psi_d", "m"])
    def test_bit_for_bit_cubic_spline(self, tables, name):
        spl = getattr(tables, name)
        rng = np.random.default_rng(7)
        grid = np.geomspace(kernels._PROFILE_XMIN, 0.5,
                            kernels._PROFILE_PER_SIDE)
        edges = [0.0, 1.0, -1.0, 2.0, 1e-300, 1e-12, 1.0 - 1e-12, 0.5,
                 np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        x = np.concatenate([rng.uniform(0.0, 1.0, 50_000),
                            np.geomspace(1e-14, 0.5, 20_000),
                            1.0 - np.geomspace(1e-14, 0.5, 20_000),
                            grid, 1.0 - grid, np.nextafter(grid, 0.0),
                            np.nextafter(grid, 1.0), edges])
        assert x.size > kernels._EVAL_BLOCK
        got = spl(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.int64), self._charts(spl, x).view(np.int64))

    def test_shapes_scalars_and_nan(self, tables):
        spl = tables.c
        x = np.linspace(0.01, 0.99, 24).reshape(4, 6)
        assert np.array_equal(spl(x), self._charts(spl, x.ravel()).reshape(4, 6))
        assert np.array_equal(spl(x.T), spl(x).T)
        assert isinstance(spl(0.3), float)
        assert spl(0.3) == spl(np.array([0.3]))[0]
        assert spl(np.empty(0)).shape == (0,)
        with np.errstate(invalid="raise"):
            assert np.isnan(spl(np.array([0.2, np.nan])))[1]


class TestCovariance:
    def test_frozen_equal_times(self, ctx, tables):
        # J-reduction of the weighted double integral, mpmath dps=60:
        # 1.495485152717063829079
        ref = 1.4954851527170638
        assert math.isclose(covariance_X2(ctx, 1.0, 1.0), ref, rel_tol=1e-9)
        assert math.isclose(float(tables.R(1.0, 1.0)), ref, rel_tol=1e-8)

    def test_single_vs_double_integral(self, ctx):
        # independent double-integral route: R(1,1) reduces to
        # 2 a2 int u^(2h2-2h1)(1-u)^(1/2-h1) J(u) du with
        # J(u) = int x^(1/2-h1)(1-x)^(2h2-2)(1-ux)^(1/2-h1) dx
        alpha2 = H2 * (2.0 * H2 - 1.0)
        xs, ws = jacobi_rule(96, 0.5 - H1, 2.0 * H2 - 2.0, 0.0, 1.0)

        def J(u):
            return float(np.dot(ws, (1.0 - u * xs) ** (0.5 - H1)))

        us, wu = jacobi_rule(96, 2.0 * H2 - 2.0 * H1, 0.5 - H1, 0.0, 1.0)
        double = 2.0 * alpha2 * float(np.dot(wu, [J(u) for u in us]))
        single = covariance_X2(ctx, 1.0, 1.0)
        assert math.isclose(single, double, rel_tol=1e-6)

    def test_symmetry_and_zero(self, ctx, tables):
        assert covariance_X2(ctx, 1.0, 0.6) == covariance_X2(ctx, 0.6, 1.0)
        assert covariance_X2(ctx, 1.0, 0.0) == 0.0
        got = tables.R(np.array([1.0, 0.6]), np.array([0.6, 1.0]))
        assert got[0] == got[1]

    @pytest.mark.parametrize("t, s", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_zero_at_a_zero_time(self, tables, t, s):
        assert tables.R(t, s) == 0.0
        assert np.array_equal(tables.R(np.array([t, 1.0]), np.array([s, 0.6])),
                              [0.0, tables.R(1.0, 0.6)])

    @pytest.mark.parametrize("t, s", [(-1e-300, 1.0), (0.5, -0.5),
                                      (np.array([1.0, 0.5]), np.array([0.3, -1.0]))])
    def test_negative_time_is_a_domain_error(self, tables, t, s):
        with pytest.raises(DomainError, match="nonnegative"):
            tables.R(t, s)

    def test_block_is_formed_in_place(self, tables):
        # a model grid's 64-row block: R forms its products in place and
        # holds about 4.5 blocks at its peak, with the bits of the formula
        # evaluated left to right; a zero time adds a zero column
        t = (np.arange(1, 1025) / 1024) ** 2
        rows, cols = t[:64, None], t[None, :]
        tables.R(rows, cols)  # builds the rho spline
        tracemalloc.start()
        try:
            got = tables.R(rows, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * got.nbytes
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        assert np.array_equal(got, lo ** (2.0 - 2.0 * H1) * hi ** (2.0 * H2 - 2.0 * H1)
                              * tables.rho(lo / hi))
        zero = tables.R(rows, np.concatenate(([0.0], t))[None, :])
        assert np.array_equal(zero[:, 1:], got) and not zero[:, 0].any()

    def test_tables_match_single_integral(self, ctx, tables):
        for (t, s) in [(1.0, 0.6), (1.0, 1.0), (2.0, 0.3)]:
            single = covariance_X2(ctx, t, s)
            fast = float(tables.R(t, s))
            assert math.isclose(fast, single, rel_tol=1e-8)

    def test_scaling(self, tables):
        # homogeneity: R(at, as) = a^(2+2h2-4h1) R(t, s)
        base = float(tables.R(1.0, 0.6))
        lam = 3.7
        scaled = float(tables.R(lam, 0.6 * lam))
        assert math.isclose(scaled, lam ** (2.0 + 2 * H2 - 4 * H1) * base,
                            rel_tol=1e-10)


# kernel name -> evaluation at (t, s, x = s/t); h0 reads x
_AT_POINT = {
    "k1": lambda tab, cons, t, s, x: tab.k1(s, t),
    "kappa": lambda tab, cons, t, s, x: tab.kappa(x),
    "K12": lambda tab, cons, t, s, x: tab.K12(t, s),
    "dK12": lambda tab, cons, t, s, x: tab.dK12(t, s),
    "R": lambda tab, cons, t, s, x: tab.R(t, s),
    "h0": lambda tab, cons, t, s, x: closed_form.h0(x, cons),
}


@pytest.mark.parametrize("name", list(_AT_POINT))
def test_scalar_call_has_the_bits_of_its_point_in_a_batch(ctx, tables, name):
    # a scalar runs through the batch's array loops: numpy's scalar **
    # would round the last bit differently at 3-12 % of these points
    at = _AT_POINT[name]
    rng = np.random.default_rng(33)
    t = rng.uniform(0.05, 3.0, 1200)
    x = rng.uniform(0.001, 0.999, t.size)
    s = x * t
    batch = at(tables, ctx.constants, t, s, x)
    scalars = [at(tables, ctx.constants, *p)
               for p in zip(t.tolist(), s.tolist(), x.tolist())]
    differ = np.flatnonzero(np.array(scalars) != batch)
    assert differ.size == 0, f"{differ.size} of {t.size} points differ"
    assert all(type(v) is float for v in scalars)
