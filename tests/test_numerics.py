"""Gauss-Jacobi panels, the reference rules, the guarded dense solve and
the cubic spline."""
import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mixedfbm.errors import AccuracyWarning, DomainError, IllConditionedError
from mixedfbm import fredholm, kernels, numerics
from mixedfbm.numerics import (KnotSpline, beta_fn, gamma_fn, jacobi_panels,
                               solve_dense)
from oracles import frac_integral_right, jacobi_rule, singular_integral

# the exponent pairs and intervals of the weight-sum checks
EXPONENTS = [(0.0, 0.0), (-0.5, 0.0), (0.0, -0.5), (-0.9, -0.9),
             (1.3, -0.4), (-0.6, 2.0), (2.5, 3.5)]
INTERVALS = [(0.0, 1.0), (0.3, 2.7)]


class TestJacobiRule:
    @pytest.mark.parametrize("p,q", EXPONENTS)
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_weight_sum_matches_beta(self, p, q, a, b):
        rule = jacobi_rule(48, p, q, a, b)
        exact = (b - a) ** (p + q + 1.0) * beta_fn(p + 1.0, q + 1.0)
        assert abs(rule.weights.sum() - exact) <= 1e-12 * exact

    def test_polynomial_exactness(self):
        # degree-7 polynomial must be integrated exactly by n=4
        f = lambda x: 3.0 * x ** 7 - x ** 3 + 2.0
        lo = jacobi_rule(4, -0.5, 0.3).apply(f)
        hi = jacobi_rule(64, -0.5, 0.3).apply(f)
        assert math.isclose(lo, hi, rel_tol=1e-13)

    def test_rule_unpacks(self):
        x, w = jacobi_rule(8, 0.0, 0.0)
        assert len(x) == 8 and len(w) == 8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_rule(0, 0.0, 0.0)
        with pytest.raises(DomainError):
            jacobi_rule(8, -1.0, 0.0)
        with pytest.raises(DomainError):
            jacobi_rule(8, 0.0, 0.0, 1.0, 1.0)


class TestJacobiPanels:
    def test_mixed_batch(self):
        # every (p, q, a, b) case of the weight-sum checks in one batch
        cases = [(p, q, a, b) for p, q in EXPONENTS for a, b in INTERVALS]
        p, q, a, b = (np.array(v) for v in zip(*cases))
        nodes, weights = jacobi_panels(48, a, b, p, q)
        assert nodes.shape == weights.shape == (len(cases), 48)
        for k, (pk, qk, ak, bk) in enumerate(cases):
            x, w = jacobi_rule(48, pk, qk, ak, bk)
            assert np.array_equal(nodes[k], x) and np.array_equal(weights[k], w)
            exact = (bk - ak) ** (pk + qk + 1.0) * beta_fn(pk + 1.0, qk + 1.0)
            assert abs(weights[k].sum() - exact) <= 1e-12 * exact

    def test_domain_errors(self):
        ok = np.array([0.0, 0.5])
        with pytest.raises(DomainError):
            jacobi_panels(8, [0.0, 0.0], [1.0, 1.0], [0.0, -1.0], ok)
        with pytest.raises(DomainError):
            jacobi_panels(8, [0.0, 0.0], [1.0, 1.0], ok, [-1.5, 0.0])
        with pytest.raises(DomainError):
            jacobi_panels(8, [0.0, 1.0], [1.0, 1.0], ok, ok)


class TestSingularIntegral:
    def test_algebraic_weight(self):
        # int_0^1 s^(-0.4) ds = 1/0.6 with the singularity in the weight
        val = singular_integral(lambda x: np.ones_like(x), 0.0, 1.0, p=-0.4)
        assert math.isclose(val, 1.0 / 0.6, rel_tol=1e-12)

    def test_smooth_integrand(self):
        val = singular_integral(np.cos, 0.0, 1.0)
        assert math.isclose(val, math.sin(1.0), rel_tol=1e-12)

    def test_interior_kink_warns(self):
        f = lambda x: np.abs(x - 1.0 / 3.0) ** 0.2
        with pytest.warns(AccuracyWarning):
            singular_integral(f, 0.0, 1.0, rtol=1e-14, n_cap=64)


class TestFractionalCalculus:
    def test_right_integral_power_rule(self):
        alpha, beta, v = 0.3, 0.45, 0.37
        f = lambda t: (1.0 - t) ** beta
        expect = (gamma_fn(beta + 1.0) / gamma_fn(alpha + beta + 1.0)
                  * (1.0 - v) ** (alpha + beta))
        # with the endpoint exponent declared the rule is exact
        got = frac_integral_right(f, alpha, v, q=beta)
        assert math.isclose(got, expect, rel_tol=1e-12)
        # without it, convergence is algebraic but still serviceable
        with pytest.warns(AccuracyWarning):
            got = frac_integral_right(f, alpha, v)
        assert math.isclose(got, expect, rel_tol=1e-6)


class TestSolveDense:
    def test_well_conditioned(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(40, 40)) + 40.0 * np.eye(40)
        b = rng.normal(size=40)
        x, cond = solve_dense(A, b)
        assert np.allclose(A @ x, b, rtol=0, atol=1e-10 * np.abs(b).max())
        assert cond < 1e4

    def test_ill_conditioned_raises(self):
        n = 14
        A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        with pytest.raises(IllConditionedError):
            solve_dense(A, np.ones(n))

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_broken_solve_raises(self, monkeypatch, bad):
        # a sound LU keeps the backward error at roundoff; a solve that
        # returns garbage (zeros, NaN) must not pass as a solution
        monkeypatch.setattr(numerics.scipy.linalg, "lu_solve",
                            lambda lu_piv, b: np.full_like(b, bad))
        with pytest.raises(IllConditionedError, match="backward error"):
            solve_dense(np.eye(3) + 0.1, np.ones(3))

    def test_shape_guard(self):
        with pytest.raises(DomainError):
            solve_dense(np.ones((3, 4)), np.ones(3))


@pytest.mark.parametrize("a, b", [(100.0, 3.0), (150.0, 0.5), (400.0, 400.0)])
def test_beta_fn_at_large_arguments_matches_mpmath(a, b):
    # scipy's beta keeps its accuracy where log-gamma sums lose digits
    with mpmath.workdps(40):
        exact = float(mpmath.beta(a, b))
    assert beta_fn(a, b) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_knot_spline_is_scipy_cubic_spline():
    # coefficients, values past both ends and knot second derivatives
    # equal scipy's not-a-knot CubicSpline, on the profiles' log breaks,
    # the residual audit's knots and random knots; malformed knots are
    # refused
    rng = np.random.default_rng(3)
    knot_sets = {"log breaks": np.log(np.geomspace(
        kernels._PROFILE_XMIN, 0.5, kernels._PROFILE_PER_SIDE))}
    for n in (64, 128, 512):
        grid = fredholm.build_grid(n)
        ext = fredholm._offsets_in_cells(grid, fredholm._EXT_OFFSETS)
        knot_sets[f"audit n={n}"] = np.sort(np.concatenate([grid.x_nodes, ext]))
    for k, size in enumerate((4, 5, 37, 400)):
        knot_sets[f"random {k}"] = np.cumsum(rng.uniform(1e-3, 2.0, size))
    for name, x in knot_sets.items():
        y = rng.normal(size=x.size) * 10.0 ** rng.uniform(-3, 3)
        ours, ref = KnotSpline(x, y), CubicSpline(x, y)
        span = x[-1] - x[0]
        at = rng.uniform(x[0] - 0.25 * span, x[-1] + 0.25 * span, 5000)
        assert at.min() < x[0] and at.max() > x[-1]
        assert np.array_equal(ours.c, ref.c), name
        assert np.array_equal(ours(at), ref(at)), name
        assert np.array_equal(ours.second_derivatives(), ref(x, 2)), name

    x, y = np.arange(5.0), np.ones(5)
    for bad_x, bad_y in ((x[:3], y[:3]), (x[[0, 2, 1, 3, 4]], y),
                         (np.r_[x[:4], x[3]], y), (np.r_[x[:4], np.nan], y),
                         (np.r_[x[:4], np.inf], y), (x, np.r_[y[:4], np.nan]),
                         (x, np.r_[y[:4], np.inf]), (x, y[:4]), (x, np.ones(6))):
        with pytest.raises(DomainError):
            KnotSpline(bad_x, bad_y)
