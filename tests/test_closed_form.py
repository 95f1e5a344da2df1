"""Constant chain, limiting weight, and operator cross-checks."""

import warnings

import numpy as np
import pytest
from scipy.special import hyp2f1

from mixedfbm import closed_form as cf
from mixedfbm.errors import DomainError
from mixedfbm.fredholm import (assemble, build_grid, quadratic_variation_N,
                               solve_second_kind)
from mixedfbm.kernels import KernelContext, _layered_01, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
from mixedfbm.numerics import beta_fn, gamma_fn
from oracles import frac_integral_right

H1, H2 = 0.6, 0.9


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


@pytest.fixture(scope="module")
def cons_wide():
    return derive_constants(ModelParams(hurst=HurstPair(0.7, 0.99)))


@pytest.fixture(scope="module")
def cons_sep():
    return derive_constants(ModelParams(hurst=HurstPair(0.6, 0.95)))


@pytest.fixture(scope="module")
def first_kind_report(cons):
    return cf.verify_first_kind(cons, build_grid(256))


@pytest.fixture(scope="module")
def op64(cons):
    return assemble(KernelContext(constants=cons), build_grid(64))


@pytest.fixture(scope="module")
def op128(cons):
    return assemble(KernelContext(constants=cons), build_grid(128))


@pytest.fixture(scope="module")
def sols_by_T(op128, cons):
    # at n=128 the T=25,125 solves sit slightly above the default
    # residual gate; the relaxed tolerance is still far below any
    # quantity asserted here
    return {
        T: solve_second_kind(op128, T, cons, residual_tol=1e-4)
        for T in (1.0, 5.0, 25.0, 125.0)
    }


@pytest.fixture(scope="module")
def sol_sep_T125(cons_sep):
    op = assemble(KernelContext(constants=cons_sep), build_grid(256))
    return solve_second_kind(op, 125.0, cons_sep)


def canonical_C(constants):
    return 1.0 / constants.gamma_h1**2


# ---------------------------------------------------------------- chain


def test_chain_validates_input(cons):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            cf.constant_chain(bad, cons)


def test_chain_links_reevaluated(cons):
    ch = cf.constant_chain(1.0, cons)
    b2 = cons.beta_h2
    assert ch.c == 1.0
    assert ch.c1 == pytest.approx(2.0 - 2.0 * H1, rel=0, abs=0)
    assert ch.c1 == 0.8
    assert ch.c2 == pytest.approx(ch.c1 * b2 * gamma_fn(1.5 - H1), rel=1e-15)
    # the c3 link written through the incomplete-beta normalization
    assert ch.c3 == pytest.approx(
        (1.5 - H1) * beta_fn(H1 - 0.5, 3.0 - 2.0 * H1) / (ch.c2 * gamma_fn(H1 - 0.5)),
        rel=1e-13,
    )
    assert ch.c4 == pytest.approx(
        ch.c3 * gamma_fn(1.5 - H2) / (gamma_fn(H2 - 0.5) * gamma_fn(2.0 - 2.0 * H2)),
        rel=1e-15,
    )
    assert ch.c5 == pytest.approx(ch.c4 / (b2 * gamma_fn(1.5 - H1)), rel=1e-15)
    assert ch.c6 == pytest.approx(
        ch.c5 / (gamma_fn(H2 - 0.5) * gamma_fn(1.5 - H2)), rel=1e-15
    )


def test_chain_frozen_values(cons):
    ch = cf.constant_chain(1.0, cons)
    frozen = {
        "c1": 0.8,
        "c2": 0.27740597387450363,
        "c3": 3.1418541631017321,
        "c4": 0.45946401271272594,
        "c5": 1.3250299012539189,
        "c6": 0.40112721820682248,
    }
    for name, val in frozen.items():
        assert getattr(ch, name) == pytest.approx(val, rel=1e-12)
    canon = cf.constant_chain(canonical_C(cons), cons)
    assert canon.c6 == pytest.approx(0.48000512729874411, rel=1e-12)


def test_chain_linearity(cons):
    a = cf.constant_chain(0.7, cons)
    b = cf.constant_chain(1.4, cons)
    assert b.c2 == pytest.approx(2.0 * a.c2, rel=1e-15)
    assert b.c6 == pytest.approx(a.c6 / 2.0, rel=1e-15)


def test_chain_intermediate_identities(cons, cons_wide):
    # arithmetic content of the two inversion steps: the power-function
    # images q(v) = c4 v^{1/2-H2} and p(z) = c3 z^{1/2-H1} force these
    # exact relations between consecutive links
    for c in (cons, cons_wide):
        h1, h2 = c.hurst.h1, c.hurst.h2
        ch = cf.constant_chain(1.0, c)
        p_step = ch.c2 * ch.c3 * gamma_fn(1.5 - h1) / gamma_fn(3.0 - 2.0 * h1)
        q_step = ch.c4 * beta_fn(2.0 - 2.0 * h2, h2 - 0.5) / ch.c3
        assert p_step == pytest.approx(1.0, rel=1e-13)
        assert q_step == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------- h0


def test_h0_frozen_point_values(cons_wide):
    lit = cons_wide.gamma_h1**2
    assert cf.h0(0.5, cons_wide, C=lit) == pytest.approx(
        0.49796263121203034, rel=1e-10
    )
    assert cf.h0(0.5, cons_wide) == pytest.approx(0.92390724645512188, rel=1e-10)


def test_h0_matches_direct_fractional_integral(cons):
    # independent evaluation path: right-sided fractional integral with
    # the endpoint exponent declared, no interval mapping
    c6 = cf.constant_chain(canonical_C(cons), cons).c6

    def inner(t):
        return t ** (H1 - H2) * (1.0 - t) ** (0.5 - H2)

    for v in (0.3, 0.5, 0.8):
        direct = c6 * v ** (0.5 - H1) * frac_integral_right(
            inner, H1 - 0.5, v, rtol=1e-12, q=0.5 - H2
        )
        assert cf.h0(v, cons) == pytest.approx(direct, rel=1e-10)


def test_h0_hypergeometric_equivalence(cons, cons_wide):
    # Euler-transformed closed form of the same fractional integral;
    # agreement must hold uniformly, including deep into both endpoint
    # layers, without accuracy warnings
    v = np.array(
        [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-5, 1 - 1e-7]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (cons, cons_wide):
            h1, h2 = c.hurst.h1, c.hurst.h2
            c6 = cf.constant_chain(canonical_C(c), c).c6
            pre = c6 * gamma_fn(1.5 - h2) / gamma_fn(1.0 + h1 - h2)
            ref = (
                pre
                * v ** (0.5 - h2)
                * (1.0 - v) ** (h1 - h2)
                * hyp2f1(h2 - h1, h1 - 0.5, 1.0 + h1 - h2, -(1.0 - v) / v)
            )
            got = cf.h0(v, c)
            assert np.max(np.abs(got / ref - 1.0)) < 1e-9


def test_h0_linearity_in_C(cons):
    g2 = cons.gamma_h1**2
    v = np.array([0.2, 0.5, 0.9])
    half = cf.h0(v, cons, C=2.0 * g2)
    full = cf.h0(v, cons, C=g2)
    assert np.allclose(2.0 * half, full, rtol=1e-14)
    # default C is the reciprocal of gamma^2
    assert np.allclose(cf.h0(v, cons), cf.h0(v, cons, C=canonical_C(cons)), rtol=0)


def test_h0_domain_and_shape(cons):
    for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(DomainError):
            cf.h0(bad, cons)
    with pytest.raises(DomainError):
        cf.h0(np.array([0.5, 1.0]), cons)
    out = cf.h0(0.5, cons)
    assert isinstance(out, float)
    arr = cf.h0(np.array([[0.2, 0.4], [0.6, 0.8]]), cons)
    assert arr.shape == (2, 2)
    assert np.all(arr > 0)


def test_h0_left_endpoint_slope():
    # the weight leaves the origin like v^{H1-H2}: the v^{1/2-H2} branch
    # of the integral composed with the v^{1/2-H1} prefactor; the fit
    # over [1e-3, 1e-2] still feels the subleading branch, hence the
    # generous window around the limit exponent
    frozen = {(0.6, 0.9): -0.3173940910726734, (0.55, 0.95): -0.40145299676283247}
    v = np.geomspace(1e-3, 1e-2, 9)
    for (h1, h2), ref in frozen.items():
        c = derive_constants(ModelParams(hurst=HurstPair(h1, h2)))
        fit = np.polyfit(np.log(v), np.log(cf.h0(v, c)), 1)[0]
        assert abs(fit - (h1 - h2)) < 0.05
        assert fit == pytest.approx(ref, rel=1e-3)


def test_h0_right_endpoint_slope(cons):
    eps = np.geomspace(1e-4, 1e-3, 9)
    fit = np.polyfit(np.log(eps), np.log(cf.h0(1.0 - eps, cons)), 1)[0]
    assert abs(fit - (H1 - H2)) < 0.01
    assert fit == pytest.approx(-0.2998675137094805, rel=1e-3)


def test_h0_first_step_inversion(cons):
    # the first inversion image of the solution is again a power
    # function: integrating h0(s) s^{H1-1/2} against the kernel
    # derivative from s=v to 1 must land on c4 v^{1/2-H2}; ties the
    # closed form, the tabulated kernel, and the mid-chain constant
    # together through an independent quadrature
    tab = get_tables(H1, H2)
    c4 = cf.constant_chain(canonical_C(cons), cons).c4
    a = H2 - H1
    for v in (0.2, 0.5, 0.8):

        def bounded(x, v=v):
            s = v + (1.0 - v) * x
            hb = np.asarray(cf.h0(s, cons)) * s ** (H1 - 0.5)
            dk = tab.dK12(s, np.full_like(s, v))
            return hb * dk * x ** (1.0 - a) * (1.0 - x) ** (H2 - H1)

        seed = min(max(v / (1.0 - v), 1e-12), 0.4)
        got = (1.0 - v) * _layered_01(bounded, a - 1.0, H1 - H2, 32, seed, None)
        assert got == pytest.approx(c4 * v ** (0.5 - H2), rel=1e-8)


# ------------------------------------------------- first-kind residual


def test_first_kind_report(first_kind_report):
    rep = first_kind_report
    assert rep.nodes_used == 128
    assert rep.max_rel_residual < 1e-5
    assert rep.max_rel_residual > 1e-9
    assert abs(rep.ratio_mean - 1.0) < 1e-4
    assert rep.ratio_spread < 5e-6
    # scale-free constancy gate, far looser than the observed spread
    assert rep.ratio_spread < 0.002


def test_first_kind_scaling_consistency(op64, cons):
    # K is linear: doubling C halves h0 and halves K h0, so the shape of
    # (K h0)/u^{1/2-H1} cannot depend on the normalization convention
    u = op64.grid.nodes
    g2 = cons.gamma_h1**2
    base = op64.matrix @ np.asarray(cf.h0(u, cons))
    scaled = op64.matrix @ np.asarray(cf.h0(u, cons, C=2.0 * canonical_C(cons)))
    assert np.allclose(2.0 * scaled, base, rtol=1e-13)
    mask = (u >= 0.1) & (u <= 0.9)
    r1 = base[mask] / (g2 * u[mask] ** (0.5 - H1))
    r2 = scaled[mask] / (g2 * u[mask] ** (0.5 - H1))
    s1 = (r1.max() - r1.min()) / abs(r1.mean())
    s2 = (r2.max() - r2.min()) / abs(r2.mean())
    assert s1 == pytest.approx(s2, rel=1e-10)


def test_first_kind_degenerate_gap_raises():
    c = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.7)))
    with pytest.raises(DomainError, match="h2 - h1 > 1/4"):
        cf.verify_first_kind(c, build_grid(16))


# ------------------------------------------- weighted integral, variance


def test_weighted_integral_frozen_and_refined(cons):
    val = cf.h0_weighted_integral(cons)
    assert val == pytest.approx(1.2630971387460261, rel=1e-9)
    fine = cf.h0_weighted_integral(cons, order=48)
    assert abs(fine - val) < 1e-9 * val


def test_asymptotic_variance_value(cons):
    av = cf.asymptotic_variance(cons)
    assert av > 0
    assert av == pytest.approx(0.7917047464716586, rel=1e-9)
    assert av == pytest.approx(1.0 / cf.h0_weighted_integral(cons), rel=1e-15)


# --------------------------------------------------- finite-horizon limit


def test_h_mu_callable_matches_nodal_values(sols_by_T, cons):
    sol = sols_by_T[5.0]
    grid = sol.grid
    w = cf.h_mu(sol, cons)
    vals = w(grid.nodes)
    factor = cons.mu_of_T(5.0) * 5.0 ** (H1 - 0.5)
    assert np.allclose(vals, factor * sol.h_hat, rtol=1e-10)
    quad = float(np.dot(grid.weights, vals * grid.nodes ** (0.5 - H1)))
    assert quad == pytest.approx(cf.limit_functional(sol, cons), rel=1e-10)
    assert isinstance(w(0.5), float)
    assert np.isfinite(w(1.0))
    for bad in (0.0, -0.5, 1.0 + 1e-9, float("nan")):
        with pytest.raises(DomainError):
            w(bad)


def test_h_mu_plug_in_identity(sols_by_T, op128, cons):
    # re-substitution into the finite-horizon equation at the nodes
    sol = sols_by_T[5.0]
    u = op128.grid.nodes
    g2 = cons.gamma_h1**2
    hm = cf.h_mu(sol, cons)(u)
    lhs = g2 / cons.mu_of_T(5.0) * hm + op128.matrix @ hm
    rhs = g2 * u ** (0.5 - H1)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_h_mu_norm_contraction(sols_by_T, cons, op128):
    grid = op128.grid
    u, w = grid.nodes, grid.weights
    ref = np.asarray(cf.h0(u, cons))
    ref_norm = np.sqrt(w @ ref**2)
    frozen = [0.587807899, 0.420662999, 0.309101667, 0.231814388]
    got = []
    for T in (1.0, 5.0, 25.0, 125.0):
        hm = cf.h_mu(sols_by_T[T], cons)(u)
        got.append(float(np.sqrt(w @ (hm - ref) ** 2) / ref_norm))
    assert all(r < 1.0 for r in got)
    assert all(a > b for a, b in zip(got, got[1:]))
    assert np.allclose(got, frozen, rtol=1e-3)


def test_limit_functional_monotone_convergence(sols_by_T, cons):
    J = cf.h0_weighted_integral(cons)
    gaps = [
        abs(cf.limit_functional(sols_by_T[T], cons) - J) / J
        for T in (1.0, 5.0, 25.0, 125.0)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    frozen = [0.504879963, 0.281978826, 0.132309970, 0.056190347]
    assert np.allclose(gaps, frozen, rtol=1e-3)


def test_limit_consistency_large_horizon(sol_sep_T125, cons_sep):
    # wider Hurst separation converges fast enough to get inside 5% by
    # T=125; at (0.6,0.9) the same gap is still ~5.6%, a rate fact
    J = cf.h0_weighted_integral(cons_sep)
    Jm = cf.limit_functional(sol_sep_T125, cons_sep)
    gap = abs(Jm - J) / J
    assert gap < 0.05
    assert gap == pytest.approx(0.03585435818844816, rel=1e-3)


def test_quadratic_variation_matches_functional(op128, cons):
    # <N>(T) = T^{2-2H2} sigma^2 gamma^2 * integral of h_mu u^{1/2-H1};
    # the left side integrates the solution on the horizon scale, the
    # right side on the unit scale, so agreement is a real change of
    # variables check, exact at the shared nodes
    for sg in (1.0, 1.7):
        c = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=sg))
        sol = solve_second_kind(op128, 5.0, c, residual_tol=1e-4)
        qv = quadratic_variation_N(sol, c)
        alt = (
            5.0 ** (2.0 - 2.0 * H2)
            * cf.limit_functional(sol, c)
            * sg**2
            * c.gamma_h1**2
        )
        assert qv == pytest.approx(alt, rel=1e-12)
