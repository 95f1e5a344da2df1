"""Limiting weight, its normalization chain, and operator cross-checks."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from mixedfbm import closed_form as cf
from mixedfbm.errors import DomainError
from mixedfbm.fredholm import assemble, build_grid, solve_second_kind
from mixedfbm.kernels import KernelContext, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
from mixedfbm.numerics import beta_fn, gamma_fn
import oracles
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
    return oracles.verify_first_kind(cons, build_grid(256))


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
# the paper's derivation of h0's normalization, kept in the oracles


def test_chain_validates_input(cons):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            oracles.constant_chain(bad, cons)


def test_chain_links_reevaluated(cons):
    ch = oracles.constant_chain(1.0, cons)
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
    ch = oracles.constant_chain(1.0, cons)
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
    canon = oracles.constant_chain(canonical_C(cons), cons)
    assert canon.c6 == pytest.approx(0.48000512729874411, rel=1e-12)


def test_chain_linearity(cons):
    a = oracles.constant_chain(0.7, cons)
    b = oracles.constant_chain(1.4, cons)
    assert b.c2 == pytest.approx(2.0 * a.c2, rel=1e-15)
    assert b.c6 == pytest.approx(a.c6 / 2.0, rel=1e-15)


def test_chain_intermediate_identities(cons, cons_wide):
    # arithmetic content of the two inversion steps: the power-function
    # images q(v) = c4 v^{1/2-H2} and p(z) = c3 z^{1/2-H1} force these
    # exact relations between consecutive links
    for c in (cons, cons_wide):
        h1, h2 = c.hurst.h1, c.hurst.h2
        ch = oracles.constant_chain(1.0, c)
        p_step = ch.c2 * ch.c3 * gamma_fn(1.5 - h1) / gamma_fn(3.0 - 2.0 * h1)
        q_step = ch.c4 * beta_fn(2.0 - 2.0 * h2, h2 - 0.5) / ch.c3
        assert p_step == pytest.approx(1.0, rel=1e-13)
        assert q_step == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------- h0


def test_h0_frozen_point_values(cons_wide):
    # h0 is linear in 1/C: the weight at C = gamma^2 is h0 / gamma^4
    assert cf.h0(0.5, cons_wide) / cons_wide.gamma_h1**4 == pytest.approx(
        0.49796263121203034, rel=1e-10
    )
    assert cf.h0(0.5, cons_wide) == pytest.approx(0.92390724645512188, rel=1e-10)


def test_h0_matches_direct_fractional_integral(cons):
    # independent evaluation path: right-sided fractional integral with
    # the endpoint exponent declared, no interval mapping
    c6 = oracles.constant_chain(canonical_C(cons), cons).c6

    def inner(t):
        return t ** (H1 - H2) * (1.0 - t) ** (0.5 - H2)

    for v in (0.3, 0.5, 0.8):
        direct = c6 * v ** (0.5 - H1) * frac_integral_right(
            inner, H1 - 0.5, v, rtol=1e-12, q=0.5 - H2
        )
        assert cf.h0(v, cons) == pytest.approx(direct, rel=1e-10)


def test_h0_hypergeometric_equivalence(cons, cons_wide):
    # the shipped hypergeometric form against the layered quadrature of
    # the same fractional integral that it replaced; agreement must hold
    # uniformly, including deep into both endpoint layers, without
    # accuracy warnings
    v = np.array(
        [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-5, 1 - 1e-7]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (cons, cons_wide):
            got = cf.h0(v, c)
            ref = oracles.h0(v, c)
            assert np.max(np.abs(got / ref - 1.0)) < 1e-9


@pytest.mark.parametrize("h1,h2", [(0.6, 0.9), (0.7, 0.99), (0.55, 0.82),
                                   (0.51, 0.8)])
def test_h0_matches_mpmath_hypergeometric(h1, h2):
    # the same Gauss hypergeometric form in 30-digit arithmetic: scipy's
    # hyp2f1 at the large negative arguments of small v, and the
    # prefactors, must hold to a few ulps across both endpoint layers
    c = derive_constants(ModelParams(hurst=HurstPair(h1, h2)))
    v = np.concatenate([np.geomspace(1e-12, 0.5, 20),
                        1.0 - np.geomspace(0.4, 1e-9, 20)])
    with mpmath.workdps(30):
        p, q = mpmath.mpf(h1), mpmath.mpf(h2)
        half = mpmath.mpf(1) / 2
        a = q - p
        b = p - half
        pre = (mpmath.mpf(c.gamma_h1) ** 2 * mpmath.gamma(3 - 2 * p)
               / ((2 - 2 * p) * q * (2 * q - 1) * mpmath.gamma(1 + half - p) ** 3
                  * mpmath.gamma(q - half) * mpmath.gamma(1 - a)))
        ref = np.array([float(
            pre * x ** (mpmath.mpf(1) / 2 - mpmath.mpf(h2)) * (1 - x) ** -a
            * mpmath.hyp2f1(a, b, 1 - a, -(1 - x) / x))
            for x in map(mpmath.mpf, v)])
    assert np.max(np.abs(cf.h0(v, c) / ref - 1.0)) <= 1e-14


@pytest.mark.parametrize("h1,h2", [(0.6, 0.9), (0.51, 0.86), (0.55, 0.82),
                                   (0.65, 0.95), (0.7, 0.99)])
def test_h0_prefactor_is_the_chain(h1, h2):
    # h0's one Gamma ratio k is the paper's chain at C = 1/gamma^2,
    # c6 Gamma(3/2-H2) / Gamma(1-a), once beta_H2 and Gamma(3/2-H2)
    # cancel; the shape factor divided out is h0's own float expression
    c = derive_constants(ModelParams(hurst=HurstPair(h1, h2)))
    a = h2 - h1
    chain = (oracles.constant_chain(canonical_C(c), c).c6
             * gamma_fn(1.5 - h2) / gamma_fn(1.0 - a))
    v = np.array([0.1, 0.5, 0.9])
    shape = (v ** (0.5 - h2) * (1.0 - v) ** -a
             * hyp2f1(a, h1 - 0.5, 1.0 - a, -(1.0 - v) / v))
    assert np.max(np.abs(cf.h0(v, c) / shape / chain - 1.0)) <= 2e-15


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
    c4 = oracles.constant_chain(canonical_C(cons), cons).c4
    a = H2 - H1
    for v in (0.2, 0.5, 0.8):

        def bounded(x, v=v):
            s = v + (1.0 - v) * x
            hb = np.asarray(cf.h0(s, cons)) * s ** (H1 - 0.5)
            dk = tab.dK12(s, np.full_like(s, v))
            return hb * dk * x ** (1.0 - a) * (1.0 - x) ** (H2 - H1)

        seed = min(max(v / (1.0 - v), 1e-12), 0.4)
        got = (1.0 - v) * oracles._layered_01(bounded, a - 1.0, H1 - H2, 32,
                                              seed, None)
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


def test_first_kind_degenerate_gap_raises():
    c = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.7)))
    with pytest.raises(DomainError, match="h2 - h1 > 1/4"):
        oracles.verify_first_kind(c, build_grid(16))


# ------------------------------------------- weighted integral, variance


def test_weighted_integral_frozen_and_refined(cons):
    val = oracles.h0_weighted_integral_beta(cons)
    assert val == pytest.approx(1.2630971387460261, rel=1e-9)
    # the layered quadrature of h0 that the Beta-function formula
    # replaced is off by 1.0e-11 here, its own error
    assert abs(val / oracles.h0_weighted_integral_quad(cons) - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(h1=st.floats(0.5005, 0.72), frac=st.floats(0.0, 1.0))
def test_weighted_integral_matches_quadrature(h1, frac):
    # the formula against the quadrature oracle over admissible pairs,
    # h2 - h1 > 1/4 and h2 <= 0.99; the quadrature's own error grows
    # with h1 and reaches 2.7e-8 at h1 = 0.72 (measured on a grid of
    # pairs down to h1 = 0.5005)
    h2 = h1 + 0.2505 + frac * (0.99 - h1 - 0.2505)
    c = derive_constants(ModelParams(hurst=HurstPair(h1, h2)))
    J = oracles.h0_weighted_integral_beta(c)
    assert J > 0.0
    assert abs(J / oracles.h0_weighted_integral_quad(c) - 1.0) <= 5e-8


def test_asymptotic_variance_value(cons):
    # V_H2 = 2 H2 Gamma(3-2H2) Gamma(H2+1/2) / Gamma(3/2-H2), the same at
    # every sigma, correctly rounded at (0.6, 0.9)
    av = cf.asymptotic_variance(cons)
    assert av == 0.9846842994633481
    h = mpmath.mpf("0.9")
    exact = (2 * h * mpmath.gamma(3 - 2 * h) * mpmath.gamma(h + 0.5)
             / mpmath.gamma(1.5 - h))
    assert av == pytest.approx(float(exact), rel=1e-15)
    for sigma in (0.5, 1.7, 3.0):
        c = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=sigma))
        assert cf.asymptotic_variance(c) == av


@pytest.mark.parametrize("h1, h2", [(0.6, 0.9), (0.6, 0.95), (0.7, 0.98),
                                    (0.55, 0.85)])
def test_asymptotic_variance_matches_the_chain_route(h1, h2):
    # the route through the constant chain: 1/(delta^2 J) with J the
    # weighted integral of h0, at sigma = 1 where delta carries no sigma
    c = derive_constants(ModelParams(hurst=HurstPair(h1, h2)))
    chain = 1.0 / (c.delta_paper**2 * oracles.h0_weighted_integral_beta(c))
    assert abs(chain / cf.asymptotic_variance(c) - 1.0) <= 1e-14


# --------------------------------------------------- finite-horizon limit


def test_h_mu_callable_matches_nodal_values(sols_by_T, cons):
    sol = sols_by_T[5.0]
    grid = sol.grid
    w = oracles.h_mu(sol, cons)
    vals = w(grid.nodes)
    factor = 5.0 ** (2.0 * (H2 - H1)) * 5.0 ** (H1 - 0.5)
    assert np.allclose(vals, factor * sol.h_hat, rtol=1e-10)
    quad = float(np.dot(grid.weights, vals * grid.nodes ** (0.5 - H1)))
    assert quad == pytest.approx(oracles.limit_functional(sol, cons), rel=1e-10)
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
    hm = oracles.h_mu(sol, cons)(u)
    mu = cons.lambda_of_T(5.0) * g2  # T^(2H2-2H1) at sigma = 1
    lhs = g2 / mu * hm + op128.matrix @ hm
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
        hm = oracles.h_mu(sols_by_T[T], cons)(u)
        got.append(float(np.sqrt(w @ (hm - ref) ** 2) / ref_norm))
    assert all(r < 1.0 for r in got)
    assert all(a > b for a, b in zip(got, got[1:]))
    assert np.allclose(got, frozen, rtol=1e-3)


def test_limit_functional_monotone_convergence(sols_by_T, cons):
    J = oracles.h0_weighted_integral_beta(cons)
    gaps = [
        abs(oracles.limit_functional(sols_by_T[T], cons) - J) / J
        for T in (1.0, 5.0, 25.0, 125.0)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    frozen = [0.504879963, 0.281978826, 0.132309970, 0.056190347]
    assert np.allclose(gaps, frozen, rtol=1e-3)


def test_limit_consistency_large_horizon(sol_sep_T125, cons_sep):
    # wider Hurst separation converges fast enough to get inside 5% by
    # T=125; at (0.6,0.9) the same gap is still ~5.6%, a rate fact
    J = oracles.h0_weighted_integral_beta(cons_sep)
    Jm = oracles.limit_functional(sol_sep_T125, cons_sep)
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
        qv = sol.qv_N
        alt = (
            5.0 ** (2.0 - 2.0 * H2)
            * oracles.limit_functional(sol, c)
            * sg**2
            * c.gamma_h1**2
        )
        assert qv == pytest.approx(alt, rel=1e-12)
