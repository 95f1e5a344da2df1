"""Score integral, likelihood, and drift-estimator tests.

Deterministic anchors: mean paths map to exactly the drift they were
built with (for every sigma), the score is linear in the path, and the
likelihood is an explicit parabola.  Monte Carlo closes the loop on
variance and normality.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

import mixedfbm.fredholm as fr
from mixedfbm.errors import AccuracyWarning, DomainError
from mixedfbm.estimator import (EstimatorResult, log_likelihood, mle,
                                stochastic_integral_N)
from mixedfbm.gaussian_sim import SamplePath, simulate_Y
from mixedfbm.kernels import KernelContext
from mixedfbm.model import HurstPair, ModelParams, derive_constants

H1, H2 = 0.6, 0.9


def graded(n, power=2.0, horizon=1.0):
    return horizon * (np.arange(n + 1) / n) ** power


def mean_path(times, theta, constants):
    vals = theta * constants.script_b * times ** (2 - 2 * constants.hurst.h1)
    return SamplePath(times=times, values=vals, label="Y")


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


@pytest.fixture(scope="module")
def cons_wide_sigma():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=1.7))


@pytest.fixture(scope="module")
def sol(cons):
    op = fr.assemble(KernelContext(constants=cons), fr.build_grid(128))
    return fr.solve_second_kind(op, 1.0, cons)


@pytest.fixture(scope="module")
def sol_wide_sigma(cons_wide_sigma):
    op = fr.assemble(KernelContext(constants=cons_wide_sigma), fr.build_grid(128))
    return fr.solve_second_kind(op, 1.0, cons_wide_sigma)


@pytest.fixture(scope="module")
def h_fast(sol):
    return fr.filter_interpolant(sol)


@pytest.fixture(scope="module")
def grid512():
    return graded(512)


def test_filter_interpolant_matches_nystrom(sol, h_fast):
    h_exact = fr.unscale(sol)
    pts = np.array([0.001, 0.013, 0.05, 0.11, 0.23, 0.37, 0.52, 0.68, 0.93, 0.999])
    rel = np.abs(h_fast(pts) / h_exact(pts) - 1.0)
    assert np.max(rel) < 1e-5
    with pytest.raises(DomainError):
        h_fast(0.0)
    with pytest.raises(DomainError):
        h_fast(1.0 + 1e-9)


def test_score_integral_zero_path(h_fast, grid512):
    path = SamplePath(times=grid512, values=np.zeros_like(grid512), label="X")
    assert stochastic_integral_N(h_fast, path) == 0.0


def test_score_integral_grid_guard(h_fast):
    t = graded(64)
    path = SamplePath(times=t, values=np.zeros_like(t), label="X")
    with pytest.raises(DomainError, match="128"):
        stochastic_integral_N(h_fast, path)


def test_score_integral_mean_path(cons, sol, h_fast):
    # deterministic drift path: the sum must reproduce the population
    # mean theta * B * (2-2H1) * <N>/(sigma gamma)^2 of the score
    theta = 0.9
    qv = fr.quadratic_variation_N(sol, cons)
    f_int = qv / (cons.sigma * cons.gamma_h1) ** 2
    target = theta * cons.script_b * (2 - 2 * cons.hurst.h1) * f_int
    for n in (512, 1024):
        val = stochastic_integral_N(h_fast, mean_path(graded(n), theta, cons))
        assert abs(val / target - 1.0) < 1e-4


def test_score_integral_refinement_warning(cons, h_fast, grid512):
    path = simulate_Y(grid512, np.random.SeedSequence(42), theta=0.0,
                      constants=cons)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stochastic_integral_N(h_fast, path, scale_hint=1e12)
        stochastic_integral_N(h_fast, path)
    with pytest.warns(AccuracyWarning, match="coarse"):
        stochastic_integral_N(h_fast, path, scale_hint=1e-12)


def test_score_integral_variance_matches_information(cons, sol, h_fast, grid512):
    qv = fr.quadratic_variation_N(sol, cons)
    vals = np.empty(2000)
    for r in range(2000):
        p = simulate_Y(grid512, np.random.SeedSequence((909, r)), theta=0.0,
                       constants=cons)
        vals[r] = stochastic_integral_N(h_fast, p)
    assert abs(vals.var(ddof=1) / qv - 1.0) < 0.10


def test_mle_zero_path(cons, sol, grid512):
    path = SamplePath(times=grid512, values=np.zeros_like(grid512), label="X")
    res = mle(sol, path, cons)
    assert isinstance(res, EstimatorResult)
    assert res.theta_hat == 0.0
    assert res.n_T == 0.0
    assert res.qv_N > 0.0
    assert res.variance_pred > 0.0
    assert res.variance_pred_paper > 0.0


def test_mle_mean_path_unit_sigma(cons, sol):
    res = mle(sol, mean_path(graded(1024), 0.9, cons), cons)
    assert abs(res.theta_hat / 0.9 - 1.0) < 1e-4


def test_mle_mean_path_general_sigma(cons_wide_sigma, sol_wide_sigma):
    # pins the sigma placement in the normalization: the quadratic
    # variation carries sigma^2 while the mean of the score does not,
    # so only drift_norm/sigma maps mean paths back to theta here
    res = mle(sol_wide_sigma, mean_path(graded(1024), 0.9, cons_wide_sigma),
              cons_wide_sigma)
    assert abs(res.theta_hat / 0.9 - 1.0) < 1e-4


def test_mle_normalization_identities(cons, sol, grid512):
    path = simulate_Y(grid512, np.random.SeedSequence(7), theta=0.4,
                      constants=cons)
    res = mle(sol, path, cons)
    d = cons.drift_norm / cons.sigma
    assert res.theta_hat == pytest.approx(res.n_T / (d * res.qv_N), rel=1e-14)
    # at sigma=1 this is the plain drift_norm identity
    assert cons.sigma == 1.0
    assert res.theta_hat == pytest.approx(
        res.n_T / (cons.drift_norm * res.qv_N), rel=1e-14)
    assert res.variance_pred == pytest.approx(1.0 / (d**2 * res.qv_N), rel=1e-14)
    assert res.variance_pred_paper == pytest.approx(
        (cons.sigma * cons.gamma_h1) ** 2 / res.qv_N, rel=1e-14)


def test_filter_spline_built_once_per_solve(monkeypatch, cons, grid512):
    # the solve builds the extended spline for its residual audit and
    # keeps it on the solution; mle wraps the kept spline
    calls = []
    build = fr._extended_spline

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fr, "_extended_spline", counting)
    op = fr.assemble(KernelContext(constants=cons), fr.build_grid(64))
    sol64 = fr.solve_second_kind(op, 1.0, cons, residual_tol=1e-4)
    assert len(calls) == 1
    path = simulate_Y(grid512, np.random.SeedSequence(3), theta=1.0,
                      constants=cons)
    first, second = mle(sol64, path, cons), mle(sol64, path, cons)
    assert len(calls) == 1
    assert first.theta_hat == second.theta_hat


def test_mle_horizon_mismatch(cons, sol):
    t = graded(512, horizon=0.5)
    path = SamplePath(times=t, values=np.zeros_like(t), label="X")
    with pytest.raises(DomainError, match="horizon"):
        mle(sol, path, cons)


def test_mle_monte_carlo_unbiased_and_normal(cons, sol, grid512):
    reps = 1000
    est = np.empty(reps)
    for r in range(reps):
        p = simulate_Y(grid512, np.random.SeedSequence((1001, r)), theta=1.0,
                       constants=cons)
        est[r] = mle(sol, p, cons).theta_hat
    res = mle(sol, mean_path(grid512, 1.0, cons), cons)
    se = est.std(ddof=1) / np.sqrt(reps)
    assert abs(est.mean() - 1.0) <= 3.0 * se
    # sampling variance agrees with the Gaussian-calculus prediction;
    # the alternative printed normalization misses by ~20% here
    assert abs(est.var(ddof=1) / res.variance_pred - 1.0) < 0.10
    z = (est - 1.0) / np.sqrt(res.variance_pred)
    assert stats.kstest(z, "norm").pvalue >= 0.01


def test_mle_shift_equivariance(cons, sol, grid512):
    # same seed => identical noise; adding drift theta shifts the
    # estimate by exactly theta times the mean-path estimate
    p0 = simulate_Y(grid512, np.random.SeedSequence(42), theta=0.0,
                    constants=cons)
    p7 = simulate_Y(grid512, np.random.SeedSequence(42), theta=0.7,
                    constants=cons)
    shift = mle(sol, p7, cons).theta_hat - mle(sol, p0, cons).theta_hat
    unit = mle(sol, mean_path(grid512, 1.0, cons), cons).theta_hat
    assert shift == pytest.approx(0.7 * unit, abs=1e-12)


def test_log_likelihood_parabola(cons, sol, grid512):
    path = simulate_Y(grid512, np.random.SeedSequence(42), theta=0.7,
                      constants=cons)
    res = mle(sol, path, cons)
    assert res.loglik_at(0.0) == 0.0
    peak = res.loglik_at(res.theta_hat)
    assert peak == pytest.approx(0.5 * res.n_T**2 / res.qv_N, rel=1e-12)
    for theta in np.linspace(-2.0, 3.0, 21):
        assert res.loglik_at(theta) <= peak + 1e-15


def test_log_likelihood_argmax_scaling(cons, sol, grid512):
    # rescaling the normalization constant by c moves the argmax to
    # theta_hat / c; the parabola vertex makes this exact
    path = simulate_Y(grid512, np.random.SeedSequence(42), theta=0.7,
                      constants=cons)
    res = mle(sol, path, cons)
    d = cons.drift_norm / cons.sigma
    for c in (0.5, 2.0, 7.3):
        vertex = res.n_T / ((c * d) * res.qv_N)
        assert vertex == pytest.approx(res.theta_hat / c, rel=1e-14)
        lo = log_likelihood(res.n_T, res.qv_N, c * d, vertex)
        for theta in (vertex * 0.9, vertex * 1.1, 0.0, -1.0):
            assert log_likelihood(res.n_T, res.qv_N, c * d, theta) <= lo
