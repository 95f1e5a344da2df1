"""Score integral, likelihood, and drift-estimator tests.

Deterministic anchors: mean paths map to exactly the drift they were
built with (for every sigma), the score is linear in the path, and the
likelihood is an explicit parabola.  Monte Carlo closes the loop on
variance and normality.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy import stats

import mixedfbm.estimator as estimator
import mixedfbm.fredholm as fr
import mixedfbm.gaussian_sim as gs
import oracles
from mixedfbm.errors import AccuracyWarning, DomainError
from mixedfbm.estimator import EstimatorResult, mle
from mixedfbm.gaussian_sim import SamplePath, simulate_Y
from mixedfbm.kernels import KernelContext
from mixedfbm.model import HurstPair, ModelParams, derive_constants

H1, H2 = 0.6, 0.9


def graded(n, power=2.0, horizon=1.0):
    return horizon * (np.arange(n + 1) / n) ** power


def stochastic_integral_N(h_T, path, scale_hint=None):
    """The score integral of ``mle``: the weight h_T read once at the
    midpoints of the path grid and of its half, then summed against the
    path's increments on both grids."""
    return estimator._score(estimator._midpoint_weights(h_T, path.times),
                            path.values, scale_hint)


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
    h_exact = oracles.unscale(sol)
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
    qv = sol.qv_N
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


def test_score_reads_the_filter_once_bitwise(cons, h_fast, grid512):
    # one read at the fine and coarse midpoints together gives the same
    # bits as the two reads of the reference score, warning or not
    odd = graded(511)
    reads = []

    def counted(t):
        reads.append(t.size)
        return h_fast(t)

    for r in range(40):
        grid = grid512 if r % 2 else odd
        p = simulate_Y(grid, np.random.SeedSequence((808, r)), theta=0.5,
                       constants=cons)
        for hint in (None, 1e12):
            assert stochastic_integral_N(counted, p, scale_hint=hint) == \
                oracles.stochastic_integral_N(h_fast, p, scale_hint=hint)
    assert len(reads) == 80
    with pytest.warns(AccuracyWarning, match="coarse"):
        new = stochastic_integral_N(h_fast, p, scale_hint=1e-12)
    with pytest.warns(AccuracyWarning, match="coarse"):
        assert new == oracles.stochastic_integral_N(h_fast, p, scale_hint=1e-12)


def test_score_and_mle_of_columns(cons, sol, h_fast, grid512):
    # a path of columns gives one score and one estimate per column, each
    # the single-path value to roundoff
    seeds = [np.random.SeedSequence((818, r)) for r in range(12)]
    cols = simulate_Y(grid512, seeds, theta=0.8, constants=cons)
    many = stochastic_integral_N(h_fast, cols)
    fit = mle(sol, cols, cons)
    assert many.shape == fit.theta_hat.shape == (12,)
    for j in range(12):
        one = SamplePath(times=cols.times, values=cols.values[:, j], label="Y")
        assert many[j] == pytest.approx(stochastic_integral_N(h_fast, one),
                                        rel=1e-13, abs=0.0)
        assert fit.theta_hat[j] == pytest.approx(mle(sol, one, cons).theta_hat,
                                                 rel=1e-13, abs=0.0)


def test_score_integral_variance_matches_information(cons, sol, h_fast, grid512):
    qv = sol.qv_N
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


def test_mle_refuses_constants_of_another_solve(cons, sol, cons_wide_sigma):
    # constants at sigma = 1.7 read against the sigma = 1 solve once gave
    # theta_hat = 2.6010 on this mean path of theta = 0.9, silently
    path = mean_path(graded(1024), 0.9, cons_wide_sigma)
    with pytest.raises(DomainError, match="not those of the solution"):
        mle(sol, path, cons_wide_sigma)
    other_pair = derive_constants(ModelParams(hurst=HurstPair(H1, 0.88)))
    with pytest.raises(DomainError, match="not those of the solution"):
        mle(sol, mean_path(graded(1024), 0.9, other_pair), other_pair)
    # constants derived again from the same model are accepted
    again = derive_constants(ModelParams(hurst=HurstPair(H1, H2)))
    assert mle(sol, path, again).theta_hat == mle(sol, path, cons).theta_hat


def _assert_same_result(res, ref):
    for f in dataclasses.fields(EstimatorResult):
        assert np.array_equal(getattr(res, f.name), getattr(ref, f.name))


def test_mle_reads_its_model_from_the_solution(cons, sol, grid512):
    # the constants are optional and never enter the numbers: with them,
    # without them, or from a plain record of its fields, every field
    # keeps its bits
    again = derive_constants(ModelParams(hurst=HurstPair(H1, H2)))
    one = simulate_Y(grid512, np.random.SeedSequence(31), theta=0.7,
                     constants=cons)
    cols = simulate_Y(grid512, [np.random.SeedSequence((32, r))
                                for r in range(6)], theta=0.7, constants=cons)
    record = fr.SolutionRecord(sol.constants, sol.horizon_T, sol.spline,
                               sol.qv_N)
    for path in (one, cols):
        ref = mle(sol, path, cons)
        for res in (mle(sol, path), mle(sol, path, again),
                    mle(record, path)):
            _assert_same_result(res, ref)


def test_mle_of_the_record_read_back_from_json(sol, sol_wide_sigma, grid512):
    # the solve sidecar is the solution's record written out and read
    # back; at sigma != 1 the constants derived again from it carry
    # sigma too
    for solution in (sol, sol_wide_sigma):
        assert isinstance(solution, fr.SolutionRecord)
        cons = solution.constants
        back = fr.SolutionRecord.from_json(
            json.loads(json.dumps(solution.to_json())))
        assert back.to_json() == solution.to_json()
        one = simulate_Y(grid512, np.random.SeedSequence(33), theta=0.7,
                         constants=cons)
        cols = simulate_Y(grid512, [np.random.SeedSequence((34, r))
                                    for r in range(6)], theta=0.7,
                          constants=cons)
        for path in (one, cols):
            _assert_same_result(mle(back, path), mle(solution, path))


def test_overridden_coupling_has_no_record(sol):
    # a filter and information at a coupling other than the model's
    # belong to no model: no solution or record holds them.  The coupling
    # is read from the constants, and a sidecar naming another is refused
    assert sol.lam == sol.constants.lambda_of_T(sol.horizon_T)
    with pytest.raises(TypeError):
        dataclasses.replace(sol, lam=2.0 * sol.lam)
    with pytest.raises(AttributeError):
        sol.lam = 2.0 * sol.lam
    with pytest.raises(DomainError, match="coupling"):
        fr.SolutionRecord.from_json({**sol.to_json(), "lambda": 2.0 * sol.lam})


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


def test_filter_interpolant_is_the_solution_filter(sol):
    assert fr.filter_interpolant(sol) is fr.filter_interpolant(sol)
    assert fr.filter_interpolant(sol) is sol.filter


def test_filter_evaluates_the_spline_once_per_grid(monkeypatch, cons, sol,
                                                   grid512):
    # the solution keeps the filter's values for the last grid mle read:
    # mle on many paths of one grid reads the spline once, and each
    # change of grid once more
    fresh = dataclasses.replace(sol)
    calls = []
    inv = fr._graded_map_inv

    def counting(u):
        calls.append(np.size(u))
        return inv(u)

    monkeypatch.setattr(fr, "_graded_map_inv", counting)
    odd = graded(511)
    for grid, expected in ((grid512, 1), (odd, 2), (grid512, 3)):
        for r in range(5):
            p = simulate_Y(grid, np.random.SeedSequence((828, r)), theta=0.5,
                           constants=cons)
            mle(fresh, p, cons)
        assert len(calls) == expected
    assert calls[0] == 512 + 256


def test_warm_grid_pair_derives_nothing_from_the_grid(monkeypatch, cons, sol,
                                                     grid512):
    # once a grid has been drawn and estimated on, a further simulate_Y
    # + mle pair on it neither validates the grid again nor reads the
    # filter's spline, one path or columns
    fresh = dataclasses.replace(sol)
    mle(fresh, simulate_Y(grid512, 1, theta=0.5, constants=cons), cons)
    calls = []
    for module, name in ((gs, "_positive_times"), (fr, "_graded_map_inv")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    for r in range(3):
        for seed in (np.random.SeedSequence((868, r)), [2 * r, 2 * r + 1]):
            mle(fresh, simulate_Y(grid512, seed, theta=0.5, constants=cons),
                cons)
    assert calls == []


def test_mle_keeps_the_last_grid_read_only_on_the_solution(cons, sol, grid512):
    fresh = dataclasses.replace(sol)
    assert fresh.midpoint_filter is None
    for grid in (graded(511), grid512):
        mle(fresh, simulate_Y(grid, 4, theta=0.5, constants=cons), cons)
        key, (fine, coarse, appended) = fresh.midpoint_filter
        assert key == grid.tobytes()
        assert (fine.size, coarse.size) == (grid.size - 1, grid.size // 2)
        assert appended == (grid.size % 2 == 0)
        for values in (fine, coarse):
            with pytest.raises(ValueError):
                values[0] = 0.0
    assert sol.midpoint_filter is not fresh.midpoint_filter


def test_filter_memo_keeps_the_domain_check(sol, grid512):
    h = dataclasses.replace(sol).filter
    mid = 0.5 * (grid512[1:] + grid512[:-1])
    first = h(mid)
    for bad_end in (1.0 + 1e-9, 0.0, -0.5):
        bad = mid.copy()
        bad[-1] = bad_end
        for _ in range(2):
            assert np.array_equal(h(mid), first)
            with pytest.raises(DomainError):
                h(bad)
    with pytest.raises(DomainError):
        h(0.0)
    assert h(0.5) == float(h(np.array([0.5]))[0])


def test_filter_memo_returns_copies(sol, grid512):
    h = dataclasses.replace(sol).filter
    mid = 0.5 * (grid512[1:] + grid512[:-1])
    cold = h(mid)
    kept = cold.copy()
    cold[:] = 0.0
    warm = h(mid)
    assert np.array_equal(warm, kept)
    warm[:] = 7.0
    assert np.array_equal(h(mid), kept)
    assert np.array_equal(h(mid.reshape(8, 64)), kept.reshape(8, 64))


def test_mle_with_the_filter_memo_is_bitwise_the_reference(cons, sol, grid512):
    # theta_hat from the remembered filter values has the bits of the
    # two-read reference score, warning or not; the reference's own
    # filter is built apart so that it shares no memo with mle
    fresh = dataclasses.replace(sol)
    h_ref = dataclasses.replace(sol).filter
    qv = oracles.quadratic_variation_N(sol, cons)
    d_eff = cons.drift_norm / cons.sigma
    warned = 0
    grids = (grid512, graded(511), graded(512, power=1.8))
    for r in range(42):
        grid = grids[r // 14]
        p = simulate_Y(grid, np.random.SeedSequence((838, r)),
                       theta=1e4 if r % 4 == 3 else 0.5, constants=cons)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            new = mle(fresh, p, cons).theta_hat
            ref = oracles.stochastic_integral_N(h_ref, p, scale_hint=qv)
        assert len(got) in (0, 2)
        warned += len(got) // 2
        assert new == ref / (d_eff * qv)
    assert warned >= 5
    seeds = [np.random.SeedSequence((848, r)) for r in range(8)]
    cols = simulate_Y(grid512, seeds, theta=0.8, constants=cons)
    cold = mle(dataclasses.replace(sol), cols, cons).theta_hat
    warm = mle(fresh, cols, cons).theta_hat
    assert np.array_equal(mle(fresh, cols, cons).theta_hat, cold)
    assert np.array_equal(warm, cold)
    for j in range(8):
        one = SamplePath(times=cols.times, values=cols.values[:, j], label="Y")
        assert cold[j] == pytest.approx(
            oracles.stochastic_integral_N(h_ref, one, scale_hint=qv)
            / (d_eff * qv), rel=1e-13, abs=0.0)


def test_mle_reads_the_information_of_the_solution(cons_wide_sigma,
                                                   sol_wide_sigma):
    # mle takes <N>(T) from the solution, not from a second computation,
    # and its estimates keep the bits of the formula that recomputed it
    # from the nodal solution; sigma != 1 so that both carry sigma
    cons, sol = cons_wide_sigma, sol_wide_sigma
    qv = oracles.quadratic_variation_N(sol, cons)
    d_eff = cons.drift_norm / cons.sigma
    for grid in (graded(512), graded(511), graded(512, power=1.8)):
        for r in range(4):
            p = simulate_Y(grid, np.random.SeedSequence((858, r)),
                           theta=0.5, constants=cons)
            res = mle(sol, p, cons)
            assert res.qv_N is sol.qv_N
            ref = oracles.stochastic_integral_N(sol.filter, p, scale_hint=qv)
            assert res.theta_hat == ref / (d_eff * qv)


@pytest.mark.parametrize("qv", [-3.0, 0.0, np.nan, np.inf, -np.inf])
def test_estimate_refuses_information_not_positive_and_finite(sol, qv):
    with pytest.raises(DomainError, match="information"):
        dataclasses.replace(sol, qv_N=qv)


def test_mle_refuses_a_path_that_is_not_transformed(cons, sol, grid512):
    # a raw Z or an fBm path used to give an estimate with no error; only
    # Y and X, the transformed observation, are read
    z = gs.simulate_Z(grid512, 5, 1.0, cons)
    for path in (z, gs.simulate_fbm(0.7, grid512, 5)):
        with pytest.raises(DomainError, match="label Y or X"):
            mle(sol, path)
    for path in (simulate_Y(grid512, 5, 1.0, cons),
                 gs.simulate_X(grid512, 5, cons), gs.molchan_transform(z, cons)):
        assert np.isfinite(mle(sol, path).theta_hat)


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
    d = cons.drift_norm / cons.sigma
    loglik = lambda theta: oracles.log_likelihood(res.n_T, res.qv_N, d, theta)
    assert loglik(0.0) == 0.0
    peak = loglik(res.theta_hat)
    assert peak == pytest.approx(0.5 * res.n_T**2 / res.qv_N, rel=1e-12)
    for theta in np.linspace(-2.0, 3.0, 21):
        assert loglik(theta) <= peak + 1e-15


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
        lo = oracles.log_likelihood(res.n_T, res.qv_N, c * d, vertex)
        for theta in (vertex * 0.9, vertex * 1.1, 0.0, -1.0):
            assert oracles.log_likelihood(res.n_T, res.qv_N, c * d, theta) <= lo
