"""Exact simulation, the path transform, and their cross-validation."""

import numpy as np
import pytest
from scipy.integrate import quad

from mixedfbm import gaussian_sim as gs
from mixedfbm.errors import AccuracyError, DomainError
from mixedfbm.kernels import get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
from mixedfbm.numerics import beta_fn

H1, H2 = 0.6, 0.9


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


def graded(n, power=2.0, horizon=1.0):
    return horizon * (np.arange(n + 1) / n) ** power


# ------------------------------------------------------------------ types


def test_sample_path_validation():
    t = np.array([0.0, 0.5, 1.0])
    gs.SamplePath(times=t, values=np.array([0.0, 1.0, -0.5]), label="X")
    with pytest.raises(DomainError):
        gs.SamplePath(times=np.array([0.1, 0.5, 1.0]), values=np.zeros(3), label="X")
    with pytest.raises(DomainError):
        gs.SamplePath(times=np.array([0.0, 0.5, 0.5]), values=np.zeros(3), label="X")
    with pytest.raises(DomainError):
        gs.SamplePath(times=t, values=np.array([0.1, 1.0, 1.0]), label="X")
    with pytest.raises(DomainError):
        gs.SamplePath(times=t, values=np.array([0.0, np.nan, 1.0]), label="X")
    with pytest.raises(DomainError):
        gs.SamplePath(times=t, values=np.zeros(3), label="W")


def test_covariance_model_invariants(cons):
    t = np.linspace(0.1, 1.0, 10)
    m = gs.covariance_model(t, cons, "X")
    assert np.allclose(m.matrix, m.matrix.T, rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh(m.matrix)[0] >= -1e-10 * np.trace(m.matrix)
    rec = m.chol @ m.chol.T
    assert np.linalg.norm(rec - m.matrix) <= 1e-8 * np.linalg.norm(m.matrix)
    assert np.all(m.drift == 0.0)
    my = gs.covariance_model(t, cons, "Y", theta=0.7)
    assert np.allclose(my.drift, 0.7 * cons.script_b * t ** (2 - 2 * H1), rtol=1e-14)
    assert np.allclose(my.matrix, m.matrix, rtol=0, atol=0)
    mz = gs.covariance_model(t, cons, "Z", theta=0.7)
    assert np.allclose(mz.drift, 0.7 * t, rtol=1e-14)
    with pytest.raises(DomainError):
        gs.covariance_model(t, cons, "Q")


# ----------------------------------------------------------- covariance_X


def test_covariance_X_basics(cons):
    assert gs.covariance_X(0.0, 0.7, cons) == 0.0
    assert gs.covariance_X(0.4, 1.0, cons) == gs.covariance_X(1.0, 0.4, cons)
    with pytest.raises(DomainError):
        gs.covariance_X(-0.1, 0.5, cons)
    arr = gs.covariance_X(np.array([0.2, 0.5]), 0.5, cons)
    assert arr.shape == (2,)


def test_covariance_X_components(cons):
    tab = get_tables(H1, H2)
    v = gs.covariance_X(1.0, 1.0, cons)
    assert v == pytest.approx(cons.epsilon_h1 + tab.R(1.0, 1.0), rel=1e-14)
    assert v == pytest.approx(2.9912859408633183, rel=1e-12)
    c2 = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=1.7))
    assert gs.covariance_X(1.0, 1.0, c2) == pytest.approx(
        1.7**2 * cons.epsilon_h1 + tab.R(1.0, 1.0), rel=1e-14
    )


# ------------------------------------------------------------- simulation


def test_simulate_X_determinism(cons):
    t = np.linspace(0.1, 1.0, 10)
    a = gs.simulate_X(t, 42, cons)
    b = gs.simulate_X(t, 42, cons)
    c = gs.simulate_X(t, 43, cons)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0 and a.label == "X" and a.times[0] == 0.0


def test_simulate_X_matches_covariance(cons):
    t = np.linspace(0.1, 1.0, 10)
    R = 20000
    samp = np.empty((R, 10))
    for r in range(R):
        samp[r] = gs.simulate_X(t, np.random.SeedSequence((101, r)), cons).values[1:]
    emp = samp.T @ samp / R
    ref = gs.covariance_X(t[:, None], t[None, :], cons)
    assert abs(emp[-1, -1] / ref[-1, -1] - 1.0) < 0.03
    assert np.max(np.abs(emp / ref - 1.0)) < 0.05


def test_simulate_Y_drift(cons):
    t = np.linspace(0.1, 1.0, 10)
    x = gs.simulate_X(t, 7, cons)
    y0 = gs.simulate_Y(t, 7, 0.0, cons)
    assert np.array_equal(x.values, y0.values)
    y = gs.simulate_Y(t, 7, 1.3, cons)
    drift = y.values - x.values
    assert np.allclose(drift[1:], 1.3 * cons.script_b * t ** (2 - 2 * H1), rtol=1e-12)
    # the drift-to-power ratio is constant in t
    ratio = drift[1:] / t ** (2 - 2 * H1)
    assert np.ptp(ratio) < 1e-12 * np.abs(ratio).max()


def test_simulate_Y_mc_mean(cons):
    theta = 0.8
    t = np.array([1.0])
    R = 20000
    vals = np.empty(R)
    for r in range(R):
        vals[r] = gs.simulate_Y(t, np.random.SeedSequence((202, r)), theta, cons).values[-1]
    se = vals.std(ddof=1) / np.sqrt(R)
    assert abs(vals.mean() - theta * cons.script_b) <= 3.0 * se


def test_fbm_covariance_formula():
    assert gs._fbm_cov(0.75, np.float64(1.0), np.float64(1.0)) == 1.0
    assert gs._fbm_cov(0.75, np.float64(1.0), np.float64(2.0)) == pytest.approx(
        2.0 ** (2 * 0.75 - 1), rel=1e-15
    )


def test_fbm_mc_covariance():
    with pytest.raises(DomainError):
        gs.simulate_fbm(0.4, np.linspace(0.0, 1.0, 65), 1)
    t = np.linspace(0.1, 1.0, 10)
    R = 20000
    samp = np.empty((R, 10))
    for r in range(R):
        samp[r] = gs.simulate_fbm(0.7, t, np.random.SeedSequence((303, r))).values[1:]
    emp = samp.T @ samp / R
    ref = gs._fbm_cov(0.7, t[:, None], t[None, :])
    assert np.max(np.abs(emp / ref - 1.0)) < 0.05


def test_simulate_Z_composition(cons):
    t = graded(256)
    z0 = gs.simulate_Z(t, 11, 0.0, cons)
    z1 = gs.simulate_Z(t, 11, 2.0, cons)
    assert np.allclose(z1.values, z0.values + 2.0 * z1.times, rtol=0, atol=1e-14)
    assert z0.label == "Z"
    assert np.array_equal(gs.simulate_Z(t, 11, 0.0, cons).values, z0.values)


# -------------------------------------------------------------- transform


def test_molchan_pure_drift(cons):
    g = graded(512)
    z = gs.SamplePath(times=g, values=g.copy(), label="Z")
    out = np.array([0.2, 0.5, 1.0])
    y = gs.molchan_transform(z, cons, out_times=out)
    ref = cons.script_b * out ** (2.0 - 2.0 * H1)
    assert np.max(np.abs(y.values[1:] / ref - 1.0)) < 1e-6
    assert y.label == "Y" and y.values[0] == 0.0


def test_molchan_plan_cache_is_bounded(cons):
    # plans are O(n^2) each; new grids must evict old plans, not pile up
    cap = gs._molchan_plan.cache_info().maxsize
    assert cap <= 4
    gs._molchan_plan.cache_clear()
    for k in range(cap + 3):
        g = graded(64, power=2.0 + 0.1 * k)
        z = gs.SamplePath(times=g, values=g.copy(), label="Z")
        gs.molchan_transform(z, cons)
        assert gs._molchan_plan.cache_info().currsize <= cap
    assert gs._molchan_plan.cache_info().currsize == cap


def test_molchan_zero_path(cons):
    g = graded(256)
    z = gs.SamplePath(times=g, values=np.zeros_like(g), label="Z")
    y = gs.molchan_transform(z, cons)
    assert np.all(y.values == 0.0)


def test_molchan_quadratic_oracle(cons):
    g = graded(512)
    z = gs.SamplePath(times=g, values=g**2, label="Z")
    out = np.array([0.3, 1.0])
    y = gs.molchan_transform(z, cons, out_times=out)
    closed = 2.0 * out ** (3.0 - 2.0 * H1) * beta_fn(2.5 - H1, 1.5 - H1)
    assert np.max(np.abs(y.values[1:] / closed - 1.0)) < 1e-4
    # independent route: adaptive quadrature of the defining integral
    # with the kernel's two algebraic endpoints declared
    for t, got in zip(out, y.values[1:]):
        direct = quad(
            lambda s: 2.0 * s, 0.0, t, weight="alg", wvar=(0.5 - H1, 0.5 - H1)
        )[0]
        assert got == pytest.approx(direct, rel=1e-4)


def test_molchan_guards(cons):
    g = graded(512)
    z = gs.SamplePath(times=g, values=g.copy(), label="Z")
    with pytest.raises(AccuracyError):
        gs.molchan_transform(z, cons, out_times=np.array([g[10]]))
    with pytest.raises(DomainError):
        gs.molchan_transform(z, cons, out_times=np.array([1.5]))
    with pytest.raises(DomainError):
        gs.molchan_transform(z, cons, out_times=np.array([0.5, 0.4]))
    short = gs.SamplePath(times=graded(20), values=np.zeros(21), label="Z")
    with pytest.raises(AccuracyError):
        gs.molchan_transform(short, cons)


def test_molchan_default_output(cons):
    g = graded(128)
    z = gs.SamplePath(times=g, values=g.copy(), label="Z")
    y = gs.molchan_transform(z, cons)
    assert np.array_equal(y.times[1:], g[33:])


# ------------------------------------------------------------ round trips


def test_round_trip_pure_drift(cons):
    g = graded(512)
    z = gs.SamplePath(times=g, values=g.copy(), label="Z")
    back = gs.inverse_transform(gs.molchan_transform(z, cons), cons)
    m = back.times >= 0.1
    assert np.max(np.abs(back.values[m] - back.times[m])) <= 1e-3


def test_round_trip_quadratic(cons):
    g = graded(512)
    z = gs.SamplePath(times=g, values=g**2, label="Z")
    back = gs.inverse_transform(gs.molchan_transform(z, cons), cons)
    m = back.times >= 0.1
    assert np.max(np.abs(back.values[m] / back.times[m] ** 2 - 1.0)) <= 1e-3


def test_round_trip_simulated_path(cons):
    g = graded(1024)
    z = gs.simulate_Z(g, 2024, 0.7, cons)
    back = gs.inverse_transform(gs.molchan_transform(z, cons), cons)
    zt = np.interp(back.times, z.times, z.values)
    m = back.times >= 0.1
    sup = np.max(np.abs(back.values[m] - zt[m]))
    assert sup <= 0.05 * np.max(np.abs(zt[m]))


def test_inverse_guard(cons):
    short = gs.SamplePath(times=graded(16), values=np.zeros(17), label="Y")
    with pytest.raises(AccuracyError):
        gs.inverse_transform(short, cons)


# -------------------------------------------------- distributional cross-checks


def test_pathwise_matches_covariance_route(cons):
    # the transform of theta*t + sigma*B1 + B2, built pathwise from two
    # independent fractional draws, must reproduce the covariance-route
    # law of X; this ties the kernel tables, the simulator, and the
    # transform quadrature together
    g = graded(512)
    out8 = np.linspace(0.125, 1.0, 8)
    R = 20000
    samp_t = np.empty((R, 8))
    samp_c = np.empty((R, 8))
    for r in range(R):
        z = gs.simulate_Z(g, np.random.SeedSequence((505, r)), 0.0, cons)
        samp_t[r] = gs.molchan_transform(z, cons, out_times=out8).values[1:]
        samp_c[r] = gs.simulate_X(out8, np.random.SeedSequence((606, r)), cons).values[1:]
    ref = gs.covariance_X(out8[:, None], out8[None, :], cons)
    cov_t = samp_t.T @ samp_t / R
    cov_c = samp_c.T @ samp_c / R
    assert np.max(np.abs(cov_t / ref - 1.0)) < 0.05
    assert np.max(np.abs(cov_c / ref - 1.0)) < 0.05
    assert np.max(np.abs(cov_t - cov_c) / ref) < 0.05


def test_transformed_martingale_variance(cons):
    # transforming a pure first-component path isolates the martingale,
    # whose variance is epsilon * t^{2-2H1}
    g = graded(512)
    out = np.array([0.5, 1.0])
    R = 8000
    samp = np.empty((R, 2))
    for r in range(R):
        b = gs.simulate_fbm(H1, g, np.random.SeedSequence((707, r)))
        z = gs.SamplePath(times=b.times, values=b.values, label="Z")
        samp[r] = gs.molchan_transform(z, cons, out_times=out).values[1:]
    var = (samp**2).mean(axis=0)
    ref = cons.epsilon_h1 * out ** (2.0 - 2.0 * H1)
    assert np.max(np.abs(var / ref - 1.0)) < 0.05
