"""Exact simulation, the path transform, and their cross-validation."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.special import betainc

import oracles
from mixedfbm import gaussian_sim as gs
from mixedfbm.errors import AccuracyError, DomainError, IllConditionedError
from mixedfbm.harness import _DEFAULT_T_SEQUENCE
from mixedfbm.kernels import KernelTables, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
from mixedfbm.numerics import beta_fn

H1, H2 = 0.6, 0.9


@pytest.fixture(scope="module")
def cons():
    return derive_constants(ModelParams(hurst=HurstPair(H1, H2)))


def graded(n, power=2.0, horizon=1.0):
    return horizon * (np.arange(n + 1) / n) ** power


def near_duplicates(n):
    # n / 2 uniform times, each with the next float up beside it
    base = np.arange(1, n // 2 + 1) / (n // 2)
    return np.concatenate(([0.0], np.sort(np.concatenate((base, np.nextafter(base, 2.0))))))


# ------------------------------------------------------------------ types


def test_sample_path_validation():
    t = np.array([0.0, 0.5, 1.0])
    gs.SamplePath(times=t, values=np.array([0.0, 1.0, -0.5]), label="Y")
    with pytest.raises(DomainError):
        gs.SamplePath(times=np.array([0.1, 0.5, 1.0]), values=np.zeros(3), label="Y")
    with pytest.raises(DomainError):
        gs.SamplePath(times=np.array([0.0, 0.5, 0.5]), values=np.zeros(3), label="Y")
    with pytest.raises(DomainError):
        gs.SamplePath(times=t, values=np.array([0.1, 1.0, 1.0]), label="Y")
    with pytest.raises(DomainError):
        gs.SamplePath(times=t, values=np.array([0.0, np.nan, 1.0]), label="Y")
    # the paper's observation X is the package's Z, and the driftless
    # transformed observation is Y at theta = 0: "X" names no path
    for label in ("W", "X"):
        with pytest.raises(DomainError, match=f"unknown path label '{label}'"):
            gs.SamplePath(times=t, values=np.zeros(3), label=label)


def test_sample_path_columns():
    t = np.array([0.0, 0.5, 1.0])
    cols = np.array([[0.0, 0.0], [1.0, 2.0], [-0.5, 0.5]])
    assert gs.SamplePath(times=t, values=cols, label="Y").values.shape == (3, 2)
    with pytest.raises(DomainError, match="one row per time"):
        gs.SamplePath(times=t, values=cols.T, label="Y")
    with pytest.raises(DomainError, match="one row per time"):
        gs.SamplePath(times=t, values=np.zeros((3, 2, 1)), label="Y")
    with pytest.raises(DomainError, match="start at 0"):
        gs.SamplePath(times=t, values=cols + [0.0, 1.0], label="Y")
    cols[1, 1] = np.inf
    with pytest.raises(DomainError, match="non-finite"):
        gs.SamplePath(times=t, values=cols, label="Y")


def test_paths_and_models_compare_by_identity(cons):
    # == reads no arrays, which have no one truth value
    t = graded(8)
    p1 = gs.SamplePath(times=t, values=np.zeros(9), label="Y")
    p2 = gs.SamplePath(times=t, values=np.zeros(9), label="Y")
    assert p1 in [p1] and p1 != p2 and len({p1, p2, p1}) == 2
    drawn = gs.simulate_Y(t, 7, 0.0, cons)
    assert drawn in [drawn] and drawn != p1
    model = gs.covariance_model(t, cons, "Y")
    assert {model} == {model}
    assert model != gs.covariance_model(t, cons, "Y", theta=0.5)


def test_covariance_model_invariants(cons):
    t = np.linspace(0.1, 1.0, 10)
    gs._factor_cached.cache_clear()
    m = gs.covariance_model(t, cons, "Y")
    mat = gs._matrix(t, gs._cov_key(cons, "Y"))
    assert np.allclose(mat, mat.T, rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.trace(mat)
    rec = m.chol @ m.chol.T
    assert np.linalg.norm(rec - mat) <= 1e-8 * np.linalg.norm(mat)
    assert np.all(m.drift == 0.0)
    assert not hasattr(m, "matrix")
    # Y has one covariance: one miss, one factor at every theta, and the
    # drift is the unit shape scaled per call
    power = t ** (2 - 2 * H1)
    for theta in (0.5, 0.7):
        my = gs.covariance_model(t, cons, "Y", theta=theta)
        assert my.chol is m.chol and my.path_times is m.path_times
        assert np.array_equal(my.drift, theta * cons.script_b * power)
    assert gs._factor_cached.cache_info().misses == 1
    assert np.all(m.drift == 0.0)
    mz = gs.covariance_model(t, cons, "Z", theta=0.7)
    assert np.array_equal(mz.drift, 0.7 * t)
    assert gs._factor_cached.cache_info().misses == 2
    for process in ("Q", "X"):
        with pytest.raises(DomainError, match=f"unknown process '{process}'"):
            gs.covariance_model(t, cons, process)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, True, "1"])
def test_non_finite_theta_is_refused_before_the_cache(cons, theta):
    # each NaN is a new cache key: refused before the lookup, it neither
    # builds a factor nor pushes a valid entry out
    t = np.linspace(0.1, 1.0, 10)
    gs.covariance_model(t, cons, "Y", theta=0.5)
    before = gs._factor_cached.cache_info()
    for call in (lambda: gs.covariance_model(t, cons, "Y", theta),
                 lambda: gs.covariance_model(t, cons, "Z", theta),
                 lambda: gs.simulate_Y(t, 1, theta, cons),
                 lambda: gs.simulate_Z(t, 1, theta, cons)):
        with pytest.raises(DomainError, match="require a finite number theta"):
            call()
    after = gs._factor_cached.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


# ------------------------------------------------ model checks that fail


def _spd(n=6, seed=3):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _factor_scaled(monkeypatch, scale):
    # LAPACK's factor, multiplied by scale where the build keeps it: the
    # upper triangle of the Fortran-ordered transpose it factors in place
    real = scipy.linalg.lapack.dpotrf

    def scaled(a, **kwargs):
        c, info = real(a, **kwargs)
        c[np.triu_indices(c.shape[0])] *= scale
        return c, info

    monkeypatch.setattr(gs, "dpotrf", scaled)


def test_model_rejects_a_non_symmetric_matrix(cons, monkeypatch):
    m = _spd()
    gs._check_matrix(m)
    m[0, 1] += 1e-6 * np.abs(m).max()
    with pytest.raises(IllConditionedError, match="not symmetric"):
        gs._check_matrix(m)
    # the build runs the check on its matrix before factoring it
    real = gs._matrix

    def skewed(t, cov):
        mat = real(t, cov)
        mat[0, 1] += 1e-6 * np.abs(mat).max()
        return mat

    monkeypatch.setattr(gs, "_matrix", skewed)
    gs._factor_cached.cache_clear()
    with pytest.raises(IllConditionedError, match="not symmetric"):
        gs.covariance_model(graded(8), cons, "Y")
    assert gs._factor_cached.cache_info().currsize == 0


def test_model_rejects_a_factor_that_does_not_reproduce_the_matrix(cons, monkeypatch):
    t = graded(2 * gs._BLOCK_ROWS + 13)
    gs._factor_cached.cache_clear()
    gs.covariance_model(t, cons, "Y")
    gs._factor_cached.cache_clear()
    # 1 + 1e-9 L reproduces M to about 2e-9 ||M||_F: within 1e-8 ||M||_F,
    # but beyond the 1e-10 tr(M) that certifies M's positivity
    for scale in (1.01, 1.0 + 1e-9):
        _factor_scaled(monkeypatch, scale)
        for process in ("Y", "Z"):
            with pytest.raises(IllConditionedError, match="does not reproduce"):
                gs.covariance_model(t, cons, process)
        with pytest.raises(IllConditionedError, match="does not reproduce"):
            gs.simulate_fbm(0.7, t, 1)
    assert gs._factor_cached.cache_info().currsize == 0


@pytest.mark.parametrize("horizon", [1e150, 1e200])
def test_model_checks_hold_where_the_squared_norm_overflows(cons, horizon, monkeypatch):
    # ||M||_F^2 overflows on these grids; taken in units of max |M| the
    # factor check still reproduces M and still refuses 2 L
    t = graded(4, horizon=horizon)
    mat = gs._matrix(t[1:], gs._cov_key(cons, "Y"))
    with np.errstate(over="ignore"):
        assert np.isinf(np.vdot(mat, mat))
    gs._factor_cached.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gs.covariance_model(t, cons, "Y")
        gs._factor_cached.cache_clear()
        _factor_scaled(monkeypatch, 2.0)
        with pytest.raises(IllConditionedError, match="does not reproduce"):
            gs.covariance_model(t, cons, "Y")
    assert gs._factor_cached.cache_info().currsize == 0


def test_non_finite_covariance_is_a_domain_error_before_any_check(cons):
    # at T = 1e200, t^(2 H2) overflows: the Z covariance is refused before
    # LAPACK or the symmetry check sees it, with no numpy warning, and
    # nothing is cached
    t = graded(4, horizon=1e200)
    gs._factor_cached.cache_clear()
    bad = _spd()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: gs.covariance_model(t, cons, "Z"),
                     lambda: gs.simulate_Z(t, 1, 0.0, cons)):
            with pytest.raises(DomainError, match="non-finite entry"):
                call()
        for value in (np.inf, np.nan):
            bad[2, 3] = bad[3, 2] = value
            with pytest.raises(DomainError, match="non-finite entry"):
                gs._check_matrix(bad)
    assert gs._factor_cached.cache_info().currsize == 0


def test_factor_out_of_jitter_raises_and_caches_nothing():
    # H = 1.5 gives no fBm: its "covariance" has eigenvalues near -tr/10,
    # so the plain factorization and all three jitters fail; nothing is
    # cached, and the next call tries again
    t = np.arange(6.0)
    assert np.linalg.eigvalsh(oracles.fbm_matrix(1.5, t[1:]))[0] < -1.0
    gs._factor_cached.cache_clear()
    for misses in (1, 2):
        with pytest.raises(IllConditionedError, match="even with jitter"):
            gs._factor_cached(t.shape, t.tobytes(), ("fBm", 1.5))
        assert gs._factor_cached.cache_info()[1:] == (misses, 8, 0)


@pytest.mark.parametrize("process", ["Y", "Z", "fBm"])
def test_factor_jitter_rescues_a_grid_of_near_duplicate_times(cons, process):
    # each time beside the next float up: the plain factorization meets a
    # zero or negative pivot, the lower triangle is restored from the
    # upper one, and the first jitter gives the oracle's jittered factor
    # bit for bit
    t = near_duplicates(128)
    cov = ("fBm", 0.7) if process == "fBm" else gs._cov_key(cons, process)
    ref = (oracles.fbm_matrix(0.7, t[1:]) if process == "fBm"
           else oracles.model_matrix(t[1:], cons, process))
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky(ref)
    model = gs._factor_cached(t.shape, t.tobytes(), cov)[0]
    assert np.array_equal(model.chol, oracles.factor(ref))
    assert model.chol.ctypes.data % 64 == 0 and model.chol.flags.c_contiguous


# ------------------------------------------------- blocked build, pinned


@pytest.mark.parametrize("process", ["Y", "Z", "fBm"])
def test_blocked_models_match_the_full_broadcast_build(process):
    # two full row blocks and a partial third; sigma != 1 so that the
    # martingale and first-fBm terms carry their scale
    n = 2 * gs._BLOCK_ROWS + 13
    cons = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=1.3))
    t = graded(n, power=1.7, horizon=2.0)
    if process == "fBm":
        model = gs._factor_cached(t.shape, t.tobytes(), ("fBm", 0.7))[0]
        mat = gs._matrix(t[1:], ("fBm", 0.7))
        ref = oracles.fbm_matrix(0.7, t[1:])
    else:
        model = gs.covariance_model(t, cons, process, theta=0.3)
        mat = gs._matrix(t[1:], gs._cov_key(cons, process))
        ref = oracles.model_matrix(t[1:], cons, process)
    assert mat.shape == (n, n)
    assert np.array_equal(mat, ref)
    assert np.array_equal(model.chol, oracles.factor(ref))
    # independently of LAPACK's dpotrf: numpy's Cholesky, to roundoff
    indep = np.linalg.cholesky(ref)
    assert np.linalg.norm(model.chol - indep) <= 1e-13 * np.linalg.norm(indep)
    # the draws' BLAS product reads the factor from a 64-byte boundary
    assert model.chol.ctypes.data % 64 == 0 and model.chol.flags.c_contiguous


@pytest.mark.parametrize("grid", [graded, near_duplicates])
def test_factor_build_holds_one_matrix(cons, grid):
    # the matrix is factored over its lower triangle and checked against
    # its upper one, which also restores a failed attempt for the jitter;
    # what else is held is a few 64-row blocks (0.31 n^2 floats at 1024
    # points, most of it the fill's formula on one block)
    gs.covariance_model(graded(8), cons, "Y", 0.5)  # warm kernel tables
    t = grid(1024)
    gs._factor_cached.cache_clear()
    tracemalloc.start()
    try:
        model = gs.covariance_model(t, cons, "Y", 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.35 * model.chol.nbytes
    assert model.chol.ctypes.data % 64 == 0 and model.chol.flags.c_contiguous


@pytest.mark.parametrize("grid", [graded, near_duplicates])
def test_cold_Y_build_evaluates_its_formula_once(cons, grid, monkeypatch):
    # the factor check, and the restore before each jitter, read the
    # matrix from its own upper triangle: the rho spline runs once per
    # 64-row block of the fill
    calls, real_R, real_dpotrf = [], KernelTables.R, gs.dpotrf

    def counted_R(self, t, s):
        calls.append("R")
        return real_R(self, t, s)

    def counted_dpotrf(a, **kwargs):
        calls.append("dpotrf")
        return real_dpotrf(a, **kwargs)

    monkeypatch.setattr(KernelTables, "R", counted_R)
    monkeypatch.setattr(gs, "dpotrf", counted_dpotrf)
    t = grid(200)
    gs._factor_cached.cache_clear()
    gs.covariance_model(t, cons, "Y")
    assert calls.count("R") == -(-200 // gs._BLOCK_ROWS)
    assert calls.count("dpotrf") == (1 if grid is graded else 2)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_cold_model_build_holds_one_matrix_in_the_process():
    # tracemalloc does not see LAPACK's own working copies; the peak RSS
    # does.  A fresh interpreter first builds a half-size model and drops
    # it (imports, BLAS buffers), then builds 1024 points cold.  The peak
    # is VmHWM, this process image's own: ru_maxrss of a child starts at
    # the test process's peak, which Linux carries across exec
    src = str(Path(gs.__file__).resolve().parents[1])
    code = """if True:
        import numpy as np
        from mixedfbm import gaussian_sim as gs
        from mixedfbm.model import HurstPair, ModelParams, derive_constants

        def peak_kib():
            with open("/proc/self/status") as status:
                line = next(s for s in status if s.startswith("VmHWM:"))
            return int(line.split()[1])

        cons = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.9)))
        t = (np.arange(1025) / 1024) ** 2
        gs.covariance_model(t[:513], cons, "Z")
        gs._factor_cached.cache_clear()
        before = peak_kib()
        chol = gs.covariance_model(t, cons, "Z").chol
        print((peak_kib() - before) * 1024 / chol.nbytes)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert float(done.stdout) < 1.5


@pytest.mark.parametrize("process", ["Y", "Z", "fBm"])
def test_reconstruction_error_matches_the_full_product(process):
    # the lower block triangle, each block left of the diagonal counted
    # twice, gives the error of the full product.  The model's own factor
    # reproduces M to rounding, about 1e-13 ||M||, and at that level the
    # two sums of products round differently, by up to 5 % of the error;
    # so the factor is also perturbed by 1e-3 in its lower triangle, an
    # error far above rounding, where the two agree to 1e-12
    cons = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=1.3))
    rng = np.random.default_rng(12)
    for n in (2 * gs._BLOCK_ROWS + 13, 512):
        t = graded(n, power=1.7, horizon=2.0)
        cov = ("fBm", 0.7) if process == "fBm" else gs._cov_key(cons, process)
        model = gs._factor_cached(t.shape, t.tobytes(), cov)[0]
        mat = gs._matrix(t[1:], cov)
        norm = np.linalg.norm(mat)
        # both norms come in units of a power of two, so exactly rescaled
        scale, diag = gs._check_matrix(mat)[0], mat.diagonal().copy()

        def check(chol):
            # the factor below the diagonal, M above it, as _factor leaves
            # them; the check zeroes M, leaving the factor alone
            buf = np.triu(mat, 1) + chol
            err, norm_m = gs._reconstruction_error(buf, diag, scale)
            assert np.array_equal(buf, chol)
            assert norm_m * scale == pytest.approx(norm, rel=1e-12, abs=0.0)
            return err

        assert check(model.chol) * scale <= 1e-12 * norm
        assert oracles.reconstruction_error(mat, model.chol) <= 1e-12 * norm
        chol = model.chol * (1.0 + 1e-3 * np.tril(rng.standard_normal((n, n))))
        ref = oracles.reconstruction_error(mat, chol)
        assert ref > 1e-5 * norm
        assert check(chol) * scale == pytest.approx(ref, rel=1e-12, abs=0.0)


# the ids name the covariance families that fill the one factor cache:
# the mixed model's Y and Z covariances, and plain fBm covariances
@pytest.mark.parametrize("family", [
    pytest.param("model", id="_model_cached"),
    pytest.param("fbm", id="_fbm_model_cached"),
])
def test_model_caches_are_bounded(cons, family):
    # one cache for the Y, Z and fBm factors: an entry holds its n x n
    # factor and O(n) more, so at most 8 n^2 floats in all; run_mc draws
    # on one grid per horizon, and its default horizons still fit
    cached = gs._factor_cached
    cap = cached.cache_info().maxsize
    assert len(_DEFAULT_T_SEQUENCE) <= cap == 8
    cached.cache_clear()
    for k in range(cap + 3):
        t = graded(40 + k)
        n = t.size - 1
        if family == "model":
            cov = gs._cov_key(cons, "YZ"[k % 2])
        else:
            cov = ("fBm", 0.55 + 0.1 * (k % 3))
        model, unit = cached(t.shape, t.tobytes(), cov)
        # grid, drift, path_times and unit shape: 4 n + 1 floats at most
        arrays = {**vars(model), "path_times": model.path_times, "unit": unit}
        held = [a.size for a in arrays.values() if isinstance(a, np.ndarray)]
        assert max(held) == n * n and sum(held) <= n * n + 5 * n
        assert cached.cache_info().currsize <= cap
    assert cached.cache_info().currsize == cap
    # the other family shares the cache and so stays within the same bound
    t = graded(40)
    other = ("fBm", 0.7) if family == "model" else gs._cov_key(cons, "Y")
    cached(t.shape, t.tobytes(), other)
    assert cached.cache_info().currsize == cap


@pytest.mark.parametrize("bad", [
    lambda t: t.reshape(2, -1),
    lambda t: np.where(t == t[3], np.nan, t),
    lambda t: t[::-1],
    lambda t: np.concatenate((t[:4], t[3:])),
])
def test_warm_model_cache_still_rejects_bad_grids(cons, bad):
    # grids are validated on a cache miss; a warm call must still reject
    # every grid the cold path rejects (the 2-d grid has the same bytes
    # as the valid one)
    t = np.linspace(0.1, 1.0, 10)
    gs.covariance_model(t, cons, "Y", theta=0.4)
    gs.simulate_fbm(0.7, t, 1)
    with pytest.raises(DomainError):
        gs.covariance_model(bad(t), cons, "Y", theta=0.4)
    with pytest.raises(DomainError):
        gs.simulate_Y(bad(t), 1, 0.4, cons)
    with pytest.raises(DomainError):
        gs.simulate_fbm(0.7, bad(t), 1)
    with pytest.raises(DomainError):
        gs.simulate_Z(bad(t), 1, 0.4, cons)


# ----------------------------------------------------------- covariance_X


def test_covariance_X_basics(cons):
    assert oracles.covariance_X(0.0, 0.7, cons) == 0.0
    assert oracles.covariance_X(0.4, 1.0, cons) == oracles.covariance_X(1.0, 0.4, cons)
    with pytest.raises(DomainError):
        oracles.covariance_X(-0.1, 0.5, cons)
    arr = oracles.covariance_X(np.array([0.2, 0.5]), 0.5, cons)
    assert arr.shape == (2,)


def test_covariance_X_components(cons):
    tab = get_tables(H1, H2)
    v = oracles.covariance_X(1.0, 1.0, cons)
    assert v == pytest.approx(cons.epsilon_h1 + tab.R(1.0, 1.0), rel=1e-14)
    assert v == pytest.approx(2.9912859408633183, rel=1e-12)
    c2 = derive_constants(ModelParams(hurst=HurstPair(H1, H2), sigma=1.7))
    assert oracles.covariance_X(1.0, 1.0, c2) == pytest.approx(
        1.7**2 * cons.epsilon_h1 + tab.R(1.0, 1.0), rel=1e-14
    )


# ------------------------------------------------------------- simulation


def test_simulate_Y_determinism(cons):
    t = np.linspace(0.1, 1.0, 10)
    a = gs.simulate_Y(t, 42, 0.0, cons)
    b = gs.simulate_Y(t, 42, 0.0, cons)
    c = gs.simulate_Y(t, 43, 0.0, cons)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0 and a.label == "Y" and a.times[0] == 0.0


def test_simulate_Y_matches_covariance(cons):
    t = np.linspace(0.1, 1.0, 10)
    R = 20000
    samp = np.empty((R, 10))
    for r in range(R):
        samp[r] = gs.simulate_Y(t, np.random.SeedSequence((101, r)), 0.0,
                                cons).values[1:]
    emp = samp.T @ samp / R
    ref = oracles.covariance_X(t[:, None], t[None, :], cons)
    assert abs(emp[-1, -1] / ref[-1, -1] - 1.0) < 0.03
    assert np.max(np.abs(emp / ref - 1.0)) < 0.05


def test_simulate_Y_drift(cons):
    t = np.linspace(0.1, 1.0, 10)
    y0 = gs.simulate_Y(t, 7, 0.0, cons)
    y = gs.simulate_Y(t, 7, 1.3, cons)
    drift = y.values - y0.values
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


def test_simulate_Z_matches_covariance(cons):
    t = np.linspace(0.1, 1.0, 10)
    R = 20000
    z = gs.simulate_Z(t, [np.random.SeedSequence((404, r)) for r in range(R)],
                      0.7, cons)
    samp = (z.values[1:] - 0.7 * t[:, None]).T
    emp = samp.T @ samp / R
    ref = cons.sigma**2 * oracles.fbm_matrix(H1, t) + oracles.fbm_matrix(H2, t)
    assert abs(emp[-1, -1] / ref[-1, -1] - 1.0) < 0.03
    assert np.max(np.abs(emp / ref - 1.0)) < 0.05


@pytest.mark.parametrize("times, message", [
    ([-1.0, 0.5, 1.0], "time grid starts at -1.0, before 0"),
    ([0.0], "need at least one strictly positive time"),
], ids=["negative-start", "origin-only"])
def test_simulate_Z_refuses_a_grid_without_positive_times(cons, times,
                                                          message):
    with pytest.raises(DomainError, match=message):
        gs.simulate_Z(times, 7, 0.5, cons)


def test_simulate_Z_draws_from_the_cached_Z_factor(cons):
    # one factor, sigma^2 C_H1 + C_H2, serves the draw and covariance_model:
    # a cold draw builds it alone, and no fBm factor
    t = graded(256)
    gs._factor_cached.cache_clear()
    z = gs.simulate_Z(t, 11, 0.3, cons)
    assert gs._factor_cached.cache_info().misses == 1
    m = gs.covariance_model(t, cons, "Z", 0.3)
    assert gs._factor_cached.cache_info()[:2] == (1, 1)
    key = gs._cov_key(cons, "Z")
    assert key == ("Z", H1, H2, cons.sigma)
    assert m.chol is gs._factor_cached(t.shape, t.tobytes(), key)[0].chol
    assert z.times is m.path_times
    g = np.random.default_rng(11).standard_normal(t.size - 1)
    assert np.allclose(z.values[1:], m.chol @ g + m.drift, rtol=1e-12, atol=1e-14)
    for h in (H1, H2):
        before = gs._factor_cached.cache_info().misses
        gs._factor_cached(t.shape, t.tobytes(), ("fBm", h))
        assert gs._factor_cached.cache_info().misses == before + 1


def test_simulate_Z_composition(cons):
    t = graded(256)
    z0 = gs.simulate_Z(t, 11, 0.0, cons)
    z1 = gs.simulate_Z(t, 11, 2.0, cons)
    assert np.allclose(z1.values, z0.values + 2.0 * z1.times, rtol=0, atol=1e-14)
    assert z0.label == "Z"
    assert np.array_equal(gs.simulate_Z(t, 11, 0.0, cons).values, z0.values)


SIMULATORS = {
    "Y": lambda t, seed, cons: gs.simulate_Y(t, seed, 0.7, cons),
    "Z": lambda t, seed, cons: gs.simulate_Z(t, seed, 0.7, cons),
    "fBm": lambda t, seed, cons: gs.simulate_fbm(H1, t, seed),
}


@pytest.mark.parametrize("process", sorted(SIMULATORS))
@pytest.mark.parametrize("kind", ["int", "SeedSequence"])
def test_seed_batch_columns_are_per_path_draws(cons, process, kind):
    # column r of a batch is, bit for bit, the path drawn for seed r alone
    sim = SIMULATORS[process]
    t = graded(256)
    entropy = [5, 17, 2**40, 0]

    def seeds():
        if kind == "int":
            return list(entropy)
        return [np.random.SeedSequence((31, e)) for e in entropy]

    batch = sim(t, seeds(), cons)
    assert batch.values.shape == (t.size, len(entropy))
    assert batch.label == sim(t, 1, cons).label
    for j, seed in enumerate(seeds()):
        one = sim(t, seed, cons)
        assert np.array_equal(batch.times, one.times)
        assert np.array_equal(batch.values[:, j], one.values)
    assert np.array_equal(sim(t, tuple(seeds()), cons).values, batch.values)
    with pytest.raises(DomainError, match="at least one seed"):
        sim(t, [], cons)


@pytest.mark.parametrize("process", sorted(SIMULATORS))
def test_draws_on_one_grid_share_one_read_only_times(cons, process):
    # the model's grid, origin prepended, is built once; every draw on
    # that grid, one path or columns, carries that same array
    sim = SIMULATORS[process]
    t = graded(256)
    first = sim(t, 1, cons)
    assert np.array_equal(first.times, t)
    for seed in (2, [3, 4], (5,)):
        assert sim(t, seed, cons).times is first.times
    assert not first.times.flags.writeable
    with pytest.raises(ValueError):
        first.times[1] = 0.5


@pytest.mark.parametrize("process", sorted(SIMULATORS))
@pytest.mark.parametrize("seed", [7, [7, 8, 9]])
def test_draws_pass_every_sample_path_check(cons, process, seed):
    # a draw skips the grid checks its model already made; built again
    # by the public constructor, with a writable grid, it passes them all
    p = SIMULATORS[process](graded(200, power=1.6), seed, cons)
    again = gs.SamplePath(times=p.times.copy(), values=p.values, label=p.label)
    assert np.array_equal(again.times, p.times)
    assert np.array_equal(again.values, p.values)


def test_draws_refuse_non_finite_values(cons):
    # theta b t^(2-2H1) passes the float range for t > 1 at theta = 1e308
    t = graded(64, horizon=2.0)
    for seed in (1, [1, 2]):
        with pytest.raises(DomainError, match="non-finite"), \
                np.errstate(over="ignore"):
            gs.simulate_Y(t, seed, 1e308, cons)
        with pytest.raises(DomainError, match="non-finite"), \
                np.errstate(over="ignore"):
            gs.simulate_Z(t, seed, 1e308, cons)


def test_simulate_Z_leaves_the_seed_sequence_unchanged(cons):
    # the same SeedSequence object gives the same path on every call, and
    # a batch listing it twice gives two equal columns
    t = graded(256)
    ss = np.random.SeedSequence((77, 3))
    first = gs.simulate_Z(t, ss, 0.7, cons)
    assert ss.n_children_spawned == 0
    assert np.array_equal(gs.simulate_Z(t, ss, 0.7, cons).values, first.values)
    twice = gs.simulate_Z(t, [ss, ss], 0.7, cons)
    assert np.array_equal(twice.values[:, 0], twice.values[:, 1])
    assert np.array_equal(twice.values[:, 0], first.values)


# -------------------------------------------------------------- transform


def jittered(n, seed):
    # graded grid with each interior point moved by up to 30 % of its
    # left cell, still strictly increasing
    g = graded(n)
    rng = np.random.default_rng(seed)
    g[1:-1] += 0.3 * np.diff(g)[:-1] * rng.uniform(-1.0, 1.0, n - 1)
    return g


def test_molchan_pure_drift(cons):
    # Z(t) = t is its own linear interpolant, so the transform must hit
    # B(3/2-H1, 3/2-H1) t^{2-2H1} to roundoff, off-grid outputs included
    cases = [
        (graded(512), np.linspace(0.125, 1.0, 8)),
        (graded(1024), None),
        (jittered(512, 601), None),
    ]
    for grid, out in cases:
        z = gs.SamplePath(times=grid, values=grid.copy(), label="Z")
        y = gs.molchan_transform(z, cons, out_times=out)
        ref = cons.script_b * y.times[1:] ** (2.0 - 2.0 * H1)
        assert np.max(np.abs(y.values[1:] / ref - 1.0)) < 1e-13
        assert y.label == "Y" and y.values[0] == 0.0


def test_molchan_incomplete_beta_oracle(cons):
    # each segment of the interpolant contributes its slope times
    # t^{2-2H1} B(p, p) [I_x2(p, p) - I_x1(p, p)], x = min(s, t)/t,
    # summed here at 30 digits
    rng = np.random.default_rng(64)
    g = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 63)), [1.0]))
    v = np.concatenate(([0.0], np.cumsum(rng.standard_normal(64))))
    z = gs.SamplePath(times=g, values=v, label="Z")
    out = np.array([g[40], 0.5 * (g[50] + g[51]), 0.93, 1.0])
    y = gs.molchan_transform(z, cons, out_times=out)
    with mpmath.workdps(30):
        p = mpmath.mpf(3) / 2 - mpmath.mpf(H1)
        for t, got in zip(out, y.values[1:]):
            tm = mpmath.mpf(t)
            total = mpmath.mpf(0)
            for k in range(64):
                lo, hi = mpmath.mpf(g[k]), mpmath.mpf(g[k + 1])
                if lo >= tm:
                    break
                slope = (mpmath.mpf(v[k + 1]) - mpmath.mpf(v[k])) / (hi - lo)
                total += slope * mpmath.betainc(
                    p, p, lo / tm, min(hi, tm) / tm, regularized=True
                )
            ref = total * mpmath.beta(p, p) * tm ** (2 - 2 * mpmath.mpf(H1))
            assert got == pytest.approx(float(ref), rel=1e-13)


def test_molchan_blocks_give_the_whole_formula_bits():
    # no cache keeps a plan; the row blocks, one at a time, give the bits
    # of the formula applied to the whole matrix at once
    assert not hasattr(gs._molchan_blocks, "cache_info")
    g = graded(256)
    outs = g[33:]
    assert outs.size > 3 * gs._BLOCK_ROWS
    p = 1.5 - H1
    x = np.minimum(g[None, :], outs[:, None]) / outs[:, None]
    whole = np.diff(betainc(p, p, x), axis=1)
    whole *= (beta_fn(p, p) * outs ** (2.0 - 2.0 * H1))[:, None]
    blocks = list(gs._molchan_blocks(g, outs, H1))
    assert [rows for rows, _ in blocks] == list(gs._row_blocks(outs.size))
    assert np.array_equal(np.concatenate([b for _, b in blocks]), whole)


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
    for bad in ([np.nan], [0.5, np.nan], [0.5, np.inf]):
        with pytest.raises(DomainError):
            gs.molchan_transform(z, cons, out_times=np.array(bad))
    short = gs.SamplePath(times=graded(20), values=np.zeros(21), label="Z")
    with pytest.raises(AccuracyError):
        gs.molchan_transform(short, cons)


def test_transforms_refuse_a_path_of_another_process(cons):
    # the forward transform reads an observation, Z, and the inverse a
    # transformed observation, Y; any other path is refused, not
    # transformed and labelled as if it were one
    g = graded(512)
    fbm = gs.simulate_fbm(H1, g, 5)
    for path in (gs.simulate_Y(g, 5, 1.0, cons), fbm):
        with pytest.raises(DomainError, match=r"label Z\), got a '(Y|fBm)'"):
            gs.molchan_transform(path, cons)
    for path in (gs.simulate_Z(g, 5, 1.0, cons), fbm):
        with pytest.raises(DomainError, match=r"label Y\), got a '(Z|fBm)'"):
            gs.inverse_transform(path, cons)


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


def test_transform_of_columns(cons):
    # columns are transformed by the single-path code, each to roundoff of
    # its own transform (the matrix product sums in another order); the
    # inverse takes one path only
    g = graded(512)
    z = gs.simulate_Z(g, [np.random.SeedSequence((41, r)) for r in range(6)],
                      0.7, cons)
    out = np.linspace(0.25, 1.0, 4)
    for outs in (None, out):
        y = gs.molchan_transform(z, cons, out_times=outs)
        assert y.values.shape == (y.times.size, 6)
        for j in range(6):
            one = gs.SamplePath(times=g, values=z.values[:, j], label="Z")
            ref = gs.molchan_transform(one, cons, out_times=outs)
            assert np.array_equal(y.times, ref.times)
            scale = np.abs(ref.values).max()
            assert np.max(np.abs(y.values[:, j] - ref.values)) <= 1e-14 * scale
    with pytest.raises(DomainError, match="one path"):
        gs.inverse_transform(gs.molchan_transform(z, cons), cons)


def test_inverse_guard(cons):
    short = gs.SamplePath(times=graded(32), values=np.zeros(33), label="Y")
    with pytest.raises(AccuracyError, match="32 sample points; .* needs at least 33"):
        gs.inverse_transform(short, cons)
    enough = gs.SamplePath(times=graded(33), values=np.zeros(34), label="Y")
    assert np.all(gs.inverse_transform(enough, cons).values == 0.0)


# -------------------------------------------------- distributional cross-checks


def test_pathwise_matches_covariance_route(cons):
    # the transform of theta*t + sigma*B1 + B2, built pathwise from two
    # independent fractional draws, must reproduce the covariance-route
    # law of Y; this ties the kernel tables, the simulator, and the
    # transform quadrature together
    g = graded(512)
    out8 = np.linspace(0.125, 1.0, 8)
    R, B = 20000, 2000
    samp_t = np.empty((R, 8))
    samp_c = np.empty((R, 8))
    for r0 in range(0, R, B):
        block = range(r0, r0 + B)
        z = oracles.simulate_Z(g, [np.random.SeedSequence((505, r)) for r in block],
                               0.0, cons)
        samp_t[r0:r0 + B] = gs.molchan_transform(z, cons, out_times=out8).values[1:].T
        samp_c[r0:r0 + B] = gs.simulate_Y(
            out8, [np.random.SeedSequence((606, r)) for r in block], 0.0,
            cons).values[1:].T
    ref = oracles.covariance_X(out8[:, None], out8[None, :], cons)
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
    R, B = 8000, 2000
    samp = np.empty((R, 2))
    for r0 in range(0, R, B):
        b = gs.simulate_fbm(H1, g, [np.random.SeedSequence((707, r))
                                    for r in range(r0, r0 + B)])
        z = gs.SamplePath(times=b.times, values=b.values, label="Z")
        samp[r0:r0 + B] = gs.molchan_transform(z, cons, out_times=out).values[1:].T
    var = (samp**2).mean(axis=0)
    ref = cons.epsilon_h1 * out ** (2.0 - 2.0 * H1)
    assert np.max(np.abs(var / ref - 1.0)) < 0.05
