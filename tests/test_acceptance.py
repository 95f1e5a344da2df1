"""Acceptance gate: one test per shipping criterion, run in order.

Each test states its tolerance inline and prints a one-line summary, so
`pytest -v` (or `-s`) gives a single pass/fail line per criterion.
Criteria 9 and 10 are Monte Carlo runs with fixed seed streams; their
tolerances include the sampling noise at the stated replicate counts.
"""

import time
from functools import partial

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import mixedfbm as mf
from mixedfbm import gaussian_sim as gs
from mixedfbm.fredholm import assemble, build_grid, solve_second_kind
from mixedfbm.harness import (ExperimentConfig, decay_slope, run_asymptotics,
                              run_mc)
from mixedfbm.kernels import KernelContext, get_tables
from oracles import (covariance_X, h0_weighted_integral_beta, kernel_K12,
                     kernel_K12_dt, kernel_k, kernel_k1, limit_functional,
                     symmetrized, verify_first_kind)

PAIRS = [(0.6, 0.9), (0.55, 0.85), (0.7, 0.99)]


def constants_for(h1, h2, theta=0.0):
    return mf.derive_constants(
        mf.ModelParams(hurst=mf.HurstPair(h1, h2), theta=theta))


@pytest.fixture(scope="module")
def cons09():
    return constants_for(0.6, 0.9)


@pytest.fixture(scope="module")
def cons_sep():
    return constants_for(0.6, 0.95)


def graded(n):
    return (np.arange(n + 1) / n) ** 2


def test_criterion_01_kernel_scaling_identities():
    # four homogeneity laws, 50 random (t, s, a) triples per pair,
    # relative error <= 1e-8, under 30 s: on the direct evaluators and
    # on the shipped tables (which carry K12, dK12 and k1)
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    triples = [(rng.uniform(0.3, 2.0), rng.uniform(0.05, 0.95),
                rng.uniform(0.3, 3.0)) for _ in range(50)]
    worst = {"evaluators": 0.0, "tables": 0.0}
    for h1, h2 in PAIRS:
        ctx = KernelContext(constants=constants_for(h1, h2))
        tab = get_tables(h1, h2)
        e_K12, e_dK12 = 0.5 + h2 - 2 * h1, h2 - 2 * h1 - 0.5
        e_k, e_k1 = 2 * h2 - 4 * h1, 2 * h2 - 2 * h1 - 1.0
        laws = [
            ("evaluators", partial(kernel_K12, ctx), e_K12),
            ("evaluators", partial(kernel_K12_dt, ctx), e_dK12),
            ("evaluators", partial(kernel_k, ctx), e_k),
            ("evaluators", partial(kernel_k1, ctx), e_k1),
            ("tables", tab.K12, e_K12),
            ("tables", tab.dK12, e_dK12),
            ("tables", tab.k1, e_k1),
        ]
        for t, ratio, a in triples:
            s = t * ratio
            for kind, fn, expo in laws:
                base = fn(t, s)
                scaled = fn(a * t, a * s)
                err = abs(scaled - a**expo * base) / abs(scaled)
                worst[kind] = max(worst[kind], err)
    elapsed = time.perf_counter() - start
    assert max(worst.values()) <= 1e-8
    assert elapsed < 30.0
    print(f"criterion 1 PASS: max rel err {worst['evaluators']:.2e} "
          f"(evaluators), {worst['tables']:.2e} (tables), {elapsed:.1f}s")


def test_criterion_02_derivative_consistency(cons09):
    # dK12/dt vs central differences at 20 interior points, rel <= 1e-4,
    # on the direct evaluators at (0.6, 0.9) and on the shipped tables
    # of every pair
    ctx = KernelContext(constants=cons09)
    checks = [("evaluators", partial(kernel_K12, ctx), partial(kernel_K12_dt, ctx))]
    checks += [("tables", tab.K12, tab.dK12)
               for tab in (get_tables(h1, h2) for h1, h2 in PAIRS)]
    worst = {"evaluators": 0.0, "tables": 0.0}
    for kind, K12, dK12 in checks:
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = rng.uniform(0.3, 2.0)
            s = t * rng.uniform(0.1, 0.9)
            step = 1e-5 * t
            fd = (K12(t + step, s) - K12(t - step, s)) / (2.0 * step)
            val = dK12(t, s)
            worst[kind] = max(worst[kind], abs(fd - val) / abs(val))
    assert max(worst.values()) <= 1e-4
    print(f"criterion 2 PASS: max rel err {worst['evaluators']:.2e} "
          f"(evaluators), {worst['tables']:.2e} (tables)")


def test_criterion_03_operator_positivity(cons09):
    # symmetrized collocation matrix at n=128: spectrum and quadratic
    # forms bounded below by -1e-8
    op = assemble(KernelContext(constants=cons09), build_grid(128))
    sym = symmetrized(op)
    eig_min = float(np.linalg.eigvalsh(sym)[0])
    assert eig_min >= -1e-8
    rng = np.random.default_rng(3)
    worst_form = np.inf
    for _ in range(100):
        f = rng.standard_normal(op.n)
        worst_form = min(worst_form, float(f @ sym @ f) / float(f @ f))
    assert worst_form >= -1e-8
    print(f"criterion 3 PASS: min eig {eig_min:.2e}, "
          f"min form {worst_form:.2e}")


def test_criterion_04_fredholm_residual_and_convergence(cons09):
    # off-grid residual <= 1e-5 at n=256, T=1; nodal self-convergence of
    # the n=128 solution against n=512 within 1e-3, all under 60 s
    start = time.perf_counter()
    ctx = KernelContext(constants=cons09)
    sol256 = solve_second_kind(assemble(ctx, build_grid(256)), 1.0, cons09)
    assert sol256.residual_sup <= 1e-5
    sol128 = solve_second_kind(assemble(ctx, build_grid(128)), 1.0, cons09)
    sol512 = solve_second_kind(assemble(ctx, build_grid(512)), 1.0, cons09)
    # quadrature nodes sit inside cells and do not nest across n, so the
    # coarse solution is carried to the fine nodes through the bounded
    # representation it is solved in
    h1 = cons09.hurst.h1
    sp = CubicSpline(sol128.grid.x_nodes,
                     sol128.h_hat * sol128.grid.nodes ** (h1 - 0.5))
    coarse_on_fine = sp(sol512.grid.x_nodes) * sol512.grid.nodes ** (0.5 - h1)
    diff = coarse_on_fine - sol512.h_hat
    num = np.sqrt(np.dot(sol512.grid.weights, diff**2))
    den = np.sqrt(np.dot(sol512.grid.weights, sol512.h_hat**2))
    elapsed = time.perf_counter() - start
    assert num / den <= 1e-3
    assert elapsed < 60.0
    print(f"criterion 4 PASS: residual {sol256.residual_sup:.2e}, "
          f"convergence {num / den:.2e}, {elapsed:.1f}s")


def test_criterion_05_closed_form_against_operator(cons09):
    # applying the discrete operator to the closed-form weight must give
    # a constant multiple of the forcing shape: spread <= 0.2% on nodes
    # in [0.1, 0.9] at n=256
    report = verify_first_kind(cons09, build_grid(256))
    assert report.ratio_spread <= 0.002
    print(f"criterion 5 PASS: ratio spread {report.ratio_spread:.2e} "
          f"over {report.nodes_used} nodes")


def test_criterion_06_rescaled_solutions_approach_limit(cons_sep):
    # weighted integrals of the rescaled finite-horizon solutions
    # approach the closed-form value monotonically; final gap <= 5%
    limit = h0_weighted_integral_beta(cons_sep)
    op = assemble(KernelContext(constants=cons_sep), build_grid(128))
    gaps = []
    for T in (1.0, 5.0, 25.0, 125.0):
        sol = solve_second_kind(op, T, cons_sep, residual_tol=1e-4)
        gaps.append(abs(limit_functional(sol, cons_sep) - limit) / limit)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05
    print(f"criterion 6 PASS: gaps {[f'{g:.4f}' for g in gaps]}")


def test_criterion_07_simulation_fidelity(cons09):
    # covariance-route draws match the model covariance entrywise within
    # 5% at R=20000; the transform route matches the covariance route
    out8 = np.linspace(0.125, 1.0, 8)
    g512 = graded(512)
    R, B = 20000, 2000
    samp_c = np.empty((R, 8))
    samp_t = np.empty((R, 8))
    for r0 in range(0, R, B):
        block = range(r0, r0 + B)
        samp_c[r0:r0 + B] = gs.simulate_Y(
            out8, [np.random.SeedSequence((606, r)) for r in block], 0.0,
            cons09).values[1:].T
        z = gs.simulate_Z(g512, [np.random.SeedSequence((505, r)) for r in block],
                          0.0, cons09)
        samp_t[r0:r0 + B] = gs.molchan_transform(
            z, cons09, out_times=out8).values[1:].T
    ref = covariance_X(out8[:, None], out8[None, :], cons09)
    cov_c = samp_c.T @ samp_c / R
    cov_t = samp_t.T @ samp_t / R
    err_model = float(np.max(np.abs(cov_c / ref - 1.0)))
    err_routes = float(np.max(np.abs(cov_t - cov_c) / ref))
    assert err_model < 0.05
    assert err_routes < 0.05
    print(f"criterion 7 PASS: vs model {err_model:.3f}, "
          f"route gap {err_routes:.3f}")


def test_criterion_08_transform_round_trip(cons09):
    # forward then inverse transform at 1024 points: smooth paths back
    # to 1e-3 absolute, a simulated rough path to 5% sup-relative
    g = graded(1024)
    for values in (g.copy(), g**2):
        z = gs.SamplePath(times=g, values=values, label="Z")
        back = gs.inverse_transform(gs.molchan_transform(z, cons09), cons09)
        ref = np.interp(back.times, g, values)
        m = back.times >= 0.1
        assert np.max(np.abs(back.values[m] - ref[m])) <= 1e-3

    z = gs.simulate_Z(g, 2024, 0.7, cons09)
    back = gs.inverse_transform(gs.molchan_transform(z, cons09), cons09)
    ref = np.interp(back.times, z.times, z.values)
    m = back.times >= 0.1
    sup = float(np.max(np.abs(back.values[m] - ref[m])))
    rel = sup / float(np.max(np.abs(ref[m])))
    assert rel <= 0.05
    print(f"criterion 8 PASS: rough path sup-relative {rel:.3f}")


def test_criterion_09_unbiased_and_normal():
    # theta=1, T=1, R=1000: mean within 3 standard errors, standardized
    # errors pass a KS test against the standard normal, under 10 min
    start = time.perf_counter()
    params = mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9), theta=1.0,
                            horizon_T=1.0)
    report = run_mc(ExperimentConfig(params=params, replicates=1000,
                                     master_seed=1001, t_sequence=(1.0,)))
    elapsed = time.perf_counter() - start
    assert abs(report.mean_hat - 1.0) <= 3.0 * report.se_mean
    assert report.ks_pvalue >= 0.01
    assert elapsed < 600.0
    print(f"criterion 9 PASS: mean {report.mean_hat:.4f} "
          f"(se {report.se_mean:.4f}), KS p {report.ks_pvalue:.3f}, "
          f"{elapsed:.0f}s")


def test_criterion_10_variance_adjudication():
    # empirical variance within 10% of 1/(d^2 <N>) at T in {1, 5}; the
    # ratio of the alternative printed normalization to it is the same
    # constant at both horizons (it is algebraically T-free)
    params = mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9), theta=1.0,
                            horizon_T=1.0)
    cons = mf.derive_constants(params)
    report = run_mc(ExperimentConfig(params=params, replicates=2000,
                                     master_seed=2025, t_sequence=(1.0, 5.0)))
    ratios = []
    printed_over_used = []
    for (T, scaled_emp), det in zip(report.per_T_scaled_var,
                                    report.per_T_detail):
        ratios.append(scaled_emp / det.scaled_var)
        d_eff = cons.drift_norm / cons.sigma
        var_used = 1.0 / (d_eff**2 * det.qv_N)
        var_printed = (cons.sigma * cons.gamma_h1) ** 2 / det.qv_N
        printed_over_used.append(var_printed / var_used)
    assert all(0.9 <= r <= 1.1 for r in ratios)
    spread = abs(printed_over_used[1] / printed_over_used[0] - 1.0)
    assert spread <= 0.02
    expected = (cons.gamma_h1 * cons.drift_norm) ** 2
    assert printed_over_used[0] == pytest.approx(expected, rel=1e-12)
    print(f"criterion 10 PASS: var ratios "
          f"{[f'{r:.3f}' for r in ratios]}, normalization constant "
          f"{printed_over_used[0]:.6f} (spread {spread:.1e})")


def test_criterion_11_asymptotic_decay_law():
    # exact-variance log-log slope over the last horizon step matches
    # -(2-2H2) within 0.05; the scaled variance stabilizes to 10%
    params = mf.ModelParams(hurst=mf.HurstPair(0.6, 0.95), theta=1.0,
                            horizon_T=1.0)
    report = run_asymptotics(ExperimentConfig(params=params, replicates=1,
                                              master_seed=0))
    slope = decay_slope(report)
    law = -(2.0 - 2.0 * 0.95)
    assert abs(slope - law) <= 0.05
    scaled = [s for _, s in report.per_T_scaled_var]
    stab = abs(scaled[-1] / scaled[-2] - 1.0)
    assert stab <= 0.10
    print(f"criterion 11 PASS: slope {slope:.4f} vs {law:.2f}, "
          f"stabilization {stab:.3f}")
