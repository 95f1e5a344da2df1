"""Orchestration tests: determinism, MC aggregation, the decay law, export.

The exact-variance sequences are frozen from n=128 solves; Monte Carlo
checks use fixed master seeds so every assertion is reproducible.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mixedfbm.harness as hz
from mixedfbm.errors import AccuracyError, AccuracyWarning, DomainError
from mixedfbm.harness import (ExperimentConfig, HorizonDetail, MCReport,
                              decay_slope, export_report, gap_slope,
                              run_asymptotics, run_mc)
from mixedfbm.model import HurstPair, ModelParams, derive_constants


@pytest.fixture(scope="module")
def cfg_tiny():
    return ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9), theta=0.0),
        grid_n=64, replicates=2, master_seed=9, t_sequence=(1.0,))


@pytest.fixture(scope="module")
def rep_tiny(cfg_tiny):
    return run_mc(cfg_tiny)


@pytest.fixture(scope="module")
def rep_mc():
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9), theta=1.0),
        grid_n=128, replicates=2000, master_seed=2025, t_sequence=(1.0,))
    return run_mc(cfg)


@pytest.fixture(scope="module")
def rep_asy():
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9), theta=1.0),
        grid_n=128, t_sequence=(1.0, 5.0, 25.0, 75.0, 125.0))
    return run_asymptotics(cfg)


@pytest.fixture(scope="module")
def rep_asy_sep():
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.95)),
        grid_n=128, t_sequence=(1.0, 5.0, 25.0, 125.0))
    return run_asymptotics(cfg)


def test_config_validation():
    params = ModelParams(hurst=HurstPair(0.6, 0.9))
    with pytest.raises(DomainError, match="replicates"):
        ExperimentConfig(params=params, replicates=0)
    with pytest.raises(DomainError, match="path_points"):
        ExperimentConfig(params=params, path_points=64)
    with pytest.raises(DomainError, match="increasing"):
        ExperimentConfig(params=params, t_sequence=(5.0, 1.0))
    with pytest.raises(DomainError, match="positive"):
        ExperimentConfig(params=params, t_sequence=(-1.0, 2.0))
    with pytest.raises(DomainError, match="positive"):
        ExperimentConfig(params=params, t_sequence=())
    # a bare string is no sequence of horizons: "125" is not (1, 2, 5)
    with pytest.raises(DomainError, match="not a string"):
        ExperimentConfig(params=params, t_sequence="125")
    # nor is 5 the directory "5"
    for bad in (5, True, None, ["a"]):
        with pytest.raises(DomainError, match="output_dir"):
            ExperimentConfig(params=params, output_dir=bad)
    assert ExperimentConfig(params=params,
                            output_dir=Path("out")).output_dir == "out"
    # numpy integers are integers, kept as int so the JSON echo takes them
    cfg = ExperimentConfig(params=params, grid_n=np.int64(64),
                           master_seed=np.uint8(3))
    assert type(cfg.grid_n) is int and type(cfg.master_seed) is int


@pytest.mark.parametrize("field, value", [
    ("replicates", 2.5), ("replicates", True), ("master_seed", 1.5),
    ("master_seed", -1), ("path_points", 512.5), ("grid_n", 128.0),
    ("grid_n", "128"), ("path_points", None),
])
def test_config_refuses_non_integer_sizes(field, value):
    # refused when the config is built, naming the field, not later by
    # run_mc with a TypeError or a misleading path-horizon mismatch
    params = ModelParams(hurst=HurstPair(0.6, 0.9))
    with pytest.raises(DomainError, match=field):
        ExperimentConfig(params=params, **{field: value})


def test_mc_refuses_one_replicate_and_is_deterministic(cfg_tiny, rep_tiny,
                                                        tmp_path, monkeypatch):
    # one draw has no sample variance: refused before any solve, not
    # reported as a variance of 0
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(hz, "_solve_horizons", no_solve)
    with pytest.raises(DomainError, match="replicates >= 2"):
        run_mc(dataclasses.replace(cfg_tiny, replicates=1))
    monkeypatch.undo()

    again = run_mc(cfg_tiny)
    assert again == rep_tiny
    assert rep_tiny.var_hat > 0.0
    assert rep_tiny.se_mean == math.sqrt(rep_tiny.var_hat / 2)
    assert math.isfinite(rep_tiny.mean_hat)
    cfg = dataclasses.replace(cfg_tiny, output_dir=str(tmp_path))
    blobs = []
    for rep in (rep_tiny, again):
        paths = export_report(rep, cfg)
        blobs.append(b"".join(p.read_bytes() for p in paths))
    assert blobs[0] == blobs[1]


def test_mc_unbiased_variance_and_normality(rep_mc):
    cons = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.9)))
    assert abs(rep_mc.mean_hat - 1.0) <= 3.0 * rep_mc.se_mean
    assert 0.9 <= rep_mc.var_hat / rep_mc.var_pred <= 1.1
    assert rep_mc.ks_pvalue > 0.01
    det = rep_mc.per_T_detail[0]
    d = cons.drift_norm / cons.sigma
    assert rep_mc.var_pred == pytest.approx(1.0 / (d**2 * det.qv_N), rel=1e-12)
    assert rep_mc.se_mean == pytest.approx(
        math.sqrt(rep_mc.var_hat / 2000), rel=1e-14)


def test_asymptotics_decay_law(rep_asy):
    # scaled variance decreasing toward the closed-form limit; the tail
    # interval carries the decay exponent
    frozen = (1.9887789322432392, 1.3713858444287396, 1.1348337984356431,
              1.0636829923435487, 1.0433079514838312)
    got = tuple(v for _, v in rep_asy.per_T_scaled_var)
    assert got == pytest.approx(frozen, rel=1e-3)
    assert all(b < a for a, b in zip(got, got[1:]))
    slope = decay_slope(rep_asy)
    assert slope == pytest.approx(-0.23786, rel=1e-3)
    assert abs(slope - (-0.2)) < 0.05
    sv = got
    assert abs(sv[-1] / sv[-2] - 1.0) <= 0.10
    # a least-squares line through all five horizons picks up the
    # information transient (decays like T^(-0.6)) and lands far off
    x = np.log([d.T for d in rep_asy.per_T_detail])
    y = np.log([d.var_exact for d in rep_asy.per_T_detail])
    assert np.polyfit(x, y, 1)[0] == pytest.approx(-0.33010, rel=1e-3)


def test_gap_slope_reads_the_decay_law():
    # at the defaults (n = 128, T = 1, 5, 25, 125) the gap between the
    # scaled variance and its closed-form limit decays with slope -0.584
    # over the last pair, against the law -2(h2 - h1) = -0.6
    rep = run_asymptotics(ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9))))
    slope = gap_slope(rep)
    assert abs(slope - (-0.6)) <= 0.05
    assert slope == pytest.approx(-0.58440, rel=1e-3)
    below = dataclasses.replace(rep, asymptotic_var_closed_form=2.0)
    assert math.isnan(gap_slope(below))


@pytest.mark.parametrize("sigma, ts", [(0.5, (1.0, 2.0, 5.0)),
                                       (1.7, (1.0, 5.0, 25.0, 125.0))])
def test_asymptotics_scaling_identity(sigma, ts):
    # self-similarity: the ladder at (T, sigma) reads the scaled variance
    # of the sigma = 1 ladder at T sigma^(1/(H1-H2)), so both report one
    # limit, and the gap still decays at the law -2(H2-H1)
    h1, h2 = 0.6, 0.9
    rep = run_asymptotics(ExperimentConfig(
        params=ModelParams(hurst=HurstPair(h1, h2), sigma=sigma),
        t_sequence=ts))
    ref = run_asymptotics(ExperimentConfig(
        params=ModelParams(hurst=HurstPair(h1, h2)),
        t_sequence=tuple(T * sigma ** (1.0 / (h1 - h2)) for T in ts)))
    for (_, got), (_, want) in zip(rep.per_T_scaled_var, ref.per_T_scaled_var,
                                   strict=True):
        assert abs(got / want - 1.0) <= 1e-14
    assert rep.asymptotic_var_closed_form == ref.asymptotic_var_closed_form
    assert abs(gap_slope(rep) - (-0.6)) <= 0.05


def test_reports_take_the_limit_from_asymptotic_variance(cfg_tiny,
                                                         monkeypatch):
    # both runs read the limit through the module name that a traced
    # benchmark run wraps, so the traced layer is the one that computes it
    monkeypatch.setattr(hz, "asymptotic_variance", lambda constants: 0.125)
    assert run_mc(cfg_tiny).asymptotic_var_closed_form == 0.125
    asy = run_asymptotics(dataclasses.replace(cfg_tiny,
                                              t_sequence=(1.0, 2.0, 5.0)))
    assert asy.asymptotic_var_closed_form == 0.125


def test_asymptotics_exact_route_scalars(rep_asy):
    assert rep_asy.theta_true == 1.0
    assert rep_asy.mean_hat == 1.0
    assert rep_asy.se_mean == 0.0
    assert rep_asy.ks_pvalue == 1.0
    assert rep_asy.var_hat == rep_asy.per_T_detail[0].var_exact
    assert rep_asy.var_pred == rep_asy.var_hat
    for det in rep_asy.per_T_detail:
        assert det.scaled_var == pytest.approx(
            det.T ** 0.2 * det.var_exact, rel=1e-14)
        assert det.residual_sup <= 1e-4


def test_asymptotics_reaches_closed_form_limit(rep_asy_sep):
    sv = [v for _, v in rep_asy_sep.per_T_scaled_var]
    gap = abs(sv[-1] / rep_asy_sep.asymptotic_var_closed_form - 1.0)
    assert gap == pytest.approx(0.037182, rel=1e-3)
    assert gap <= 0.05
    slope = decay_slope(rep_asy_sep)
    assert slope == pytest.approx(-0.142258, rel=1e-3)
    assert abs(slope - (-0.1)) < 0.05


def test_asymptotics_guards(monkeypatch):
    params = ModelParams(hurst=HurstPair(0.6, 0.9))
    with pytest.raises(DomainError, match="3 horizons"):
        run_asymptotics(ExperimentConfig(params=params, t_sequence=(1.0, 5.0)))

    real_solve = hz.solve_second_kind

    def failing(op, T, constants, **kw):
        if T > 20.0:
            raise AccuracyError(f"forced failure at T={T}")
        return real_solve(op, T, constants, **kw)

    monkeypatch.setattr(hz, "solve_second_kind", failing)
    cfg = ExperimentConfig(params=params, grid_n=64,
                           t_sequence=(1.0, 5.0, 25.0))
    with pytest.warns(AccuracyWarning, match="T=25"):
        rep = run_asymptotics(cfg)
    assert len(rep.per_T_detail) == 2
    assert tuple(d.T for d in rep.per_T_detail) == (1.0, 5.0)

    def failing_most(op, T, constants, **kw):
        if T > 2.0:
            raise AccuracyError(f"forced failure at T={T}")
        return real_solve(op, T, constants, **kw)

    monkeypatch.setattr(hz, "solve_second_kind", failing_most)
    with pytest.warns(AccuracyWarning):
        with pytest.raises(AccuracyError, match="1 of 3"):
            run_asymptotics(cfg)


def test_runners_refuse_the_gap_before_any_solve(monkeypatch):
    # h2 - h1 <= 1/4: assemble refuses the pair, so neither runner solves
    calls = []
    monkeypatch.setattr(hz, "solve_second_kind",
                        lambda *args, **kw: calls.append(args))
    cfg = ExperimentConfig(params=ModelParams(hurst=HurstPair(0.6, 0.7)),
                           replicates=2, t_sequence=(1.0, 5.0, 25.0))
    for runner in (run_mc, run_asymptotics):
        with pytest.raises(DomainError, match="h2 - h1 > 1/4"):
            runner(cfg)
    assert calls == []


def test_asymptotics_propagates_non_accuracy_errors(monkeypatch):
    # only an AccuracyError (IllConditionedError included) is recorded as a
    # failed horizon; a programming error inside one solve propagates
    real_solve = hz.solve_second_kind

    def broken(op, T, constants, **kw):
        if T == 25.0:
            raise TypeError(f"broken solve at T={T}")
        return real_solve(op, T, constants, **kw)

    monkeypatch.setattr(hz, "solve_second_kind", broken)
    cfg = ExperimentConfig(params=ModelParams(hurst=HurstPair(0.6, 0.9)),
                           grid_n=64, t_sequence=(1.0, 5.0, 25.0, 125.0))
    with pytest.raises(TypeError, match="T=25"):
        run_asymptotics(cfg)


def test_mc_replicate_failure_reports_seed(monkeypatch):
    # replicate 2's draw fails, whether alone or as a column of a block
    real = hz.simulate_Y

    def flaky(times, seed, theta, constants):
        seeds = seed if isinstance(seed, list) else [seed]
        if any(s.entropy == (11, 2) for s in seeds):
            raise ValueError("boom")
        return real(times, seed, theta, constants)

    monkeypatch.setattr(hz, "simulate_Y", flaky)
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9)), grid_n=64,
        replicates=5, master_seed=11, t_sequence=(1.0,))
    with pytest.raises(ValueError, match=r"replicate 2 \(seed \(11, 2\)\)"):
        run_mc(cfg)


def test_mc_block_failure_names_the_block(monkeypatch):
    # a failure that no single replicate repeats names the whole block
    real = hz.simulate_Y

    def batch_only(times, seed, theta, constants):
        if isinstance(seed, list):
            raise ValueError("boom")
        return real(times, seed, theta, constants)

    monkeypatch.setattr(hz, "simulate_Y", batch_only)
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9)), grid_n=64,
        replicates=5, master_seed=11, t_sequence=(1.0,))
    with pytest.raises(ValueError, match=r"replicates 0 to 4 \(seeds \(11, 0\) on\)"):
        run_mc(cfg)


def test_mc_estimates_match_per_path_mle(monkeypatch):
    # run_mc estimates columns in blocks of at most _MC_BLOCK replicates;
    # every estimate is the per-path mle of its replicate's seed to 1e-12
    blocks, estimates, sols = [], [], []
    real_sim, real_mle = hz.simulate_Y, hz.mle

    def sim(times, seed, theta, constants):
        blocks.append(len(seed))
        return real_sim(times, seed, theta, constants)

    def fit(sol, path, constants=None):
        sols.append(sol)
        res = real_mle(sol, path, constants)
        estimates.append(res.theta_hat)
        return res

    monkeypatch.setattr(hz, "simulate_Y", sim)
    monkeypatch.setattr(hz, "mle", fit)
    reps = 2 * hz._MC_BLOCK + 7
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9), theta=0.6), grid_n=64,
        replicates=reps, master_seed=13, t_sequence=(1.0,))
    report = run_mc(cfg)
    assert blocks == [hz._MC_BLOCK, hz._MC_BLOCK, 7]
    est = np.concatenate(estimates)
    cons = derive_constants(cfg.params)
    times = hz._graded_times(1.0, cfg.path_points)
    for r in range(0, reps, 37):
        path = real_sim(times, np.random.SeedSequence((13, r)), 0.6, cons)
        one = real_mle(sols[0], path, cons).theta_hat
        assert est[r] == pytest.approx(one, rel=1e-12, abs=0.0)
    assert report.mean_hat == pytest.approx(float(est.mean()), rel=1e-15)


def test_report_finiteness_guard(rep_tiny):
    with pytest.raises(AccuracyError, match="finite"):
        MCReport(theta_true=0.0, mean_hat=math.nan, se_mean=0.0, var_hat=0.0,
                 var_pred=1.0, ks_stat=0.0, ks_pvalue=1.0,
                 per_T_scaled_var=rep_tiny.per_T_scaled_var,
                 asymptotic_var_closed_form=1.0,
                 per_T_detail=rep_tiny.per_T_detail)


def test_decay_slope_needs_two_horizons(rep_tiny):
    short = MCReport(
        theta_true=0.0, mean_hat=0.0, se_mean=0.0, var_hat=0.0, var_pred=1.0,
        ks_stat=0.0, ks_pvalue=1.0,
        per_T_scaled_var=rep_tiny.per_T_scaled_var[:1],
        asymptotic_var_closed_form=1.0,
        per_T_detail=rep_tiny.per_T_detail[:1])
    with pytest.raises(DomainError, match="two"):
        decay_slope(short)
    with pytest.raises(DomainError, match="two"):
        gap_slope(short)


def test_export_schema_and_round_trip(rep_asy, tmp_path):
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9), theta=1.0),
        grid_n=128, t_sequence=(1.0, 5.0, 25.0, 75.0, 125.0),
        output_dir=str(tmp_path))
    mc_path, asy_path, json_path = export_report(rep_asy, cfg)
    assert [p.name for p in (mc_path, asy_path, json_path)] == \
        ["mc_summary.csv", "asymptotics.csv", "report.json"]
    mc_lines = mc_path.read_text().strip().split("\n")
    assert len(mc_lines) == 2
    assert all(len(line.split(",")) == 7 for line in mc_lines)
    asy_lines = asy_path.read_text().strip().split("\n")
    assert len(asy_lines) == 1 + 5
    assert all(len(line.split(",")) == 6 for line in asy_lines)
    row = [float(v) for v in asy_lines[1].split(",")]
    assert row[0] == 1.0
    assert row[1] == rep_asy.per_T_detail[0].var_exact

    data = json.loads(json_path.read_text())
    assert data["library_version"]
    assert data["config"]["h1"] == 0.6
    assert data["config"]["t_sequence"] == [1.0, 5.0, 25.0, 75.0, 125.0]
    for name in ("theta_true", "mean_hat", "var_pred", "ks_pvalue",
                 "asymptotic_var_closed_form"):
        assert data[name] == getattr(rep_asy, name)
    assert [tuple(p) for p in data["per_T_scaled_var"]] == \
        list(rep_asy.per_T_scaled_var)
    for loaded, det in zip(data["per_T_detail"], rep_asy.per_T_detail):
        assert loaded["T"] == det.T
        assert loaded["var_exact"] == det.var_exact
        assert loaded["lambda"] == det.lam
        assert loaded["qv_N"] == det.qv_N


def test_export_guards(rep_tiny, tmp_path):
    cfg = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9)), grid_n=64,
        replicates=1, t_sequence=(1.0,), output_dir=str(tmp_path))
    empty = MCReport(
        theta_true=0.0, mean_hat=0.0, se_mean=0.0, var_hat=0.0, var_pred=1.0,
        ks_stat=0.0, ks_pvalue=1.0,
        per_T_scaled_var=(), asymptotic_var_closed_form=1.0, per_T_detail=())
    with pytest.raises(DomainError, match="empty"):
        export_report(empty, cfg)

    blocker = tmp_path / "file"
    blocker.write_text("x")
    bad = ExperimentConfig(
        params=ModelParams(hurst=HurstPair(0.6, 0.9)), grid_n=64,
        replicates=1, t_sequence=(1.0,),
        output_dir=str(blocker / "sub"))
    with pytest.raises(OSError):
        export_report(rep_tiny, bad)


def test_config_echo_reads_every_field(cfg_tiny):
    # a field added to ExperimentConfig or ModelParams is echoed as is
    echo = hz._config_echo(cfg_tiny)
    own = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params"}
    model = {f.name for f in dataclasses.fields(ModelParams)} - {"hurst"}
    assert set(echo) == own | model | {"h1", "h2"}
    assert echo["h2"] == 0.9 and echo["replicates"] == 2
    assert echo["t_sequence"] == (1.0,)


def test_file_formats(tmp_path):
    # the one CSV writer, JSON writer and JSON reader of the package
    path = tmp_path / "a.json"
    text = hz._write_json(path, {"b": 0.1, "a": [1.0, 2]})
    assert text == '{\n  "a": [\n    1.0,\n    2\n  ],\n  "b": 0.1\n}'
    assert path.read_text() == text + "\n"
    assert hz._write_json(None, (3,)) == "[\n  3\n]"
    assert hz._read_json(path) == {"a": [1.0, 2], "b": 0.1}
    (tmp_path / "bad.json").write_text('{"a": 1,')
    with pytest.raises(DomainError, match="bad.json: not JSON"):
        hz._read_json(tmp_path / "bad.json")
    path = tmp_path / "a.csv"
    hz._write_csv(path, ("x", "y"), [(1, 0.1), (np.float64(1 / 3), 2e-300)])
    assert path.read_bytes() == b"x,y\n1.0,0.1\n0.3333333333333333,2e-300\n"
