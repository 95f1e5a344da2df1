"""Command-line behavior: flag resolution, file formats, exit codes.

main() is driven in-process; every invocation writes inside tmp_path.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mixedfbm as mf
from mixedfbm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, stdout, _ = run(capsys, "constants", "--h1", "0.6", "--h2", "0.9",
                          "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert json.loads(stdout) == data
    assert data["gamma_h1"] == pytest.approx(1.0939107049858326, rel=1e-12)
    assert data["h1"] == 0.6 and data["h2"] == 0.9


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert mf.__version__ in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h1": 0.7, "h2": 0.99, "sigma": 1.5}))
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "constants", "--config", str(cfg),
                     "--h2", "0.95", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["h1"] == 0.7            # from the file
    assert data["h2"] == 0.95           # flag wins over file
    assert data["sigma"] == 1.5


def test_kernel_command(tmp_path, capsys):
    code, stdout, _ = run(capsys, "kernel", "--h1", "0.6", "--h2", "0.9",
                          "--t", "0.7", "--s", "0.4")
    assert code == 0
    vals = json.loads(stdout)
    for key in ("kappa", "K12", "dK12_dt", "k1", "covariance_smooth_part"):
        assert np.isfinite(vals[key])
    assert vals["K12"] > 0.0
    assert vals["covariance_smooth_part"] > 0.0


def test_kernel_reads_t_and_s_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 0.9, "s": 0.2}))
    code, stdout, _ = run(capsys, "kernel", "--config", str(cfg))
    assert code == 0
    vals = json.loads(stdout)
    assert (vals["t"], vals["s"]) == (0.9, 0.2)
    code, stdout, _ = run(capsys, "kernel", "--config", str(cfg),
                          "--s", "0.5")
    assert code == 0
    vals = json.loads(stdout)
    assert (vals["t"], vals["s"]) == (0.9, 0.5)
    cfg.write_text(json.dumps({"t": "a", "s": 0.2}))
    code, _, stderr = run(capsys, "kernel", "--config", str(cfg))
    assert code == 2
    assert "domain error" in stderr


def test_closed_form_reads_points_from_config(tmp_path, capsys):
    # as kernel reads t and s: flag > config file > default (199)
    cfg, out = tmp_path / "cfg.json", tmp_path / "h0.csv"
    cfg.write_text(json.dumps({"points": 3}))
    for argv, rows in (((), 3), (("--points", "5"), 5)):
        code, stdout, _ = run(capsys, "closed-form", "--config", str(cfg),
                              *argv, "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == rows + 1
        assert f"wrote {rows} samples" in stdout
    code, _, _ = run(capsys, "closed-form", "--out", str(out))
    assert code == 0 and len(out.read_text().splitlines()) == 200


def test_kernel_refuses_overflow_before_forming_it():
    # the smooth covariance part would overflow: exit 2, and numpy never
    # reaches (and warns about) the overflowing product
    src = str(Path(mf.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "mixedfbm.cli", "kernel", "--t", "1e300",
         "--s", "5e299"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert "covariance_smooth_part overflows" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_closed_form_command(tmp_path, capsys):
    out = tmp_path / "h0.csv"
    code, stdout, _ = run(capsys, "closed-form", "--h1", "0.6", "--h2", "0.9",
                          "--asymptotic-variance", "--points", "9",
                          "--out", str(out))
    assert code == 0
    printed = float(stdout.split("asymptotic_variance=")[1].split()[0])
    assert printed == 0.9846842994633481
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (9, 2)
    cons = mf.derive_constants(mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9)))
    assert rows[4, 1] == pytest.approx(mf.h0(rows[4, 0], cons), rel=1e-12)


def test_closed_form_with_nothing_to_do_exits_2(capsys):
    # neither --asymptotic-variance nor --out: a run that would print
    # and write nothing is refused, and the message names both flags
    code, stdout, stderr = run(capsys, "closed-form", "--h1", "0.6")
    assert code == 2 and stdout == ""
    assert "domain error" in stderr
    assert "--asymptotic-variance" in stderr and "--out" in stderr


def test_solve_simulate_estimate_pipeline(tmp_path, capsys):
    h_csv = tmp_path / "h.csv"
    code, _, _ = run(capsys, "solve", "--h1", "0.6", "--h2", "0.9",
                     "--grid-n", "64", "--t-horizon", "1.0",
                     "--out", str(h_csv))
    assert code == 0
    side = json.loads(h_csv.with_suffix(".json").read_text())
    assert side["qv_N"] == pytest.approx(0.7483684562411473, rel=1e-9)
    assert side["residual_sup"] <= 1e-5
    table = np.loadtxt(h_csv, delimiter=",", skiprows=1)
    assert table.shape == (64, 5)
    # nodal identity between the stored columns
    assert table[:, 3] == pytest.approx(
        table[:, 2] * table[:, 1] ** 0.1, rel=1e-12)

    path_csv = tmp_path / "path.csv"
    code, _, _ = run(capsys, "simulate", "--process", "Y", "--theta", "1.0",
                     "--h1", "0.6", "--h2", "0.9", "--path-points", "512",
                     "--seed", "7", "--out", str(path_csv))
    assert code == 0

    result_json = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "estimate", "--h-file", str(h_csv),
                          "--path-file", str(path_csv),
                          "--out", str(result_json))
    assert code == 0
    result = json.loads(result_json.read_text())
    assert sorted(result) == ["n_T", "qv_N", "theta_hat", "variance_pred"]
    # the CLI reads the solve's record back from the sidecar and calls
    # mle on it, so it reproduces mle on the same solve and path bit for
    # bit
    cons = mf.derive_constants(mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9)))
    op = mf.assemble(mf.KernelContext(constants=cons), mf.build_grid(64))
    sol = mf.solve_second_kind(op, 1.0, cons)
    data = np.loadtxt(path_csv, delimiter=",", skiprows=1)
    lib = mf.mle(sol, mf.SamplePath(times=data[:, 0], values=data[:, 1],
                                    label="Y"))
    for key in result:
        assert result[key] == getattr(lib, key)
    assert result["theta_hat"] == pytest.approx(-3.035517370008652, rel=1e-9)
    assert result["variance_pred"] == pytest.approx(1.9887584394769093,
                                                    rel=1e-9)
    assert result["qv_N"] == side["qv_N"]

    # same weight and path, horizon mismatch: domain error, exit 2
    path2 = tmp_path / "path2.csv"
    run(capsys, "simulate", "--process", "Y", "--t-horizon", "2.0",
        "--path-points", "512", "--seed", "7", "--out", str(path2))
    code, _, stderr = run(capsys, "estimate", "--h-file", str(h_csv),
                          "--path-file", str(path2))
    assert code == 2
    assert "horizon" in stderr


def test_transform_round_trip(tmp_path, capsys):
    z_csv = tmp_path / "z.csv"
    y_csv = tmp_path / "y.csv"
    back_csv = tmp_path / "back.csv"
    run(capsys, "simulate", "--process", "Z", "--theta", "0.5",
        "--path-points", "1024", "--seed", "3", "--out", str(z_csv))
    code, _, _ = run(capsys, "transform", "--path-file", str(z_csv),
                     "--out", str(y_csv))
    assert code == 0
    code, _, _ = run(capsys, "transform", "--path-file", str(y_csv),
                     "--inverse", "--out", str(back_csv))
    assert code == 0
    z = np.loadtxt(z_csv, delimiter=",", skiprows=1)
    back = np.loadtxt(back_csv, delimiter=",", skiprows=1)
    # recovered values live on the transformed grid, a subset of z's
    match = np.isin(z[:, 0], back[:, 0])
    assert match.sum() == back.shape[0]
    ref = z[match, 1]
    keep = back[:, 0] >= 0.1
    sup_err = np.max(np.abs(back[keep, 1] - ref[keep]))
    assert sup_err <= 0.05 * np.max(np.abs(ref))


def test_simulate_draws_Y_by_default(tmp_path, capsys):
    # at the default theta = 0 the default process writes the bytes of an
    # explicit Y draw at theta = 0, and says it drew Y
    default, explicit = tmp_path / "default.csv", tmp_path / "y0.csv"
    code, stdout, _ = run(capsys, "simulate", "--seed", "7",
                          "--out", str(default))
    assert code == 0
    assert stdout == f"simulated Y on 513 points to {default}\n"
    code, _, _ = run(capsys, "simulate", "--process", "Y", "--theta", "0",
                     "--seed", "7", "--out", str(explicit))
    assert code == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_simulate_refuses_process_X(tmp_path, capsys):
    # the paper's observation X is the process Z: "X" is no --process
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--process", "X", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'X'" in capsys.readouterr().err
    assert not out.exists()


def test_mc_command(tmp_path, capsys):
    out_dir = tmp_path / "mc"
    code, stdout, _ = run(capsys, "mc", "--h1", "0.6", "--h2", "0.9",
                          "--theta", "1.0", "--replicates", "5",
                          "--grid-n", "64", "--seed", "5",
                          "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "mc_summary.csv").exists()
    assert (out_dir / "report.json").exists()
    data = json.loads((out_dir / "report.json").read_text())
    assert data["config"]["replicates"] == 5
    assert data["config"]["master_seed"] == 5
    assert "mean_hat" in stdout


def test_asymptotics_command(tmp_path, capsys):
    out_dir = tmp_path / "asy"
    code, stdout, _ = run(capsys, "asymptotics", "--h1", "0.6", "--h2", "0.9",
                          "--grid-n", "64", "--t-sequence", "1,5,25",
                          "--out", str(out_dir))
    assert code == 0
    assert "tail slope" in stdout
    assert "gap slope" in stdout and "(law -0.6000)" in stdout
    lines = (out_dir / "asymptotics.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_asymptotics_limit_does_not_depend_on_sigma(tmp_path, capsys):
    # the default ladder at sigma = 1.7 reads the gap to the same limit as
    # at sigma = 1, decaying at the law -2(h2 - h1)
    printed = {}
    for sigma in ("1.0", "1.7"):
        code, stdout, _ = run(capsys, "asymptotics", "--sigma", sigma,
                              "--out", str(tmp_path / sigma))
        assert code == 0
        slope = float(stdout.split("gap slope=")[1].split()[0])
        assert abs(slope - (-0.6)) <= 0.05
        printed[sigma] = stdout.split("-> limit ")[1].split()[0]
    assert printed["1.7"] == printed["1.0"] == repr(0.9846842994633481)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats is imported by run_mc when it runs, not at start-up;
    # scipy.interpolate is imported by nothing in the package
    src = str(Path(mf.__file__).resolve().parents[1])
    modules = ["scipy.stats", "scipy.interpolate"]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mixedfbm.cli; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_exit_codes(tmp_path, capsys):
    # inadmissible gap: the solver route needs h2 - h1 > 1/4
    code, _, stderr = run(capsys, "solve", "--h1", "0.6", "--h2", "0.7",
                          "--out", str(tmp_path / "h.csv"))
    assert code == 2
    assert "domain error" in stderr

    # unwritable output location
    code, _, stderr = run(capsys, "constants", "--out",
                          str(tmp_path / "missing" / "c.json"))
    assert code == 1
    assert "i/o error" in stderr


_MALFORMED_FILES = {
    "path-text-cell.csv": "t,value\n0.0,0.0\n0.5,abc\n1.0,0.3\n",
    "config-broken.json": '{"h1": 0.6,',
    "config-h1-string.json": '{"h1": "0.6"}',
    "config-list.json": "[1, 2]",
    "config-unread-key.json": '{"replicats": 5}',
    "config-points-zero.json": '{"points": 0}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ("closed-form", "--points", "-5"),
        ("closed-form", "--points", "0"),
        ("asymptotics", "--t-sequence", "1,a"),
        ("asymptotics", "--t-sequence", "1,5,inf"),
        ("kernel", "--t", "0", "--s", "0"),
        ("kernel", "--t", "0.5", "--s", "-1"),
        ("kernel", "--t", "nan", "--s", "0.3"),
        ("kernel", "--t", "0.4", "--s", "0.7"),
        ("kernel", "--h1", "0.4", "--h2", "0.9"),
        ("constants", "--sigma", "inf"),
        ("solve", "--sigma", "inf"),
        ("asymptotics", "--theta", "nan"),
        ("kernel", "--t", "1e308", "--s", "1e-308"),
        ("transform", "--path-file", "{tmp}/path-text-cell.csv"),
        ("simulate", "--seed", "-1"),
        ("mc", "--replicates", "1"),
        ("constants", "--config", "{tmp}/config-broken.json"),
        ("constants", "--config", "{tmp}/config-h1-string.json"),
        ("constants", "--config", "{tmp}/config-list.json"),
        ("mc", "--config", "{tmp}/config-unread-key.json"),
        ("closed-form", "--config", "{tmp}/config-points-zero.json"),
        ("solve", "--sigma", "1e-200"),
        ("solve", "--sigma", "1e200"),
        ("asymptotics", "--sigma", "1e-200"),
        ("asymptotics", "--sigma", "1e200"),
        ("mc", "--sigma", "1e-200"),
        ("mc", "--sigma", "1e200"),
        ("simulate", "--process", "Y", "--sigma", "1e200"),
        ("simulate", "--process", "Z", "--sigma", "1e200"),
        ("solve", "--sigma", "1e150", "--t-horizon", "1e100"),
    ],
    ids=["points-negative", "points-zero", "t-sequence-not-a-number",
         "t-sequence-infinite", "kernel-at-origin", "kernel-s-negative",
         "kernel-t-nan", "kernel-s-above-t", "kernel-h1-below-half",
         "constants-sigma-infinite", "solve-sigma-infinite",
         "asymptotics-theta-nan", "kernel-ratio-underflows",
         "transform-path-text-cell", "simulate-seed-negative",
         "mc-one-replicate",
         "config-not-json", "config-h1-string", "config-not-an-object",
         "config-key-unread", "config-points-zero",
         "solve-coupling-overflows", "solve-coupling-underflows",
         "asymptotics-coupling-overflows", "asymptotics-coupling-underflows",
         "mc-coupling-overflows", "mc-coupling-underflows",
         "simulate-Y-sigma-squared-overflows",
         "simulate-Z-sigma-squared-overflows",
         "solve-information-overflows"],
)
def test_edge_inputs_exit_2(tmp_path, capsys, argv):
    for name, text in _MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = tmp_path / "out.csv"
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "domain error" in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (("--process", "Z", "--t-horizon", "1e200", "--path-points", "4"), 2),
    (("--process", "Y", "--t-horizon", "1e150", "--path-points", "4"), 0),
    (("--path-points", "0"), 2),
    (("--process", "Y", "--sigma", "1e-200", "--path-points", "4"), 0),
    (("--process", "Z", "--sigma", "1e-200", "--path-points", "4"), 0),
], ids=["Z-covariance-overflows", "Y-squared-norm-overflows",
        "path-points-zero", "Y-sigma-squared-underflows",
        "Z-sigma-squared-underflows"])
def test_simulate_edges_raise_no_numpy_warning(tmp_path, capsys, argv, code):
    # an overflowing covariance is a domain error, and where only its
    # squared norm overflows the factor is checked in range and accepted;
    # either way numpy does not warn, and a refused factor is not cached
    from mixedfbm.gaussian_sim import _factor_cached
    _factor_cached.cache_clear()
    out = tmp_path / "path.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, stderr = run(capsys, "simulate", *argv, "--out", str(out))
    assert got == code
    assert out.exists() == (code == 0)
    assert ("domain error" in stderr) == (code == 2)
    assert _factor_cached.cache_info().currsize == (code == 0)


def test_accuracy_failure_exit_code(tmp_path, capsys, monkeypatch):
    import mixedfbm.cli as cli_mod

    def boom(config):
        raise mf.AccuracyError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_mc", boom)
    code, _, stderr = run(capsys, "mc", "--replicates", "1",
                          "--out", str(tmp_path))
    assert code == 3
    assert "accuracy failure" in stderr
    assert "synthetic failure" in stderr


_SIDECAR = {"h1": 0.6, "h2": 0.9, "sigma": 1.0, "T": 1.0,
            "grading_exponent": 2.0, "qv_N": 0.75,
            "lambda": mf.derive_constants(mf.ModelParams(
                hurst=mf.HurstPair(0.6, 0.9))).lambda_of_T(1.0),
            "filter_knots": {"x": np.linspace(0.0, 1.0, 9).tolist(),
                             "y": np.ones(9).tolist()}}


_MALFORMED_SIDECARS = pytest.mark.parametrize(
    "sidecar",
    [
        {k: v for k, v in _SIDECAR.items() if k != "qv_N"},
        '{"h1": 0.6,',
        [1, 2],
        {**_SIDECAR, "filter_knots": {"x": [0.0, 0.5, 1.0], "y": [1.0, 1.0]}},
        {**_SIDECAR, "filter_knots": {"x": [0.0, 1.0, 0.5], "y": [1.0] * 3}},
        {**_SIDECAR, "filter_knots": {"x": [0.0, 0.5, 1.0], "y": [1.0] * 3}},
        {**_SIDECAR, "filter_knots": {"x": _SIDECAR["filter_knots"]["x"],
                                      "y": [1.0] * 8 + [math.nan]}},
        {**_SIDECAR, "filter_knots": {"x": [0.0, 1.0]}},
        {**_SIDECAR, "filter_knots": [0.0, 1.0]},
        {**_SIDECAR, "grading_exponent": "2"},
        {**_SIDECAR, "grading_exponent": 0.5},
        {**_SIDECAR, "grading_exponent": 3.0},
        {k: v for k, v in _SIDECAR.items() if k != "grading_exponent"},
        {**_SIDECAR, "qv_N": -3.0},
        {**_SIDECAR, "qv_N": 0.0},
        {k: v for k, v in _SIDECAR.items() if k != "lambda"},
        {**_SIDECAR, "sigma": 1.7},
        {**_SIDECAR, "lambda": math.nan},
        {**_SIDECAR, "lambda": math.inf},
        {**_SIDECAR, "lambda": True},
    ],
    ids=["missing-qv", "not-json", "not-an-object", "knots-unequal-lengths",
         "knots-not-increasing", "knots-three", "knots-nan-y",
         "knots-without-y", "knots-not-an-object", "grading-string",
         "grading-below-one", "grading-three", "grading-missing",
         "qv-negative", "qv-zero", "lambda-missing", "sigma-edited",
         "lambda-nan", "lambda-inf", "lambda-bool"],
)


def _estimate(tmp_path, capsys, sidecar, *argv):
    """Run `estimate` on the sidecar (a JSON object, or raw text) and a
    zero path of 129 points on [0, 1], writing tmp_path/result.json."""
    t = np.linspace(0.0, 1.0, 129)
    path_csv = tmp_path / "path.csv"
    np.savetxt(path_csv, np.column_stack([t, np.zeros_like(t)]),
               delimiter=",", header="t,value", comments="")
    text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    (tmp_path / "h.json").write_text(text)
    return run(capsys, "estimate", "--h-file", str(tmp_path / "h.csv"),
               "--path-file", str(path_csv),
               "--out", str(tmp_path / "result.json"), *argv)


@_MALFORMED_SIDECARS
def test_malformed_sidecar_exit_2(tmp_path, capsys, sidecar):
    out = tmp_path / "result.json"
    code, _, _ = _estimate(tmp_path, capsys, _SIDECAR)
    assert code == 0
    out.unlink()
    code, _, stderr = _estimate(tmp_path, capsys, sidecar)
    assert code == 2
    assert "domain error" in stderr
    assert not out.exists()


@_MALFORMED_SIDECARS
def test_record_refuses_malformed_sidecar(sidecar):
    # the raw text of the not-JSON case is no JSON object either
    assert mf.SolutionRecord.from_json(_SIDECAR).qv_N == 0.75
    with pytest.raises(mf.DomainError, match="h.json"):
        mf.SolutionRecord.from_json(sidecar, "h.json")


@pytest.mark.parametrize("key, other", [("h1", 0.61), ("h2", 0.88),
                                        ("sigma", 1.7), ("t_horizon", 3.0),
                                        ("grid_n", 256)])
def test_estimate_refuses_model_values_of_another_solve(tmp_path, capsys,
                                                        key, other):
    # estimate reads its model and grid from the solve; a value given by
    # flag or config must be the solve's, or the estimate would silently
    # ignore it
    flag = "--" + key.replace("_", "-")
    solved = {"h1": 0.6, "h2": 0.9, "sigma": 1.0, "t_horizon": 1.0,
              "grid_n": 128}[key]
    side = {**_SIDECAR, "grid_n": 128}
    out, cfg = tmp_path / "result.json", tmp_path / "cfg.json"
    for value, expect in ((other, 2), (solved, 0)):
        cfg.write_text(json.dumps({key: value}))
        for argv in ((flag, str(value)), ("--config", str(cfg))):
            code, _, stderr = _estimate(tmp_path, capsys, side, *argv)
            assert code == expect
            assert out.exists() == (expect == 0)
            if expect:
                assert f"domain error: {key}=" in stderr
            else:
                out.unlink()


def test_estimate_refuses_a_grid_n_the_sidecar_does_not_hold(tmp_path,
                                                            capsys):
    # a sidecar without grid_n confirms no grid a flag or config gives
    code, _, stderr = _estimate(tmp_path, capsys, _SIDECAR,
                                "--grid-n", "128")
    assert code == 2
    assert "grid_n=128 is not the solve's None" in stderr


def test_estimate_compares_only_values_given(tmp_path, capsys):
    # a solve at sigma = 1.7 is estimated on with no model flags: the
    # default sigma = 1 is not a value given, so it is not compared
    cons = mf.derive_constants(mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9),
                                              sigma=1.7))
    side = {**_SIDECAR, "sigma": 1.7, "lambda": cons.lambda_of_T(1.0)}
    code, _, _ = _estimate(tmp_path, capsys, side)
    assert code == 0
    code, _, _ = _estimate(tmp_path, capsys, side, "--sigma", "1.7")
    assert code == 0
    code, _, stderr = _estimate(tmp_path, capsys, side, "--sigma", "1")
    assert code == 2
    assert "sigma=1.0 is not the solve's 1.7" in stderr
