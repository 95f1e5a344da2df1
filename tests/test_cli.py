"""Command-line behavior: flag resolution, file formats, exit codes.

main() is driven in-process; every invocation writes inside tmp_path.
"""

import json

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


def test_closed_form_command(tmp_path, capsys):
    out = tmp_path / "h0.csv"
    code, stdout, _ = run(capsys, "closed-form", "--h1", "0.6", "--h2", "0.9",
                          "--asymptotic-variance", "--points", "9",
                          "--out", str(out))
    assert code == 0
    printed = float(stdout.split("asymptotic_variance=")[1].split()[0])
    assert printed == pytest.approx(0.7917047464716586, rel=1e-9)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (9, 2)
    cons = mf.derive_constants(mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9)))
    assert rows[4, 1] == pytest.approx(mf.h0(rows[4, 0], cons), rel=1e-12)


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
    assert sorted(result) == ["n_T", "qv_N", "theta_hat", "variance_pred",
                              "variance_pred_paper"]
    # the CLI rebuilds the library's filter from the sidecar knots, so it
    # reproduces mle on the same solve and path
    cons = mf.derive_constants(mf.ModelParams(hurst=mf.HurstPair(0.6, 0.9)))
    op = mf.assemble(mf.KernelContext(constants=cons), mf.build_grid(64))
    sol = mf.solve_second_kind(op, 1.0, cons)
    data = np.loadtxt(path_csv, delimiter=",", skiprows=1)
    lib = mf.mle(sol, mf.SamplePath(times=data[:, 0], values=data[:, 1],
                                    label="Y"), cons)
    for key in result:
        assert result[key] == pytest.approx(getattr(lib, key), rel=1e-12)
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
    lines = (out_dir / "asymptotics.csv").read_text().strip().split("\n")
    assert len(lines) == 4


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
