"""Command-line front end.

Every subcommand shares one flag set; values resolve flag > config file
> built-in default, so a JSON config can pin an experiment and single
flags can still override pieces of it.  Exit codes: 0 success, 2 domain
errors (bad parameters or inputs), 3 accuracy failures (a computation
ran but missed its tolerance), 1 for I/O problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import asymptotic_variance, h0, h0_weighted_integral
from .errors import AccuracyError, DomainError, IllConditionedError
from .estimator import estimate_with_filter
from .fredholm import (assemble, build_grid, filter_from_knots,
                       solve_second_kind)
from .gaussian_sim import (SamplePath, inverse_transform, molchan_transform,
                           simulate_fbm, simulate_X, simulate_Y, simulate_Z)
from .harness import (ExperimentConfig, _graded_times, decay_slope,
                      export_report, run_asymptotics, run_mc)
from .kernels import KernelContext, get_tables
from .model import HurstPair, ModelParams, derive_constants

_DEFAULTS = {
    "h1": 0.6,
    "h2": 0.9,
    "sigma": 1.0,
    "theta": 0.0,
    "t_horizon": 1.0,
    "grid_n": 128,
    "path_points": 512,
    "replicates": 100,
    "seed": 0,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h1", type=float, help="rough component Hurst index")
    p.add_argument("--h2", type=float, help="smooth component Hurst index")
    p.add_argument("--sigma", type=float, help="rough component scale")
    p.add_argument("--theta", type=float, help="drift")
    p.add_argument("--t-horizon", type=float, dest="t_horizon",
                   help="observation horizon T")
    p.add_argument("--grid-n", type=int, dest="grid_n",
                   help="solver grid size (multiple of 4)")
    p.add_argument("--path-points", type=int, dest="path_points",
                   help="number of path increments")
    p.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--config", type=str,
                   help="JSON file with the same keys as the flags")
    p.add_argument("--out", type=str, help="output file or directory")


class _Settings:
    """Flag > config-file > default resolution for the shared keys."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_vals = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                self.file_vals = json.load(fh)

    def get(self, name, fallback=None):
        v = getattr(self.args, name, None)
        if v is not None:
            return v
        if name in self.file_vals:
            return self.file_vals[name]
        return _DEFAULTS.get(name, fallback)

    def constants(self):
        params = ModelParams(
            hurst=HurstPair(self.get("h1"), self.get("h2")),
            sigma=self.get("sigma"),
            theta=self.get("theta"),
            horizon_T=self.get("t_horizon"),
        )
        return params, derive_constants(params)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def _read_path_csv(fname: str, label: str) -> SamplePath:
    data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise DomainError(f"{fname}: need columns (t, value)")
    return SamplePath(times=data[:, 0], values=data[:, 1], label=label)


def _cmd_constants(s: _Settings) -> int:
    _, cons = s.constants()
    text = json.dumps(cons.as_dict(), indent=2, sort_keys=True)
    print(text)
    out = s.get("out")
    if out:
        Path(out).write_text(text + "\n")
    return 0


def _cmd_kernel(s: _Settings) -> int:
    tab = get_tables(s.get("h1"), s.get("h2"))
    t, u = s.args.t, s.args.s
    vals = {
        "t": t,
        "s": u,
        "kappa": float(tab.kappa(min(t, u) / max(t, u))),
        "K12": float(tab.K12(t, u)),
        "dK12_dt": float(tab.dK12(t, u)),
        "k1": float(tab.k1(t, u)),
        "covariance_smooth_part": float(tab.R(t, u)),
    }
    text = json.dumps(vals, indent=2, sort_keys=True)
    print(text)
    out = s.get("out")
    if out:
        Path(out).write_text(text + "\n")
    return 0


def _cmd_solve(s: _Settings) -> int:
    params, cons = s.constants()
    T = s.get("t_horizon")
    grid = build_grid(s.get("grid_n"))
    op = assemble(KernelContext(constants=cons), grid)
    sol = solve_second_kind(op, T, cons)
    h1 = cons.hurst.h1
    node_t = grid.nodes * T
    h_T = sol.h_hat * node_t ** (h1 - 0.5)
    out = Path(s.get("out") or "h.csv")
    _write_rows(out, ("node_u", "node_t", "h_hat", "h_T", "weight"),
                zip(grid.nodes, node_t, sol.h_hat, h_T, grid.weights))
    sidecar = {
        "h1": cons.hurst.h1,
        "h2": cons.hurst.h2,
        "sigma": cons.sigma,
        "theta": params.theta,
        "T": T,
        "grid_n": s.get("grid_n"),
        "grading_exponent": grid.grading_exponent,
        "lambda": sol.lam,
        "qv_N": sol.qv_N,
        "residual_sup": sol.residual_sup,
        "condition": sol.condition,
        "library_version": __version__,
        "filter_knots": {"x": sol.spline.x.tolist(),
                         "y": sol.spline.y.tolist()},
    }
    side_path = out.with_suffix(".json")
    side_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"solved T={T} n={s.get('grid_n')}: residual_sup="
          f"{sol.residual_sup:.3e} qv_N={sol.qv_N!r} -> {out}, {side_path}")
    return 0


def _cmd_closed_form(s: _Settings) -> int:
    _, cons = s.constants()
    if s.args.asymptotic_variance:
        j_lo = h0_weighted_integral(cons, order=24)
        j_hi = h0_weighted_integral(cons, order=48)
        av = asymptotic_variance(cons)
        print(f"asymptotic_variance={av!r} "
              f"quadrature_error={abs(1.0 / j_hi - 1.0 / j_lo):.3e}")
    out = s.get("out")
    if out:
        v = np.linspace(0.0, 1.0, s.args.points + 2)[1:-1]
        _write_rows(out, ("v", "h0"), zip(v, h0(v, cons)))
        print(f"wrote {s.args.points} samples of the limiting filter "
              f"to {out}")
    return 0


def _cmd_simulate(s: _Settings) -> int:
    _, cons = s.constants()
    times = _graded_times(s.get("t_horizon"), s.get("path_points"))
    seed = np.random.SeedSequence(s.get("seed"))
    proc = s.args.process
    if proc == "X":
        path = simulate_X(times, seed, cons)
    elif proc == "Y":
        path = simulate_Y(times, seed, s.get("theta"), cons)
    elif proc == "Z":
        path = simulate_Z(times, seed, s.get("theta"), cons)
    elif proc == "fbm":
        path = simulate_fbm(cons.hurst.h1, times, seed)
    else:
        raise DomainError(f"unknown process {proc!r}")
    out = Path(s.get("out") or "path.csv")
    _write_rows(out, ("t", "value"), zip(path.times, path.values))
    print(f"simulated {proc} on {times.size} points to {out}")
    return 0


def _cmd_transform(s: _Settings) -> int:
    _, cons = s.constants()
    if s.args.inverse:
        path = _read_path_csv(s.args.path_file, "Y")
        res = inverse_transform(path, cons)
    else:
        path = _read_path_csv(s.args.path_file, "Z")
        res = molchan_transform(path, cons)
    out = Path(s.get("out") or "transformed.csv")
    _write_rows(out, ("t", "value"), zip(res.times, res.values))
    print(f"transformed {path.times.size} -> {res.times.size} points "
          f"to {out}")
    return 0


def _cmd_estimate(s: _Settings) -> int:
    side_path = Path(s.args.h_file).with_suffix(".json")
    if not side_path.exists():
        raise DomainError(f"missing solver sidecar {side_path}")
    side = json.loads(side_path.read_text())
    if "filter_knots" not in side:
        raise DomainError(f"{side_path} holds no filter knots; rerun solve")
    cons = derive_constants(ModelParams(
        hurst=HurstPair(side["h1"], side["h2"]), sigma=side["sigma"],
        horizon_T=side["T"]))
    h_T = filter_from_knots(side["filter_knots"]["x"],
                            side["filter_knots"]["y"], side["T"],
                            side["h1"], side["grading_exponent"])
    path = _read_path_csv(s.args.path_file, "Y")
    res = estimate_with_filter(h_T, side["T"], side["qv_N"], path, cons)
    result = {k: getattr(res, k) for k in (
        "theta_hat", "n_T", "qv_N", "variance_pred", "variance_pred_paper")}
    text = json.dumps(result, indent=2, sort_keys=True)
    out = Path(s.get("out") or "result.json")
    out.write_text(text + "\n")
    print(text)
    return 0


def _experiment_config(s: _Settings, default_ts) -> ExperimentConfig:
    params, _ = s.constants()
    if s.args.t_sequence is not None:
        t_sequence = tuple(float(x) for x in s.args.t_sequence.split(","))
    elif "t_sequence" in s.file_vals:
        t_sequence = tuple(float(x) for x in s.file_vals["t_sequence"])
    elif default_ts is None:
        t_sequence = (s.get("t_horizon"),)
    else:
        t_sequence = default_ts
    return ExperimentConfig(
        params=params,
        grid_n=s.get("grid_n"),
        path_points=s.get("path_points"),
        replicates=s.get("replicates"),
        master_seed=s.get("seed"),
        t_sequence=t_sequence,
        output_dir=s.get("out") or ".",
    )


def _cmd_mc(s: _Settings) -> int:
    config = _experiment_config(s, default_ts=None)
    report = run_mc(config)
    paths = export_report(report, config, "csv")
    paths += export_report(report, config, "json")
    print(f"mc: R={config.replicates} theta={report.theta_true} "
          f"mean_hat={report.mean_hat!r} se={report.se_mean!r} "
          f"var_hat/var_pred={report.var_hat / report.var_pred:.4f} "
          f"ks_p={report.ks_pvalue:.4f}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_asymptotics(s: _Settings) -> int:
    config = _experiment_config(s, default_ts=(1.0, 5.0, 25.0, 125.0))
    report = run_asymptotics(config)
    paths = export_report(report, config, "csv")
    paths += export_report(report, config, "json")
    h2 = config.params.hurst.h2
    print(f"asymptotics: tail slope={decay_slope(report):.4f} "
          f"(law {-(2.0 - 2.0 * h2):.4f}), scaled var "
          f"{report.per_T_scaled_var[-1][1]!r} -> limit "
          f"{report.asymptotic_var_closed_form!r}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedfbm",
        description="Drift estimation for a mixture of two fractional "
                    "Brownian motions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print derived model constants")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("kernel", help="evaluate kernel values at (t, s)")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--s", type=float, default=0.4)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("solve", help="solve for the filter at one horizon")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("closed-form",
                       help="limiting filter and asymptotic variance")
    _add_common(p)
    p.add_argument("--points", type=int, default=199,
                   help="curve samples when writing --out")
    p.add_argument("--asymptotic-variance", action="store_true",
                   dest="asymptotic_variance",
                   help="print the limiting variance with a quadrature "
                        "error estimate")
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("simulate", help="draw one sample path to CSV")
    _add_common(p)
    p.add_argument("--process", choices=("X", "Y", "Z", "fbm"), default="X")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transform",
                       help="apply the martingale transform to a path file")
    _add_common(p)
    p.add_argument("--path-file", required=True, dest="path_file")
    p.add_argument("--inverse", action="store_true",
                   help="recover the observation from a transformed path")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("estimate",
                       help="estimate drift from solver + path files")
    _add_common(p)
    p.add_argument("--h-file", required=True, dest="h_file",
                   help="CSV from `solve` (sidecar JSON expected next to it)")
    p.add_argument("--path-file", required=True, dest="path_file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mc", help="Monte Carlo study of the estimator")
    _add_common(p)
    p.add_argument("--t-sequence", dest="t_sequence",
                   help="comma-separated horizons (default: --t-horizon)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("asymptotics",
                       help="exact-variance decay law across horizons")
    _add_common(p)
    p.add_argument("--t-sequence", dest="t_sequence",
                   help="comma-separated horizons (default: 1,5,25,125)")
    p.set_defaults(func=_cmd_asymptotics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(_Settings(args))
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, IllConditionedError) as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
