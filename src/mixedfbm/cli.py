"""Command-line front end.

One table, `_COMMANDS`, builds every subcommand: each parses exactly
the `_SETTINGS` keys its handler reads, its own flags and `--config`,
so a flag it would ignore is a usage error.  Values resolve flag >
config file > built-in default, so a JSON config can pin an experiment
and single flags can still override pieces of it.  Exit codes: 0
success, 2 domain errors (bad parameters or inputs) and usage errors,
3 accuracy failures (a computation ran but missed its tolerance), 1
for I/O problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import asymptotic_variance, h0
from .errors import AccuracyError, DomainError, IllConditionedError
from .estimator import mle
from .fredholm import SolutionRecord, assemble, build_grid, solve_second_kind
from .gaussian_sim import (SamplePath, inverse_transform, molchan_transform,
                           simulate_fbm, simulate_Y, simulate_Z)
from .harness import (_DEFAULT_T_SEQUENCE, ExperimentConfig, _graded_times,
                      _read_json, _write_csv, _write_json, decay_slope,
                      export_report, gap_slope, run_asymptotics, run_mc)
from .kernels import KernelContext, get_tables
from .model import (HurstPair, ModelParams, check_int, check_real,
                    derive_constants)


def _of_type(*types):
    def check(name, value):
        if not isinstance(value, types):
            label = " or ".join(t.__name__ for t in types)
            raise DomainError(f"require a {label} {name}, got {value!r}")
    return check


# every key a flag or --config sets: its flag's type and help, the
# check a config-file value must pass, and the default (None where each
# command picks its own)
_SETTINGS = {
    "h1": (float, check_real, 0.6, "rough component Hurst index"),
    "h2": (float, check_real, 0.9, "smooth component Hurst index"),
    "sigma": (float, check_real, 1.0, "rough component scale"),
    "theta": (float, check_real, 0.0, "drift"),
    "t_horizon": (float, check_real, 1.0, "observation horizon T"),
    "grid_n": (int, check_int, 128, "solver grid size (multiple of 4)"),
    "path_points": (int, check_int, 512, "number of path increments"),
    "replicates": (int, check_int, 100, "Monte Carlo replicates"),
    "seed": (int, check_int, 0, "master seed"),
    "t": (float, check_real, 0.7, "later time (default 0.7)"),
    "s": (float, check_real, 0.4, "earlier time (default 0.4)"),
    "points": (int, check_int, 199,
               "curve samples when writing --out (default 199)"),
    # the flag's comma-separated text or a JSON list of horizons
    "t_sequence": (str, _of_type(str, list), None,
                   "comma-separated horizons (default: --t-horizon for mc, "
                   "1,5,25,125 for asymptotics)"),
    "out": (str, _of_type(str), None, "output file or directory"),
}


class _Settings:
    """Flag > config-file > default resolution for the _SETTINGS keys."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_vals = {}
        if args.config:
            self.file_vals = _read_json(args.config)
            if not isinstance(self.file_vals, dict):
                raise DomainError(f"{args.config}: need a JSON object, got "
                                  f"{type(self.file_vals).__name__}")
            try:
                for name, value in self.file_vals.items():
                    if name not in _SETTINGS:
                        raise DomainError(f"no command reads the key {name!r}")
                    _SETTINGS[name][1](name, value)
            except DomainError as exc:
                raise DomainError(f"{args.config}: {exc}") from exc

    def given(self, name):
        """The value set by flag or config file; None for a default."""
        v = getattr(self.args, name, None)
        return self.file_vals.get(name) if v is None else v

    def get(self, name):
        v = self.given(name)
        return _SETTINGS[name][2] if v is None else v

    def constants(self):
        params = ModelParams(
            hurst=HurstPair(self.get("h1"), self.get("h2")),
            sigma=self.get("sigma"),
            theta=self.get("theta"),
            horizon_T=self.get("t_horizon"),
        )
        return params, derive_constants(params)


def _read_path_csv(fname: str, label: str) -> SamplePath:
    try:
        data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{fname}: {exc}") from exc
    if data.shape[1] < 2:
        raise DomainError(f"{fname}: need columns (t, value)")
    return SamplePath(times=data[:, 0], values=data[:, 1], label=label)


def _cmd_constants(s: _Settings) -> int:
    _, cons = s.constants()
    print(_write_json(s.get("out") or None, cons.as_dict()))
    return 0


def _cmd_kernel(s: _Settings) -> int:
    t, u = s.get("t"), s.get("s")
    if not (check_real("s", u, positive=True)
            < check_real("t", t, positive=True)):
        raise DomainError(f"need s < t, got t={t}, s={u}")
    if not u / t > 0.0:
        raise DomainError(f"s/t underflows to 0 at t={t}, s={u}")
    pair = HurstPair(s.get("h1"), s.get("h2"))
    tab = get_tables(pair.h1, pair.h2)
    # a field beyond the float range is refused below as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        vals = {
            "t": t,
            "s": u,
            "kappa": float(tab.kappa(u / t)),
            "K12": float(tab.K12(t, u)),
            "dK12_dt": float(tab.dK12(t, u)),
            "k1": float(tab.k1(t, u)),
            "covariance_smooth_part": float(tab.R(t, u)),
        }
    overflow = sorted(k for k, v in vals.items() if not np.isfinite(v))
    if overflow:
        raise DomainError(f"{', '.join(overflow)} not finite at t={t}, s={u}")
    print(_write_json(s.get("out") or None, vals))
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
    _write_csv(out, ("node_u", "node_t", "h_hat", "h_T", "weight"),
               zip(grid.nodes, node_t, sol.h_hat, h_T, grid.weights))
    sidecar = {**sol.to_json(), "theta": params.theta,
               "grid_n": s.get("grid_n"), "residual_sup": sol.residual_sup,
               "condition": sol.condition, "library_version": __version__}
    side_path = out.with_suffix(".json")
    _write_json(side_path, sidecar)
    print(f"solved T={T} n={s.get('grid_n')}: residual_sup="
          f"{sol.residual_sup:.3e} qv_N={sol.qv_N!r} -> {out}, {side_path}")
    return 0


def _cmd_closed_form(s: _Settings) -> int:
    _, cons = s.constants()
    points = check_int("points", s.get("points"), minimum=1)
    out = s.get("out")
    if not (s.args.asymptotic_variance or out):
        raise DomainError("closed-form needs --asymptotic-variance or --out")
    if s.args.asymptotic_variance:
        print(f"asymptotic_variance={asymptotic_variance(cons)!r}")
    if out:
        v = np.linspace(0.0, 1.0, points + 2)[1:-1]
        _write_csv(out, ("v", "h0"), zip(v, h0(v, cons)))
        print(f"wrote {points} samples of the limiting filter to {out}")
    return 0


def _cmd_simulate(s: _Settings) -> int:
    _, cons = s.constants()
    times = _graded_times(s.get("t_horizon"), s.get("path_points"))
    seed = np.random.SeedSequence(check_int("seed", s.get("seed"), minimum=0))
    proc = s.args.process
    if proc == "Y":
        path = simulate_Y(times, seed, s.get("theta"), cons)
    elif proc == "Z":
        path = simulate_Z(times, seed, s.get("theta"), cons)
    else:  # "fbm"; argparse allows no other choice
        path = simulate_fbm(cons.hurst.h1, times, seed)
    out = Path(s.get("out") or "path.csv")
    _write_csv(out, ("t", "value"), zip(path.times, path.values))
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
    _write_csv(out, ("t", "value"), zip(res.times, res.values))
    print(f"transformed {path.times.size} -> {res.times.size} points "
          f"to {out}")
    return 0


def _cmd_estimate(s: _Settings) -> int:
    side_path = Path(s.args.h_file).with_suffix(".json")
    if not side_path.exists():
        raise DomainError(f"missing solver sidecar {side_path}")
    sidecar = _read_json(side_path)
    record = SolutionRecord.from_json(sidecar, str(side_path))
    # the model and grid are the solve's; a flag or config value that
    # differs from them would otherwise be ignored silently
    pair = record.constants.hurst
    for name, solved in (("h1", pair.h1), ("h2", pair.h2),
                         ("sigma", record.constants.sigma),
                         ("t_horizon", record.horizon_T),
                         ("grid_n", sidecar.get("grid_n"))):
        given = s.given(name)
        if given is not None and given != solved:
            raise DomainError(f"{name}={given} is not the solve's {solved} "
                              f"in {side_path}; rerun solve")
    path = _read_path_csv(s.args.path_file, "Y")
    res = mle(record, path)
    result = {k: getattr(res, k) for k in (
        "theta_hat", "n_T", "qv_N", "variance_pred")}
    print(_write_json(s.get("out") or "result.json", result))
    return 0


def _experiment_config(s: _Settings, default_ts) -> ExperimentConfig:
    params, _ = s.constants()
    t_sequence = s.get("t_sequence")
    if isinstance(t_sequence, str):
        t_sequence = t_sequence.split(",")
    return ExperimentConfig(
        params=params,
        grid_n=s.get("grid_n"),
        path_points=s.get("path_points"),
        replicates=s.get("replicates"),
        master_seed=s.get("seed"),
        t_sequence=default_ts if t_sequence is None else t_sequence,
        output_dir=s.get("out") or ".",
    )


def _cmd_mc(s: _Settings) -> int:
    config = _experiment_config(s, default_ts=(s.get("t_horizon"),))
    report = run_mc(config)
    paths = export_report(report, config)
    print(f"mc: R={config.replicates} theta={report.theta_true} "
          f"mean_hat={report.mean_hat!r} se={report.se_mean!r} "
          f"var_hat/var_pred={report.var_hat / report.var_pred:.4f} "
          f"ks_p={report.ks_pvalue:.4f}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_asymptotics(s: _Settings) -> int:
    config = _experiment_config(s, default_ts=_DEFAULT_T_SEQUENCE)
    report = run_asymptotics(config)
    paths = export_report(report, config)
    h1, h2 = config.params.hurst.h1, config.params.hurst.h2
    print(f"asymptotics: tail slope={decay_slope(report):.4f} "
          f"(law {-(2.0 - 2.0 * h2):.4f}), gap slope="
          f"{gap_slope(report):.4f} (law {-2.0 * (h2 - h1):.4f}), "
          f"scaled var {report.per_T_scaled_var[-1][1]!r} -> limit "
          f"{report.asymptotic_var_closed_form!r}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


# the keys that _Settings.constants reads, and those _experiment_config
# reads
_MODEL = ("h1", "h2", "sigma", "theta", "t_horizon")
_EXPERIMENT = _MODEL + ("grid_n", "path_points", "replicates", "seed",
                        "t_sequence", "out")
_PATH_FILE = ("--path-file", {"required": True})
# each subcommand: its handler, its help, the _SETTINGS keys it reads
# and its own flags, as (flag, add_argument keywords)
_COMMANDS = {
    "constants": (_cmd_constants, "print derived model constants",
                  _MODEL + ("out",), ()),
    "kernel": (_cmd_kernel, "evaluate kernel values at (t, s)",
               ("h1", "h2", "t", "s", "out"), ()),
    "solve": (_cmd_solve, "solve for the filter at one horizon",
              _MODEL + ("grid_n", "out"), ()),
    "closed-form": (
        _cmd_closed_form, "limiting filter and asymptotic variance",
        _MODEL + ("points", "out"),
        (("--asymptotic-variance", {
            "action": "store_true",
            "help": "print V_H2, the large-T limit of T^(2-2H2) Var that "
                    "asymptotics prints (an exact Gamma formula; no "
                    "sigma enters)"}),)),
    "simulate": (_cmd_simulate, "draw one sample path to CSV",
                 _MODEL + ("path_points", "seed", "out"),
                 (("--process", {"choices": ("Y", "Z", "fbm"),
                                 "default": "Y"}),)),
    "transform": (
        _cmd_transform, "apply the martingale transform to a path file",
        _MODEL + ("out",),
        (_PATH_FILE, ("--inverse", {
            "action": "store_true",
            "help": "recover the observation from a transformed path"}))),
    # estimate compares these with the solve's sidecar
    "estimate": (
        _cmd_estimate, "estimate drift from solver + path files",
        ("h1", "h2", "sigma", "t_horizon", "grid_n", "out"),
        (("--h-file", {
            "required": True,
            "help": "CSV from `solve` (sidecar JSON expected next to it)"}),
         _PATH_FILE)),
    "mc": (_cmd_mc, "Monte Carlo study of the estimator", _EXPERIMENT, ()),
    "asymptotics": (_cmd_asymptotics,
                    "exact-variance decay law across horizons",
                    _EXPERIMENT, ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedfbm",
        description="Drift estimation for a mixture of two fractional "
                    "Brownian motions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, keys, own) in _COMMANDS.items():
        # no prefix matching: with fewer flags per command, `--s` would
        # read as --sigma in `constants` while it is the time s in `kernel`
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for key in keys:
            kind, _, _, flag_help = _SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           help=flag_help)
        p.add_argument("--config", type=str,
                       help="JSON file with the flags' keys (any command's)")
        for flag, kwargs in own:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
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
