"""Experiment orchestration: Monte Carlo studies and the decay law.

Two routes to the estimator's sampling distribution.  run_mc simulates
replicate observations and estimates each one; run_asymptotics never
simulates, since the estimator is Gaussian with variance 1/(d^2 <N>(T))
known exactly from the solver, and tabulates that variance across
horizons.  Both produce the same report type and share the exporters.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .closed_form import asymptotic_variance
from .errors import AccuracyError, AccuracyWarning, DomainError
from .estimator import mle, predicted_variances
from .fredholm import assemble, build_grid, solve_second_kind
from .gaussian_sim import simulate_Y
from .kernels import KernelContext
from .model import DerivedConstants, ModelParams, derive_constants

__all__ = [
    "ExperimentConfig",
    "HorizonDetail",
    "MCReport",
    "run_mc",
    "run_asymptotics",
    "decay_slope",
    "export_report",
]

_DEFAULT_T_SEQUENCE = (1.0, 5.0, 25.0, 125.0)

# harness solves accept a slightly looser off-grid residual than the
# solver default: horizons beyond ~25 at n=128 sit near the 1e-5 line
_RESIDUAL_TOL = 1e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, discretization sizes, replication plan."""

    params: ModelParams
    grid_n: int = 128
    path_points: int = 512
    replicates: int = 1000
    master_seed: int = 0
    t_sequence: tuple = _DEFAULT_T_SEQUENCE
    output_dir: str = "."

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise DomainError(f"require replicates >= 1, got {self.replicates}")
        if self.path_points < 128:
            raise DomainError(
                f"require path_points >= 128, got {self.path_points}")
        ts = tuple(float(T) for T in self.t_sequence)
        if len(ts) == 0 or any(not t > 0 for t in ts):
            raise DomainError("t_sequence must hold positive horizons")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError(f"t_sequence must be strictly increasing: {ts}")
        object.__setattr__(self, "t_sequence", ts)
        object.__setattr__(self, "output_dir", str(self.output_dir))


@dataclass(frozen=True)
class HorizonDetail:
    """Per-horizon solver output backing the asymptotics table."""

    T: float
    var_exact: float
    scaled_var: float
    qv_N: float
    lam: float
    residual_sup: float


@dataclass(frozen=True)
class MCReport:
    """Aggregated experiment results.

    The scalar summary fields describe the first horizon of the
    sequence; per_T_scaled_var and per_T_detail cover every horizon.
    per_T_scaled_var pairs each T with T^(2-2H2) times the report's
    variance estimate for that horizon: the empirical variance for
    run_mc, the exact one for run_asymptotics.

    asymptotic_var_closed_form is the T -> infinity limit of the scaled
    variance, 1/(delta^2 J) with J the weighted integral of the
    limiting filter; per_T_scaled_var converges to it from above.
    """

    theta_true: float
    mean_hat: float
    se_mean: float
    var_hat: float
    var_pred: float
    var_pred_paper: float
    ks_stat: float
    ks_pvalue: float
    per_T_scaled_var: tuple
    asymptotic_var_closed_form: float
    per_T_detail: tuple

    def __post_init__(self) -> None:
        scalars = (self.theta_true, self.mean_hat, self.se_mean, self.var_hat,
                   self.var_pred, self.var_pred_paper, self.ks_stat,
                   self.ks_pvalue, self.asymptotic_var_closed_form)
        if not all(math.isfinite(v) for v in scalars):
            raise AccuracyError(f"report fields must be finite, got {scalars}")


def _graded_times(T: float, n: int) -> np.ndarray:
    return T * (np.arange(n + 1) / n) ** 2.0


def _scaled_limit(constants: DerivedConstants) -> float:
    # T^(2-2H2) Var = 1/(delta^2 J_mu(T)); asymptotic_variance() is 1/J
    return asymptotic_variance(constants) / constants.delta_paper**2


def _solve_horizons(config: ExperimentConfig, constants: DerivedConstants,
                    on_failure: str):
    """Solve once per horizon; returns (solutions, details) in T order.

    on_failure 'raise' aborts on the first failed horizon; 'record'
    warns and returns the partial table.
    """
    op = assemble(KernelContext(constants=constants),
                  build_grid(config.grid_n))
    exponent = 2.0 - 2.0 * constants.hurst.h2
    sols, details = [], []
    for T in config.t_sequence:
        try:
            sol = solve_second_kind(op, T, constants,
                                    residual_tol=_RESIDUAL_TOL)
        except Exception as exc:
            if on_failure == "raise":
                raise
            warnings.warn(f"solve failed at T={T}: {exc}", AccuracyWarning,
                          stacklevel=3)
            continue
        var_exact = predicted_variances(sol.qv_N, constants)[0]
        sols.append(sol)
        details.append(HorizonDetail(
            T=float(T),
            var_exact=float(var_exact),
            scaled_var=float(T**exponent * var_exact),
            qv_N=float(sol.qv_N),
            lam=float(sol.lam),
            residual_sup=float(sol.residual_sup),
        ))
    return sols, details


def run_mc(config: ExperimentConfig) -> MCReport:
    """Simulate, estimate, aggregate; one Fredholm solve per horizon.

    Replicate r draws from the stream seeded by (master_seed, r), the
    same stream at every horizon, and results are aggregated in
    replicate order, so the report is reproducible and independent of
    any execution schedule.
    """
    constants = derive_constants(config.params)
    constants.hurst.require_solver_admissible()
    theta = config.params.theta
    sols, details = _solve_horizons(config, constants, on_failure="raise")
    exponent = 2.0 - 2.0 * constants.hurst.h2

    per_t_var = []
    first = None
    for sol, det in zip(sols, details):
        times = _graded_times(det.T, config.path_points)
        est = np.empty(config.replicates)
        for r in range(config.replicates):
            seed = np.random.SeedSequence((config.master_seed, r))
            try:
                path = simulate_Y(times, seed, theta=theta,
                                  constants=constants)
                est[r] = mle(sol, path, constants).theta_hat
            except Exception as exc:
                raise type(exc)(
                    f"replicate {r} (seed ({config.master_seed}, {r})) "
                    f"at T={det.T}: {exc}") from exc
        var_hat = float(est.var(ddof=1)) if est.size > 1 else 0.0
        per_t_var.append((det.T, det.T**exponent * var_hat))
        if first is None:
            var_pred, var_pred_paper = predicted_variances(det.qv_N,
                                                           constants)
            z = (est - theta) / np.sqrt(var_pred)
            ks = stats.kstest(z, "norm")
            first = dict(
                mean_hat=float(est.mean()),
                var_hat=var_hat,
                var_pred=var_pred,
                var_pred_paper=var_pred_paper,
                ks_stat=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
            )

    return MCReport(
        theta_true=theta,
        se_mean=math.sqrt(first["var_hat"] / config.replicates),
        per_T_scaled_var=tuple(per_t_var),
        asymptotic_var_closed_form=_scaled_limit(constants),
        per_T_detail=tuple(details),
        **first,
    )


def run_asymptotics(config: ExperimentConfig) -> MCReport:
    """Exact-variance horizon sweep; no simulation involved.

    The estimator is Gaussian, so Var = 1/(d^2 <N>(T)) is exact and the
    T^(2-2H2) decay law can be read off without Monte Carlo noise.
    Failed horizons are recorded and skipped; the table is partial.
    """
    constants = derive_constants(config.params)
    constants.hurst.require_solver_admissible()
    if len(config.t_sequence) < 3:
        raise DomainError(
            f"need at least 3 horizons, got {len(config.t_sequence)}")
    _, details = _solve_horizons(config, constants, on_failure="record")
    if len(details) < 2:
        raise AccuracyError(
            f"only {len(details)} of {len(config.t_sequence)} horizons "
            "solved; no decay law can be read off")
    head = details[0]
    return MCReport(
        theta_true=config.params.theta,
        mean_hat=config.params.theta,
        se_mean=0.0,
        var_hat=head.var_exact,
        var_pred=head.var_exact,
        var_pred_paper=predicted_variances(head.qv_N, constants)[1],
        ks_stat=0.0,
        ks_pvalue=1.0,
        per_T_scaled_var=tuple((d.T, d.scaled_var) for d in details),
        asymptotic_var_closed_form=_scaled_limit(constants),
        per_T_detail=tuple(details),
    )


def decay_slope(report: MCReport) -> float:
    """Log-log slope of the exact variance over the last horizon pair.

    The tail interval is the honest readout of the decay exponent: the
    information functional keeps drifting at rate T^(-2(H2-H1)), so a
    global fit through small horizons mixes that transient into the
    slope.
    """
    det = report.per_T_detail
    if len(det) < 2:
        raise DomainError("need at least two solved horizons for a slope")
    a, b = det[-2], det[-1]
    return math.log(b.var_exact / a.var_exact) / math.log(b.T / a.T)


def _config_echo(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "h1": p.hurst.h1,
        "h2": p.hurst.h2,
        "sigma": p.sigma,
        "theta": p.theta,
        "horizon_T": p.horizon_T,
        "grid_n": config.grid_n,
        "path_points": config.path_points,
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "t_sequence": list(config.t_sequence),
        "output_dir": config.output_dir,
    }


_MC_COLUMNS = ("theta_true", "mean_hat", "se_mean", "var_hat", "var_pred",
               "var_pred_paper", "ks_stat", "ks_pvalue")
_ASY_COLUMNS = ("T", "var_exact", "scaled_var", "qv_N", "lambda",
                "residual_sup")


def export_report(report: MCReport, config: ExperimentConfig,
                  fmt: str) -> tuple:
    """Persist a report under config.output_dir; returns written paths.

    csv writes mc_summary.csv (one row) and asymptotics.csv (one row
    per solved horizon); json writes report.json mirroring every field
    plus the config echo and library version.  Output is byte-identical
    for identical reports.
    """
    if len(report.per_T_scaled_var) == 0 or len(report.per_T_detail) == 0:
        raise DomainError("refusing to export an empty report")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        mc_path = out / "mc_summary.csv"
        with open(mc_path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(_MC_COLUMNS)
            w.writerow([repr(float(getattr(report, c))) for c in _MC_COLUMNS])
        asy_path = out / "asymptotics.csv"
        with open(asy_path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(_ASY_COLUMNS)
            for d in report.per_T_detail:
                w.writerow([repr(float(v)) for v in
                            (d.T, d.var_exact, d.scaled_var, d.qv_N, d.lam,
                             d.residual_sup)])
        return (mc_path, asy_path)
    if fmt == "json":
        from . import __version__
        payload = {c: getattr(report, c) for c in _MC_COLUMNS}
        payload["per_T_scaled_var"] = [list(p) for p in
                                       report.per_T_scaled_var]
        payload["asymptotic_var_closed_form"] = \
            report.asymptotic_var_closed_form
        payload["per_T_detail"] = [
            {k: getattr(d, k if k != "lambda" else "lam")
             for k in _ASY_COLUMNS} for d in report.per_T_detail]
        payload["config"] = _config_echo(config)
        payload["library_version"] = __version__
        json_path = out / "report.json"
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return (json_path,)
    raise DomainError(f"unknown export format {fmt!r}; use csv or json")
