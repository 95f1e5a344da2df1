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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .closed_form import asymptotic_variance
from .errors import AccuracyError, AccuracyWarning, DomainError
from .estimator import mle, predicted_variances
from .fredholm import assemble, build_grid, solve_second_kind
from .gaussian_sim import simulate_Y
from .kernels import KernelContext
from .model import (DerivedConstants, ModelParams, check_int, check_real,
                    derive_constants)

__all__ = [
    "ExperimentConfig",
    "HorizonDetail",
    "MCReport",
    "run_mc",
    "run_asymptotics",
    "decay_slope",
    "gap_slope",
    "export_report",
]

_DEFAULT_T_SEQUENCE = (1.0, 5.0, 25.0, 125.0)

# harness solves accept a slightly looser off-grid residual than the
# solver default: horizons beyond ~25 at n=128 sit near the 1e-5 line
_RESIDUAL_TOL = 1e-4

# replicates drawn and estimated together by run_mc; a block of 512-point
# paths is 513 x 256 floats (1 MB)
_MC_BLOCK = 256


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
        for name, minimum in (("grid_n", None), ("path_points", 128),
                              ("replicates", 1), ("master_seed", 0)):
            object.__setattr__(self, name, check_int(
                name, getattr(self, name), minimum))
        try:
            # the CLI's --t-sequence gives strings
            ts = tuple(check_real("t_sequence entry",
                                  float(T) if isinstance(T, str) else T)
                       for T in self.t_sequence)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"t_sequence must hold numbers: {exc}") from exc
        if len(ts) == 0 or any(t <= 0.0 for t in ts):
            raise DomainError("t_sequence must hold positive finite horizons")
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
    variance, V_H2 of ``closed_form.asymptotic_variance``, which does not
    depend on sigma; the exact per_T_scaled_var of run_asymptotics
    converges to it from above at every sigma.
    """

    theta_true: float
    mean_hat: float
    se_mean: float
    var_hat: float
    var_pred: float
    ks_stat: float
    ks_pvalue: float
    per_T_scaled_var: tuple
    asymptotic_var_closed_form: float
    per_T_detail: tuple

    def __post_init__(self) -> None:
        scalars = (self.theta_true, self.mean_hat, self.se_mean, self.var_hat,
                   self.var_pred, self.ks_stat, self.ks_pvalue,
                   self.asymptotic_var_closed_form)
        if not all(math.isfinite(v) for v in scalars):
            raise AccuracyError(f"report fields must be finite, got {scalars}")


def _graded_times(T: float, n: int) -> np.ndarray:
    n = check_int("path_points", n, minimum=1)
    return T * (np.arange(n + 1) / n) ** 2.0


def _solve_horizons(config: ExperimentConfig, constants: DerivedConstants,
                    on_failure: str):
    """Solve once per horizon; returns (solutions, details) in T order.

    on_failure 'raise' aborts on the first failed horizon; 'record'
    warns on an AccuracyError (IllConditionedError included) and returns
    the partial table.  Any other exception propagates.
    """
    op = assemble(KernelContext(constants=constants),
                  build_grid(config.grid_n))
    exponent = 2.0 - 2.0 * constants.hurst.h2
    sols, details = [], []
    for T in config.t_sequence:
        try:
            sol = solve_second_kind(op, T, constants,
                                    residual_tol=_RESIDUAL_TOL)
        except AccuracyError as exc:
            if on_failure == "raise":
                raise
            warnings.warn(f"solve failed at T={T}: {exc}", AccuracyWarning,
                          stacklevel=3)
            continue
        var_exact = predicted_variances(sol.qv_N, constants)
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
    any execution schedule.  Replicates are drawn and estimated as
    columns, at most ``_MC_BLOCK`` at a time, so the paths in memory do
    not grow with the replicate count.  DomainError, before any solve,
    for fewer than 2 replicates: one draw has no sample variance.
    """
    check_int("replicates", config.replicates, minimum=2)
    # scipy.stats is slow to import and only this summary of the
    # replicates reads it, so start-up does not pay for it
    from scipy import stats

    constants = derive_constants(config.params)
    constants.hurst.require_solver_admissible()
    theta = config.params.theta
    sols, details = _solve_horizons(config, constants, on_failure="raise")
    exponent = 2.0 - 2.0 * constants.hurst.h2

    def estimate(sol, times, seed):
        path = simulate_Y(times, seed, theta=theta, constants=constants)
        return mle(sol, path).theta_hat

    def seed_of(r):
        return np.random.SeedSequence((config.master_seed, r))

    per_t_var = []
    first = None
    for sol, det in zip(sols, details):
        times = _graded_times(det.T, config.path_points)
        est = np.empty(config.replicates)
        for r0 in range(0, config.replicates, _MC_BLOCK):
            block = range(r0, min(r0 + _MC_BLOCK, config.replicates))
            try:
                est[block.start:block.stop] = estimate(
                    sol, times, [seed_of(r) for r in block])
            except Exception as exc:
                # redo the block one replicate at a time to name the one
                # that fails; each draws the same path as its column
                for r in block:
                    try:
                        estimate(sol, times, seed_of(r))
                    except Exception as one:
                        raise type(one)(
                            f"replicate {r} (seed ({config.master_seed}, {r})) "
                            f"at T={det.T}: {one}") from one
                raise type(exc)(
                    f"replicates {block.start} to {block.stop - 1} (seeds "
                    f"({config.master_seed}, {block.start}) on) at T={det.T}: "
                    f"{exc}") from exc
        var_hat = float(est.var(ddof=1))
        per_t_var.append((det.T, det.T**exponent * var_hat))
        if first is None:
            z = (est - theta) / np.sqrt(det.var_exact)
            ks = stats.kstest(z, "norm")
            first = dict(
                mean_hat=float(est.mean()),
                var_hat=var_hat,
                var_pred=det.var_exact,
                ks_stat=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
            )

    return MCReport(
        theta_true=theta,
        se_mean=math.sqrt(first["var_hat"] / config.replicates),
        per_T_scaled_var=tuple(per_t_var),
        asymptotic_var_closed_form=asymptotic_variance(constants),
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
        ks_stat=0.0,
        ks_pvalue=1.0,
        per_T_scaled_var=tuple((d.T, d.scaled_var) for d in details),
        asymptotic_var_closed_form=asymptotic_variance(constants),
        per_T_detail=tuple(details),
    )


def decay_slope(report: MCReport) -> float:
    """Log-log slope of the exact variance over the last horizon pair.

    The tail interval is the honest readout of the decay exponent: the
    information functional keeps drifting at rate T^(-2(H2-H1)), so a
    global fit through small horizons mixes that transient into the
    slope.
    """
    return _tail_slope(report, lambda d: d.var_exact)


def gap_slope(report: MCReport) -> float:
    """Log-log slope of scaled_var minus the closed-form limit V_H2 over
    the last horizon pair: the gap that decays like T^(-2(H2-H1)) at
    every sigma, read without the transient of ``decay_slope``.  NaN
    unless both gaps are positive (the exact scaled variance approaches
    its limit from above)."""
    limit = report.asymptotic_var_closed_form
    return _tail_slope(report, lambda d: d.scaled_var - limit)


def _tail_slope(report: MCReport, value) -> float:
    det = report.per_T_detail
    if len(det) < 2:
        raise DomainError("need at least two solved horizons for a slope")
    a, b = det[-2], det[-1]
    if not (value(a) > 0.0 and value(b) > 0.0):
        return math.nan
    return math.log(value(b) / value(a)) / math.log(b.T / a.T)


def _config_echo(config: ExperimentConfig) -> dict:
    # every field of the config and of its model, the Hurst pair as h1, h2
    p = config.params
    echo = {"h1": p.hurst.h1, "h2": p.hurst.h2}
    for obj, nested in ((p, "hurst"), (config, "params")):
        echo.update((f.name, getattr(obj, f.name))
                    for f in fields(obj) if f.name != nested)
    return echo


def _write_csv(path, header, rows) -> None:
    """The package's CSV: a header line, then one line per row with each
    value written as ``repr(float(v))``, each line ended by a bare
    newline."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def _write_json(path, obj) -> str:
    """The package's JSON text of obj: sorted keys and a 2-space indent.
    Written to path with a final newline unless path is None; returned
    without it."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _read_json(path):
    """The JSON value in the file at path; DomainError if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise DomainError(f"{path}: not JSON: {exc}") from exc


_MC_COLUMNS = ("theta_true", "mean_hat", "se_mean", "var_hat", "var_pred",
               "ks_stat", "ks_pvalue")
# per-horizon columns: (name in the exports, HorizonDetail field)
_HORIZON_COLUMNS = (("T", "T"), ("var_exact", "var_exact"),
                    ("scaled_var", "scaled_var"), ("qv_N", "qv_N"),
                    ("lambda", "lam"), ("residual_sup", "residual_sup"))


def export_report(report: MCReport, config: ExperimentConfig) -> tuple:
    """Persist a report under config.output_dir; returns the paths of
    mc_summary.csv (one row), asymptotics.csv (one row per solved
    horizon) and report.json (every field, the config echo and the
    library version).  Output is byte-identical for identical reports.
    """
    from . import __version__

    if len(report.per_T_scaled_var) == 0 or len(report.per_T_detail) == 0:
        raise DomainError("refusing to export an empty report")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = (out / "mc_summary.csv", out / "asymptotics.csv",
             out / "report.json")
    names = [name for name, _ in _HORIZON_COLUMNS]
    rows = [[getattr(d, field) for _, field in _HORIZON_COLUMNS]
            for d in report.per_T_detail]
    _write_csv(paths[0], _MC_COLUMNS,
               [[getattr(report, c) for c in _MC_COLUMNS]])
    _write_csv(paths[1], names, rows)
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload.update(per_T_detail=[dict(zip(names, row)) for row in rows],
                   config=_config_echo(config), library_version=__version__)
    _write_json(paths[2], payload)
    return paths
