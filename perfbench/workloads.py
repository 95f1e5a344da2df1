"""The benchmark's workloads: inputs, operations and output checks.

Every workload uses the CLI defaults: H = (0.6, 0.9), sigma = 1, a
solver grid of n = 128 and paths of 512 increments.  The model drift is
theta = 1.  A workload object has ``setup()``, ``op()`` (one timed
operation), ``check()`` (a list of problems) and ``residual_sup()``
(None when nothing was solved).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import warnings
from pathlib import Path

import numpy as np

from mixedfbm import cli, estimator, fredholm, gaussian_sim, harness, kernels
from mixedfbm.errors import AccuracyWarning
from mixedfbm.gaussian_sim import SamplePath
from mixedfbm.model import HurstPair, ModelParams, derive_constants

import checks

H1, H2, SIGMA, THETA = 0.6, 0.9, 1.0, 1.0
GRID_N = 128
PATH_POINTS = 512
BLOCK = 100            # replicates per mc operation
SWEEP_OBSERVED_OPS = 3

# per-layer timings, each reported as <name>_s (median per call) and
# <name>_calls by a traced run
LAYERS = (
    "kernels.get_tables",
    "fredholm.assemble",
    "fredholm.solve_second_kind",
    "fredholm.residual_report",
    "numerics.solve_dense",
    "closed_form.asymptotic_variance",
    "harness.run_asymptotics",
    "fredholm.filter_interpolant",
    "gaussian_sim.covariance_model",
    "gaussian_sim.simulate_Y",
    "estimator.mle",
    "cli.solve",
    "cli.transform",
    "gaussian_sim.molchan_transform",
    "cli.estimate",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """State shared by the workloads of one run."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.params = ModelParams(hurst=HurstPair(H1, H2), sigma=SIGMA,
                                  theta=THETA)
        self.cons = derive_constants(self.params)
        self.solutions: list = []     # the T = 1 solve comes first
        self.accuracy_warnings = {"fredholm": 0, "estimator": 0}
        self.transform_rss_mb = 0.0
        # calls made inside the program (the harness's solves, the
        # solver's LU, mle's filter build) are seen through wrappers
        tracer.wrap(harness, "assemble", "fredholm.assemble")
        tracer.wrap(harness, "solve_second_kind",
                    "fredholm.solve_second_kind", keep=self.solutions)
        tracer.wrap(harness, "asymptotic_variance",
                    "closed_form.asymptotic_variance")
        tracer.wrap(fredholm, "solve_dense", "numerics.solve_dense")
        tracer.wrap(estimator, "filter_interpolant",
                    "fredholm.filter_interpolant")

    @contextlib.contextmanager
    def counting(self, layer: str):
        """Count the AccuracyWarnings raised inside the block.

        Other warnings are passed on to the filters outside the block.
        """
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AccuracyWarning)
                yield
        finally:
            for w in caught:
                if issubclass(w.category, AccuracyWarning):
                    self.accuracy_warnings[layer] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno, source=w.source)

    def tables(self) -> None:
        with self.tracer.span("kernels.get_tables"):
            kernels.get_tables(H1, H2)


class Asymptotics:
    """One operation: harness.run_asymptotics over T = 1, 5, 25, 125."""

    def __init__(self, bench: Bench):
        self.b = bench
        self.config = harness.ExperimentConfig(
            params=bench.params, grid_n=GRID_N, path_points=PATH_POINTS,
            master_seed=bench.seed)
        self.reports: list = []

    def setup(self) -> None:
        pass

    def op(self) -> None:
        with self.b.tracer.span("harness.run_asymptotics"), \
                self.b.counting("fredholm"):
            self.reports.append(harness.run_asymptotics(self.config))

    def residual_sup(self) -> float | None:
        """None when no ladder was completed."""
        return max((d.residual_sup for r in self.reports
                    for d in r.per_T_detail), default=None)

    def check(self) -> list:
        problems = []
        for rep in self.reports:
            rows = [(d.T, d.qv_N, d.scaled_var, d.residual_sup)
                    for d in rep.per_T_detail]
            if [r[0] for r in rows] != list(self.config.t_sequence):
                problems.append(f"horizons solved: {[r[0] for r in rows]}")
            problems += checks.ladder(rows, rep.asymptotic_var_closed_form,
                                      H1, H2)
        return problems


class MonteCarlo:
    """One operation: 100 replicates of simulate_Y + mle at T = 1.

    Replicate r draws from SeedSequence((seed, r)), run_mc's stream.
    """

    def __init__(self, bench: Bench):
        self.b = bench
        self.times = (np.arange(PATH_POINTS + 1) / PATH_POINTS) ** 2.0
        self.next_r = 0
        self.estimates: list = []

    def setup(self) -> None:
        b = self.b
        with b.tracer.span("fredholm.assemble"), b.counting("fredholm"):
            op = fredholm.assemble(kernels.KernelContext(constants=b.cons),
                                   fredholm.build_grid(GRID_N))
        with b.tracer.span("fredholm.solve_second_kind"), \
                b.counting("fredholm"):
            sol = fredholm.solve_second_kind(
                op, 1.0, b.cons, residual_tol=checks.RESIDUAL_TOL)
        b.solutions.append(sol)
        self.prepare(sol)

    def prepare(self, sol) -> None:
        """First draw on the grid, and the filter built by a first mle."""
        b = self.b
        self.sol = sol
        with b.tracer.span("gaussian_sim.covariance_model"):
            gaussian_sim.covariance_model(self.times, b.cons, "Y", THETA)
        drift = SamplePath(times=self.times,
                           values=THETA * checks.drift_shape(self.times, H1),
                           label="Y")
        with b.tracer.span("estimator.mle"), b.counting("estimator"):
            self.drift_fit = estimator.mle(sol, drift, b.cons)

    def op(self) -> None:
        b, span = self.b, self.b.tracer.span
        r0 = self.next_r
        self.next_r += BLOCK
        est = np.empty(BLOCK)
        with b.counting("estimator"):
            for i in range(BLOCK):
                seed = np.random.SeedSequence((b.seed, r0 + i))
                with span("gaussian_sim.simulate_Y"):
                    path = gaussian_sim.simulate_Y(self.times, seed, THETA,
                                                   b.cons)
                with span("estimator.mle"):
                    est[i] = estimator.mle(self.sol, path, b.cons).theta_hat
        self.estimates.append(est)

    def residual_sup(self) -> float:
        return self.sol.residual_sup

    def check(self) -> list:
        problems = checks.residual(self.sol.residual_sup)
        problems += checks.drift_recovery(self.drift_fit.theta_hat, THETA)
        if self.estimates:
            est = np.concatenate(self.estimates)
            var_pred = self.drift_fit.variance_pred
            problems += checks.pooled_mean(est, THETA, var_pred)
            problems += checks.variance_ratio(est, var_pred)
        return problems


def irregular_grid(rng, n: int) -> np.ndarray:
    """0 = t_0 < ... < t_n = 1, graded like the CLI's, jittered per point."""
    u = (np.arange(1, n) + rng.uniform(-0.4, 0.4, n - 1)) / n
    return np.concatenate(([0.0], u ** 2, [1.0]))


def raw_path(times, rng) -> np.ndarray:
    """Z = theta t + sigma B1 + B2 by a Cholesky factor of its covariance."""
    t = np.asarray(times[1:], float)

    def fbm_cov(h):
        a, b = t[:, None], t[None, :]
        return 0.5 * (a ** (2 * h) + b ** (2 * h) - np.abs(a - b) ** (2 * h))

    chol = np.linalg.cholesky(SIGMA**2 * fbm_cov(H1) + fbm_cov(H2))
    z = THETA * t + chol @ rng.standard_normal(t.size)
    return np.concatenate(([0.0], z))


def _cli(*argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"mixedfbm {argv[0]} exited with {code}: "
                           f"{err.getvalue().strip()}")


class Observed:
    """One operation: `transform` then `estimate` through cli.main.

    The input is a raw path on a new irregular grid each time.  A traced
    run also transforms the path through the library first, so that
    call carries the cold plan build and cli.transform the warm one.
    """

    def __init__(self, bench: Bench):
        self.b = bench
        self.rng = np.random.default_rng(
            np.random.SeedSequence(bench.seed).spawn(1)[0])
        self.ops = 0
        self.done: list = []      # (grid, estimate result) per operation
        self.rss_before = None

    def setup(self) -> None:
        b = self.b
        self.h_csv = b.workdir / "h.csv"
        with b.tracer.span("cli.solve"), b.counting("fredholm"):
            _cli("solve", "--h1", H1, "--h2", H2, "--sigma", SIGMA,
                 "--grid-n", GRID_N, "--t-horizon", 1.0, "--out", self.h_csv)
        side = json.loads(self.h_csv.with_suffix(".json").read_text())
        self.solve_residual = side["residual_sup"]

    def op(self) -> None:
        b, span = self.b, self.b.tracer.span
        k = self.ops
        self.ops += 1
        times = irregular_grid(self.rng, PATH_POINTS)
        z = raw_path(times, self.rng)
        z_csv = b.workdir / f"z{k}.csv"
        y_csv = b.workdir / f"y{k}.csv"
        r_json = b.workdir / f"r{k}.json"
        np.savetxt(z_csv, np.column_stack((times, z)), fmt="%.17g",
                   delimiter=",", header="t,value", comments="")
        if self.rss_before is None:
            self.rss_before = _rss_mb()
        if b.tracer.enabled:
            with span("gaussian_sim.molchan_transform"):
                gaussian_sim.molchan_transform(
                    SamplePath(times=times, values=z, label="Z"), b.cons)
        with span("cli.transform"):
            _cli("transform", "--h1", H1, "--h2", H2, "--sigma", SIGMA,
                 "--path-file", z_csv, "--out", y_csv)
        with span("cli.estimate"), b.counting("estimator"):
            _cli("estimate", "--h-file", self.h_csv, "--path-file", y_csv,
                 "--out", r_json)
        b.transform_rss_mb = _rss_mb() - self.rss_before
        self.done.append((times, json.loads(r_json.read_text())))

    def residual_sup(self) -> float:
        return self.solve_residual

    def check(self) -> list:
        problems = checks.residual(self.solve_residual)
        for times, _ in self.done:
            out = gaussian_sim.molchan_transform(
                SamplePath(times=times, values=times.copy(), label="Z"),
                self.b.cons)
            problems += checks.drift_transform(out.times[1:], out.values[1:],
                                               H1)
        if self.done:
            problems += checks.pooled_mean(
                [r["theta_hat"] for _, r in self.done], THETA,
                self.done[0][1]["variance_pred"])
        return problems


WORKLOADS = {"asymptotics": Asymptotics, "mc": MonteCarlo,
             "observed": Observed}


def sweep(bench: Bench) -> list:
    """Traced runs only: reach once every layer the workload did not.

    Returns the workload objects it ran, whose checks then apply too.
    """
    tr = bench.tracer
    tr.op = "sweep"
    parts = []
    if not tr.seen("harness.run_asymptotics"):
        parts.append(Asymptotics(bench))
        parts[-1].op()
    sol = bench.solutions[0]
    with tr.span("fredholm.residual_report"):
        report = fredholm.residual_report(sol)
    if report.reconstruction_sup != sol.residual_sup:
        raise RuntimeError(
            f"audit rerun gives {report.reconstruction_sup!r}, the solve "
            f"gave {sol.residual_sup!r}")
    if not tr.seen("estimator.mle"):
        parts.append(MonteCarlo(bench))
        parts[-1].prepare(sol)
        parts[-1].op()
    if not tr.seen("cli.estimate"):
        parts.append(Observed(bench))
        parts[-1].setup()
        for _ in range(SWEEP_OBSERVED_OPS):
            parts[-1].op()
    return parts
