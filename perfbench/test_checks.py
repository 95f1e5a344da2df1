"""Each of the benchmark's checks must pass on a right answer and trip on
a wrong one; a raising operation must count as failed without ending the
run.  Run with ``python3 -m pytest perfbench``; needs numpy, scipy and
the package sources, not the package's kernel tables.
"""

import itertools

import numpy as np

import checks
from run import run_phase, summarise

H1, H2 = 0.6, 0.9


def _stream(n=4000, theta=1.0, var=0.7, seed=0):
    """Estimates with mean exactly theta and sample variance exactly var."""
    x = np.random.default_rng(seed).standard_normal(n)
    x = (x - x.mean()) / x.std(ddof=1)
    return theta + np.sqrt(var) * x


def test_pooled_mean_trips_on_five_standard_errors():
    est = _stream()
    assert checks.pooled_mean(est, 1.0, 0.7) == []
    shifted = est + 5.0 * np.sqrt(0.7 / est.size)
    assert checks.pooled_mean(shifted, 1.0, 0.7)
    assert checks.pooled_mean(est - 5.0 * np.sqrt(0.7 / est.size), 1.0, 0.7)


def test_variance_ratio_trips_on_a_wrong_variance():
    est = _stream()
    assert checks.variance_ratio(est, 0.7) == []
    assert checks.variance_ratio(est, 0.7 * 1.2)
    assert checks.variance_ratio(est, 0.7 / 1.2)


def test_drift_transform_trips_on_a_relative_error_of_1e_6():
    t = np.linspace(0.0, 1.0, 513)[1:] ** 2
    exact = checks.drift_shape(t, H1)
    assert checks.drift_transform(t, exact, H1) == []
    assert checks.drift_transform(t, exact * (1.0 + 1e-6), H1)


def test_drift_shape_is_the_beta_constant():
    # B(0.9, 0.9) = Gamma(0.9)^2 / Gamma(1.8)
    from math import gamma
    assert np.isclose(checks.drift_shape(1.0, H1),
                      gamma(0.9) ** 2 / gamma(1.8), rtol=1e-14)


def test_drift_recovery_tolerance():
    assert checks.drift_recovery(1.0 + 8e-6, 1.0) == []
    assert checks.drift_recovery(1.0 + 2e-4, 1.0)


def _ladder(slope, limit=0.4, residual=4e-5):
    Ts = (1.0, 5.0, 25.0, 125.0)
    return [(T, 0.75 * T ** 0.6, limit + 0.3 * T ** slope, residual)
            for T in Ts]


def test_ladder_passes_on_the_decay_law():
    assert checks.ladder(_ladder(-2 * (H2 - H1)), 0.4, H1, H2) == []
    assert checks.ladder(_ladder(-0.584), 0.4, H1, H2) == []


def test_ladder_trips_on_a_wrong_gap_slope():
    assert checks.ladder(_ladder(-0.3), 0.4, H1, H2)
    assert checks.ladder(_ladder(-0.7), 0.4, H1, H2)


def test_ladder_trips_on_a_limit_above_the_scaled_variance():
    assert checks.ladder(_ladder(-0.6), 0.5, H1, H2)


def test_ladder_trips_on_information_not_increasing():
    rows = _ladder(-0.6)
    rows[2] = (rows[2][0], rows[1][1], rows[2][2], rows[2][3])
    assert checks.ladder(rows, 0.4, H1, H2)


def test_residual_above_tolerance_trips():
    assert checks.residual(4.4e-5) == []
    assert checks.residual(1.1e-4)
    assert checks.residual(float("nan"))
    assert checks.ladder(_ladder(-0.6, residual=2e-4), 0.4, H1, H2)


def test_raising_operation_counts_as_failed_and_run_continues():
    calls = itertools.count()

    def op():
        if next(calls) % 2 == 0:
            raise RuntimeError("injected failure")

    costs, attempted, failed, clock = run_phase(op, 0.05)
    assert attempted >= 2
    assert failed == (attempted + 1) // 2
    assert len(costs) == attempted - failed
    assert clock.samples[-1][0] - clock.samples[0][0] >= 0.05


def test_always_failing_operation_still_ends():
    def op():
        raise ValueError("always")

    costs, attempted, failed, _ = run_phase(op, 0.02)
    assert costs == [] and attempted == failed >= 1


def test_run_without_a_completed_operation_is_not_correct():
    metrics, problems = summarise(30.0, [], 120.0, None)
    assert problems == ["no operation completed"]
    assert set(metrics) == {"setup_s", "peak_rss_mb"}
    metrics, problems = summarise(30.0, [40.0, 50.0, 60.0], 120.0, 4e-6)
    assert problems == []
    assert metrics["op_p50_ref"] == (50.0, "ref")
    assert metrics["residual_sup"] == (4e-6, "1")


def test_cost_divides_by_the_reference_time_around_the_operation():
    from hostspeed import Sampler

    clock = Sampler()
    # the host runs at half speed from t = 10 on
    clock.samples = [(t * 0.2, 0.001 if t < 50 else 0.002)
                     for t in range(100)]
    assert np.isclose(clock.cost(3.0, 3.04, 0.04), 40.0)
    assert np.isclose(clock.cost(15.0, 15.08, 0.08), 40.0)
    # an operation across the change is priced at the mean of both
    assert np.isclose(clock.reference_s(9.5, 10.5), 0.0015, rtol=0.1)
    # no sample within the window: the nearest one
    assert np.isclose(clock.reference_s(40.0, 41.0), 0.002)


def test_sampler_times_the_reference_on_its_timer():
    import time
    from hostspeed import SAMPLE_EVERY_S, Sampler

    with Sampler() as clock:
        end = time.perf_counter() + 5 * SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 5
    assert clock.spent == sum(d for _, d in clock.samples) > 0


def _workloads():
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads
    return workloads


def test_accuracy_warnings_are_counted_and_other_warnings_pass():
    import warnings
    from spans import Tracer

    workloads = _workloads()
    AccuracyWarning = workloads.AccuracyWarning
    bench = workloads.Bench(0, Tracer(False), None)
    with warnings.catch_warnings(record=True) as outer:
        warnings.simplefilter("always")
        with bench.counting("fredholm"):
            warnings.warn("residual above tolerance", AccuracyWarning)
            warnings.warn("unrelated", RuntimeWarning)
        try:
            with bench.counting("estimator"):
                warnings.warn("filter ill-conditioned", AccuracyWarning)
                raise RuntimeError("operation failed")
        except RuntimeError:
            pass
    assert bench.accuracy_warnings == {"fredholm": 1, "estimator": 1}
    assert [w.category for w in outer] == [RuntimeWarning]


def test_cli_exit_code_other_than_zero_counts_as_failed():
    workloads = _workloads()

    # h1 = 0.3 is outside (1/2, 1): the CLI reports a domain error, exit 2
    def op():
        workloads._cli("constants", "--h1", 0.3, "--h2", 0.9)

    costs, attempted, failed, _ = run_phase(op, 0.02)
    assert costs == [] and attempted == failed >= 1
