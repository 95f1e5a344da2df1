"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mc --seed 3 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Each invocation is its own process with its own
temporary working directory, removed at the end, so no kernel table,
transform plan or file carries over from one run to the next.  With
``--trace 1`` the run records spans, reports the per-layer metrics and
writes the spans to ``.perfbench_out/trace/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
# one process, no extra threads: BLAS must not spread over the cores
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_phase(op, seconds: float, tracer=None):
    """Call ``op`` until ``seconds`` have passed; at least once.

    An operation that raises counts as failed and the loop goes on.  The
    host-speed sampler runs throughout.  Returns (the cost in reference
    units of each operation that succeeded, attempted, failed, sampler).
    """
    import hostspeed  # imports numpy, so not before BLAS_ENV is set

    done, attempted, failed = [], 0, 0
    with hostspeed.Sampler() as clock:
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t, spent = time.perf_counter(), clock.spent
            try:
                op()
            except Exception:
                failed += 1
                if failed <= 3:
                    traceback.print_exc()
                continue
            end = time.perf_counter()
            done.append((t, end, end - t - (clock.spent - spent)))
    return [clock.cost(*d) for d in done], attempted, failed, clock


def summarise(setup_s, costs, peak_rss_mb, residual_sup):
    """The end-to-end metrics as {name: (value, unit)}, and problems.

    A run in which no operation completed is not correct, and a figure
    with nothing behind it (no operation cost, no solve) is left out
    rather than printed as 0, the best value of a lower-is-better metric.
    """
    problems = [] if costs else ["no operation completed"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (statistics.median(costs) if costs else None, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "residual_sup": (residual_sup, "1"),
    }
    return {k: v for k, v in metrics.items() if v[0] is not None}, problems


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("asymptotics", "mc", "observed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "mixedfbm" / "__init__.py").is_file():
        print(f"no mixedfbm sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Tracer
    import workloads

    tracer = Tracer(bool(args.trace))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=OUT / "tmp"))
    try:
        bench = workloads.Bench(args.seed, tracer, workdir)
        bench.tables()
        work = workloads.WORKLOADS[args.workload](bench)
        work.setup()
        setup_s = time.perf_counter() - _T0
        costs, attempted, failed, clock = run_phase(work.op, args.seconds,
                                                    tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        end_to_end, problems = summarise(setup_s, costs, peak_rss_mb,
                                         work.residual_sup())
        problems += work.check()
        if args.trace:
            try:
                for part in workloads.sweep(bench):
                    problems += part.check()
            except Exception as exc:
                traceback.print_exc()
                problems.append(f"layer sweep raised {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the expected count is 0; a traced run also reports it per layer
    for layer, count in bench.accuracy_warnings.items():
        if count:
            problems.append(f"{count} AccuracyWarning(s) from {layer}")

    metrics = end_to_end
    if args.trace:
        metrics = {}
        for name, (med, calls) in tracer.summary(workloads.LAYERS).items():
            if calls == 0:
                problems.append(f"layer {name} was not reached")
            metrics[f"{name}_s"] = (med, "s")
            metrics[f"{name}_calls"] = (calls, "count")
        metrics["gaussian_sim.molchan_transform_rss_mb"] = (
            bench.transform_rss_mb, "MB")
        metrics["host.reference_s"] = (
            statistics.median(d for _, d in clock.samples), "s")
        for layer, count in bench.accuracy_warnings.items():
            metrics[f"{layer}.accuracy_warnings"] = (count, "count")
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json",
                  "w") as fh:
            json.dump({"end_to_end": {k: v[0] for k, v in end_to_end.items()},
                       "per_layer": {k: v[0] for k, v in metrics.items()},
                       "spans": tracer.records()}, fh)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
