"""Record one point of the benchmark trajectory as a BENCH_*.json file.

    python3 tools/bench_record.py BENCH_6.json

Run from the root of a source checkout.  Runs ``perfbench/run.py`` for
each workload of ``BENCHMARK.json`` at seeds 1, 2 and 3 untraced (the
end-to-end metrics) and at seed 1 traced (the per-layer metrics), each
for the benchmark's ``run_seconds``, then ``perfbench/reference.py``
(the per-layer baseline table at n = 128, 256, 512), then times one
Monte Carlo replicate's two calls (``per_path``: the median
microseconds per ``simulate_Y`` and per ``mle`` over ``PER_PATH_CALLS``
single-path calls on the warm default grid, 512 points at T = 1 with an
n = 128 solve, in a fresh process), then times the default horizon
ladder (``ladder``: one cold ``run_asymptotics``, which also builds the
kernel tables, then the median of ``LADDER_CALLS`` calls on the warm
tables, each assembling its operator and building its audit plan, in a
fresh process), then times the cold stages of a first solve and a first
simulation once each (``cold_stages``: c's profile, rho's profile,
``assemble`` at n = 128 on the warm tables, that operator's first audit
plan, and the Y and Z covariance models at 2048 graded path points on
the warm tables, in that order, in one fresh process), then times the
command-line runs
users start (``CLI_RUNS``), each twice in a fresh process inside a
temporary directory, after the untimed commands that prepare its inputs
there (``CLI_SETUP``), then the import of ``mixedfbm.cli`` in as many
fresh processes (``import_s``), and last runs the Tier-1 suite
once with the verify command of ROADMAP.md (``TIER1``, with the same
BLAS thread count), keeping its wall time and the passed and failed
counts of pytest's summary line (``tier1``; errors count as failed).
Writes the parsed result line of every run, the reference output, the
CLI runs (``cli_runs``: per command, the wall time ``wall_s`` and the
peak resident set ``peak_rss_mb`` of each run, the latter from the
child's own ``os.wait4`` rusage; on Linux it counts this script's
resident set when the child starts, so a bare ``python -c pass`` reads
33 MB) and ``tier1``, next to the source state (git commit, whether
the tree was clean, a digest of ``src/mixedfbm`` and the line count of
each of its files and their total, as ``wc -l src/mixedfbm/*.py`` gives
them) and the host: nproc, Python, numpy, scipy, the BLAS library and
the BLAS thread count the runs were given.  Takes about four minutes on 2 vCPUs (3 min 19 s for
BENCH_14.json, 45 s of it the Tier-1 run, before the 2048-point ``mc``
run joined ``CLI_RUNS``).
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import BLAS_ENV  # noqa: E402

SEEDS = (1, 2, 3)

# command lines timed end to end, as ``mixedfbm <argv>``
CLI_RUNS = (
    ("solve", "--grid-n", "128"),
    ("asymptotics",),
    ("mc", "--replicates", "1000"),
    # the large-grid covariance model: one 2049 x 2049 Y model per horizon
    ("mc", "--replicates", "200", "--path-points", "2048"),
    ("estimate", "--h-file", "h.csv", "--path-file", "y.csv"),
    # the one Z route: a cold 2048 x 2048 Z factor and one draw from it
    ("simulate", "--process", "Z", "--path-points", "2048"),
    # the forward transform of a 2048-point Z path: its plan, 2016 x 2047
    # floats, is built and applied per call, 64 rows at a time
    ("transform", "--path-file", "z.csv"),
)
# untimed commands that prepare a timed command's inputs, run first in
# its directory
CLI_SETUP = {
    "estimate": (("solve", "--grid-n", "128"),
                 ("simulate", "--process", "Y", "--seed", "7",
                  "--out", "y.csv")),
    "transform": (("simulate", "--process", "Z", "--path-points", "2048",
                   "--seed", "7", "--out", "z.csv"),),
}
CLI_REPEATS = 2

# one replicate of the Monte Carlo inner loop, timed call by call in a
# child process; prints {"simulate_Y_us": ..., "mle_us": ...}
PER_PATH_CALLS = 2000
_PER_PATH = f"""
import json, time
import numpy as np
from mixedfbm import estimator, fredholm, gaussian_sim, harness
from mixedfbm.kernels import KernelContext
from mixedfbm.model import HurstPair, ModelParams, derive_constants
cons = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.9)))
op = fredholm.assemble(KernelContext(constants=cons), fredholm.build_grid(128))
sol = fredholm.solve_second_kind(op, 1.0, cons)
times = harness._graded_times(1.0, 512)
estimator.mle(sol, gaussian_sim.simulate_Y(times, 0, 1.0, cons))
sim, est = [], []
for r in range({PER_PATH_CALLS}):
    seed = np.random.SeedSequence((1, r))
    t0 = time.perf_counter()
    path = gaussian_sim.simulate_Y(times, seed, 1.0, cons)
    t1 = time.perf_counter()
    estimator.mle(sol, path)
    t2 = time.perf_counter()
    sim.append(t1 - t0)
    est.append(t2 - t1)
print(json.dumps({{"simulate_Y_us": 1e6 * float(np.median(sim)),
                  "mle_us": 1e6 * float(np.median(est))}}))
"""

# the default horizon ladder (T = 1, 5, 25, 125 at n = 128), with cold
# and then warm kernel tables, in a child process; prints
# {"cold_s": ..., "warm_ms": ...}
LADDER_CALLS = 20
_LADDER = f"""
import json, time
import numpy as np
from mixedfbm import harness
from mixedfbm.model import HurstPair, ModelParams
config = harness.ExperimentConfig(params=ModelParams(hurst=HurstPair(0.6, 0.9)))
t0 = time.perf_counter()
harness.run_asymptotics(config)
cold = time.perf_counter() - t0
warm = []
for _ in range({LADDER_CALLS}):
    t0 = time.perf_counter()
    harness.run_asymptotics(config)
    warm.append(time.perf_counter() - t0)
print(json.dumps({{"cold_s": cold, "warm_ms": 1e3 * float(np.median(warm))}}))
"""

# the cold stages at (0.6, 0.9), each timed once in one child process
# in this order: c's profile (with m, n and psi_d, which it reads), rho's
# (m is built by then), ``assemble`` at n = 128 on the warm tables,
# that operator's first audit plan, and the Y then the Z covariance model
# on the 2048-point graded path grid of ``mc --path-points 2048`` on the
# warm tables; prints {"c_s": ..., "rho_s": ..., "assemble_s": ...,
# "audit_plan_s": ..., "y_model_2048_s": ..., "z_model_2048_s": ...}
_COLD_STAGES = """
import json, time
import numpy as np
from mixedfbm import fredholm, gaussian_sim
from mixedfbm.kernels import KernelContext, get_tables
from mixedfbm.model import HurstPair, ModelParams, derive_constants
cons = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.9)))
ctx, grid = KernelContext(constants=cons), fredholm.build_grid(128)
tables = get_tables(0.6, 0.9)
stages = {}
def timed(name, build):
    t0 = time.perf_counter()
    value = build()
    stages[name] = time.perf_counter() - t0
    return value
timed("c_s", lambda: tables.c)
timed("rho_s", lambda: tables.rho)
op = timed("assemble_s", lambda: fredholm.assemble(ctx, grid))
timed("audit_plan_s", lambda: op.audit_plan)
t = (np.arange(2049) / 2048) ** 2.0
timed("y_model_2048_s", lambda: gaussian_sim.covariance_model(t, cons, "Y"))
timed("z_model_2048_s", lambda: gaussian_sim.covariance_model(t, cons, "Z"))
print(json.dumps(stages))
"""

# ROADMAP.md's Tier-1 verify command, run from the checkout's root
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def _run(argv, env) -> str:
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _timed(argv, cwd, env) -> tuple:
    """Wall time and peak resident set in MB of one child process; raises
    CalledProcessError, with the child's stderr, when it fails."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            err.seek(0)
            raise subprocess.CalledProcessError(child.returncode, argv,
                                                stderr=err.read())
    return wall, usage.ru_maxrss / 1024.0


def _cli_runs(env) -> list:
    """Wall time and peak resident set of each ``CLI_RUNS`` command,
    ``CLI_REPEATS`` fresh processes each, run from the checkout's ``src``
    in a scratch directory that takes their output files and, first, the
    inputs that its ``CLI_SETUP`` commands write untimed."""
    env = {**env, "PYTHONPATH": str(ROOT / "src")}
    timed = []
    for argv in CLI_RUNS:
        seconds, peaks = [], []
        for _ in range(CLI_REPEATS):
            with tempfile.TemporaryDirectory() as tmp:
                for setup in CLI_SETUP.get(argv[0], ()):
                    subprocess.run([sys.executable, "-m", "mixedfbm.cli",
                                    *setup], cwd=tmp, env=env,
                                   capture_output=True, check=True)
                wall, peak = _timed([sys.executable, "-m", "mixedfbm.cli",
                                     *argv], tmp, env)
            seconds.append(wall)
            peaks.append(peak)
        timed.append({"argv": ["mixedfbm", *argv], "wall_s": seconds,
                      "peak_rss_mb": peaks})
        print(f"mixedfbm {' '.join(argv)}: done", flush=True)
    return timed


def _import_s(env) -> list:
    """Wall time of ``import mixedfbm.cli`` in ``CLI_REPEATS`` fresh
    processes, from the checkout's ``src``: the start-up every command
    line run pays."""
    env = {**env, "PYTHONPATH": str(ROOT / "src")}
    return [_timed([sys.executable, "-c", "import mixedfbm.cli"], ROOT,
                   env)[0] for _ in range(CLI_REPEATS)]


def _tier1(env) -> dict:
    """Wall time and outcome counts of one Tier-1 run; a failing suite
    is recorded, not raised."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT,
                          env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def _child(script, env, **settings) -> dict:
    """The JSON object that ``script`` prints, run in a fresh process
    from the checkout's ``src``, with the ``settings`` it ran at."""
    line = _run(["-c", script], {**env, "PYTHONPATH": str(ROOT / "src")})
    return {**json.loads(line), **settings}


def _git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixedfbm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _source_lines() -> dict:
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((ROOT / "src" / "mixedfbm").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    env = {**os.environ, **{var: "1" for var in BLAS_ENV}}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in [(s, 0) for s in SEEDS] + [(SEEDS[0], 1)]:
            line = _run(["perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", seconds,
                         "--trace", str(trace)], env)
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "result": json.loads(line.strip().splitlines()[-1])})
            print(f"{workload} seed {seed} trace {trace}: done", flush=True)
    reference = _run(["perfbench/reference.py"], env).splitlines()
    per_path = _child(_PER_PATH, env, calls=PER_PATH_CALLS, path_points=512,
                      grid_n=128)
    ladder = _child(_LADDER, env, calls=LADDER_CALLS, grid_n=128)
    cold_stages = _child(_COLD_STAGES, env, grid_n=128)
    cli_runs = _cli_runs(env)
    import_s = _import_s(env)
    tier1 = _tier1(env)
    print(f"tier-1: {tier1['passed']} passed, {tier1['failed']} failed",
          flush=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "worktree_clean": _git("status", "--porcelain") == "",
        "src_sha256": _source_digest(),
        "src_lines": _source_lines(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {var: env[var] for var in BLAS_ENV},
        },
        "run_seconds": spec["run_seconds"],
        "runs": runs,
        "reference": reference,
        "per_path": per_path,
        "ladder": ladder,
        "cold_stages": cold_stages,
        "cli_runs": cli_runs,
        "import_s": import_s,
        "tier1": tier1,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
