"""One-off reference run: the per-layer baseline table at n = 128, 256, 512.

    python3 perfbench/reference.py

Times the kernel-table build (cold, then the cached call), and for each
solver grid size the Nystrom assembly, the dense LU solve of
(I + lam A) h = rhs alone, and the off-grid residual audit alone, at
H = (0.6, 0.9), sigma = 1, T = 1.  A stage under 10 s is repeated and
its median reported.  Prints qv_N per grid size and its convergence
ratio, |qv(128) - qv(512)| / |qv(256) - qv(512)|, then a markdown
table.  Takes about four minutes on 2 vCPUs; writes nothing.
"""

import os
import platform
import statistics
import sys
import time

from run import BLAS_ENV, ROOT

for _var in BLAS_ENV:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from mixedfbm import fredholm, kernels, numerics  # noqa: E402
from mixedfbm import HurstPair, ModelParams, derive_constants  # noqa: E402

SIZES = (128, 256, 512)


def timed(fn, *args):
    """Median wall time of fn(*args) (three calls if the first is < 10 s)."""
    t = time.perf_counter()
    out = fn(*args)
    times = [time.perf_counter() - t]
    if times[0] < 10.0:
        for _ in range(2):
            t = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t)
    return statistics.median(times), out


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"{blas['name']} {blas['version']}, BLAS threads "
          f"{os.environ[BLAS_ENV[0]]}", flush=True)
    t = time.perf_counter()
    kernels.get_tables(0.6, 0.9)
    cold = time.perf_counter() - t
    warm, _ = timed(kernels.get_tables, 0.6, 0.9)
    cons = derive_constants(ModelParams(hurst=HurstPair(0.6, 0.9)))
    ctx = kernels.KernelContext(constants=cons)
    rows, qv = [], {}
    for n in SIZES:
        t_asm, op = timed(fredholm.assemble, ctx, fredholm.build_grid(n))
        sol = fredholm.solve_second_kind(op, 1.0, cons)
        system = np.eye(n) + sol.lam * op.matrix
        rhs = (op.grid.nodes * 1.0) ** (0.5 - cons.hurst.h1)
        t_lu, _ = timed(numerics.solve_dense, system, rhs)
        t_audit, rep = timed(fredholm.residual_report, sol)
        qv[n] = sol.qv_N
        rows.append((n, t_asm, t_lu * 1e3, t_audit, rep.reconstruction_sup))
        print(f"n={n}: assemble {t_asm:.3f} s, LU {t_lu * 1e3:.2f} ms, audit "
              f"{t_audit:.3f} s, residual_sup {rep.reconstruction_sup:.3e}, "
              f"qv_N {sol.qv_N!r}", flush=True)
    ratio = abs(qv[128] - qv[512]) / abs(qv[256] - qv[512])
    print()
    print(f"| layer | {' | '.join(f'n={n}' for n in SIZES)} |")
    print(f"|---|{'---|' * len(SIZES)}")
    print(f"| kernel tables, cold | {cold:.1f} s | — | — |")
    print(f"| kernel tables, cached call | {warm * 1e6:.1f} µs | — | — |")
    for label, col, fmt in (("`assemble`", 1, "{:.2f} s"),
                            ("dense LU solve", 2, "{:.2f} ms"),
                            ("residual audit", 3, "{:.1f} s"),
                            ("residual_sup", 4, "{:.2e}")):
        print(f"| {label} | "
              + " | ".join(fmt.format(r[col]) for r in rows) + " |")
    print(f"| qv_N | " + " | ".join(f"{qv[n]:.10f}" for n in SIZES) + " |")
    print(f"\nqv_N convergence ratio |qv(128)-qv(512)|/|qv(256)-qv(512)| "
          f"= {ratio:.3f}; |qv(128)/qv(256) - 1| = "
          f"{abs(qv[128] / qv[256] - 1.0):.3e}")


if __name__ == "__main__":
    main()
