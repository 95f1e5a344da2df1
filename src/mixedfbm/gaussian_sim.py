"""Exact Gaussian path simulation and the weighted path transform.

Simulation is covariance-based: every finite-dimensional draw comes from
a factorized covariance matrix, so there is no discretization bias to
account for in Monte Carlo baselines.  The forward transform maps the
observed process onto its drift-linearizing form by integrating the
two-parameter power kernel against the path; the inverse recovers the
observation through a weakly singular convolution followed by a
Stieltjes sum.  Both directions operate on piecewise-linear
interpolants, so their error is controlled by the sampling resolution
of the input path, which the caller chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, IllConditionedError
from .kernels import get_tables
from .model import DerivedConstants
from .numerics import beta_fn, jacobi_panels

__all__ = [
    "SamplePath",
    "CovarianceModel",
    "covariance_X",
    "covariance_model",
    "simulate_X",
    "simulate_Y",
    "simulate_Z",
    "simulate_fbm",
    "molchan_transform",
    "inverse_transform",
]

_LABELS = ("Z", "Y", "X", "X1", "X2", "fBm")

# interior sample points required below each requested transform time
_MIN_INTERIOR = 32


@dataclass(frozen=True)
class SamplePath:
    """One realized path on a finite grid.

    The grid always starts at 0 and every process starts at 0; the label
    records which process the values represent.
    """

    times: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise DomainError("times and values must be 1-d arrays of equal length")
        if t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise DomainError("times must strictly increase from 0")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("path contains non-finite entries")
        if v[0] != 0.0:
            raise DomainError("all processes start at 0")
        if self.label not in _LABELS:
            raise DomainError(f"unknown path label {self.label!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance description of one process on a positive time grid.

    The grid excludes 0 (where every process is deterministically 0);
    drift holds the mean function on the same grid.
    """

    times: np.ndarray
    matrix: np.ndarray
    drift: np.ndarray
    chol: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(np.abs(m).max(), 1.0)):
            raise IllConditionedError("covariance matrix is not symmetric")
        tr = float(np.trace(m))
        if float(np.linalg.eigvalsh(m)[0]) < -1e-10 * tr:
            raise IllConditionedError("covariance matrix has a significantly negative eigenvalue")
        rec = self.chol @ self.chol.T
        if np.linalg.norm(rec - m) > 1e-8 * np.linalg.norm(m):
            raise IllConditionedError("factor does not reproduce the covariance")


def _positive_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise DomainError("need a finite 1-d time grid")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    if t[0] == 0.0:
        t = t[1:]
    if t.size == 0 or t[0] <= 0.0:
        raise DomainError("need at least one strictly positive time")
    return t


def _factor(matrix: np.ndarray) -> np.ndarray:
    jitter = 1e-12 * np.trace(matrix) / matrix.shape[0]
    for attempt in range(4):
        bump = 0.0 if attempt == 0 else jitter * 10.0 ** (attempt - 1)
        try:
            return np.linalg.cholesky(matrix + bump * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise IllConditionedError(
        "covariance factorization failed even with jitter; grid too dense "
        "or parameters too close to degeneracy"
    )


def _fbm_cov(h: float, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))


def covariance_X(t, s, constants: DerivedConstants):
    """Covariance of the transformed observation X = sigma*X1 + X2.

    The martingale part contributes sigma^2 eps (t^s)^{2-2H1}; the
    transformed second component contributes its two-parameter
    homogeneous covariance.  Vectorized over broadcastable arguments.
    """
    tt, ss = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if np.any(tt < 0.0) or np.any(ss < 0.0):
        raise DomainError("covariance is defined for nonnegative times")
    tab = get_tables(constants.hurst.h1, constants.hurst.h2)
    lo = np.minimum(tt, ss)
    mart = constants.sigma**2 * constants.epsilon_h1 * lo ** (2.0 - 2.0 * constants.hurst.h1)
    out = mart + tab.R(tt, ss)
    return float(out) if np.ndim(out) == 0 else out


@lru_cache(maxsize=32)
def _model_cached(
    key: bytes,
    process: str,
    theta: float,
    h1: float,
    h2: float,
    sigma: float,
    eps: float,
    bconst: float,
) -> CovarianceModel:
    t = np.frombuffer(key, dtype=float)
    if process in ("X", "Y"):
        tab = get_tables(h1, h2)
        lo = np.minimum.outer(t, t)
        mat = tab.R(t[:, None], t[None, :]) + sigma**2 * eps * lo ** (2.0 - 2.0 * h1)
        if process == "Y":
            drift = theta * bconst * t ** (2.0 - 2.0 * h1)
        else:
            drift = np.zeros(t.size)
    elif process == "Z":
        mat = sigma**2 * _fbm_cov(h1, t[:, None], t[None, :]) + _fbm_cov(
            h2, t[:, None], t[None, :]
        )
        drift = theta * t
    else:
        raise DomainError(f"unknown process {process!r}")
    return CovarianceModel(times=t, matrix=mat, drift=drift, chol=_factor(mat))


def covariance_model(
    times, constants: DerivedConstants, process: str = "X", theta: float = 0.0
) -> CovarianceModel:
    """Build (and cache) the factorized covariance of X, Y, or Z."""
    t = _positive_times(times)
    return _model_cached(
        t.tobytes(),
        process,
        float(theta),
        constants.hurst.h1,
        constants.hurst.h2,
        constants.sigma,
        constants.epsilon_h1,
        constants.script_b,
    )


def _draw(model: CovarianceModel, seed, label: str) -> SamplePath:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(model.times.size)
    vals = model.chol @ g + model.drift
    return SamplePath(
        times=np.concatenate(([0.0], model.times)),
        values=np.concatenate(([0.0], vals)),
        label=label,
    )


def simulate_X(times, seed, constants: DerivedConstants) -> SamplePath:
    """Exact draw of the driftless transformed observation."""
    return _draw(covariance_model(times, constants, "X"), seed, "X")


def simulate_Y(times, seed, theta: float, constants: DerivedConstants) -> SamplePath:
    """Exact draw of the transformed observation with drift theta."""
    return _draw(covariance_model(times, constants, "Y", theta), seed, "Y")


def simulate_Z(times, seed, theta: float, constants: DerivedConstants) -> SamplePath:
    """Pathwise draw of the raw observation theta*t + sigma*B1 + B2.

    Built from two independent fractional Brownian draws rather than a
    factorized joint covariance; the two routes agree in distribution
    and the transform tests compare them.
    """
    t = _positive_times(times)
    full = np.concatenate(([0.0], t))
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    b1 = simulate_fbm(constants.hurst.h1, full, s1)
    b2 = simulate_fbm(constants.hurst.h2, full, s2)
    vals = theta * full + constants.sigma * b1.values + b2.values
    return SamplePath(times=full, values=vals, label="Z")


@lru_cache(maxsize=32)
def _fbm_model_cached(key: bytes, h: float) -> CovarianceModel:
    t = np.frombuffer(key, dtype=float)
    mat = _fbm_cov(h, t[:, None], t[None, :])
    return CovarianceModel(times=t, matrix=mat, drift=np.zeros(t.size), chol=_factor(mat))


def simulate_fbm(h: float, times, seed) -> SamplePath:
    """Exact fractional Brownian draw on an arbitrary grid.

    The draw is the Cholesky factor of the covariance on the grid (kept
    for the last 32 grids) applied to standard normals from ``seed``.
    """
    if not 0.5 < h < 1.0:
        raise DomainError(f"require 1/2 < H < 1, got {h}")
    t = _positive_times(times)
    model = _fbm_model_cached(t.tobytes(), h)
    return SamplePath(
        times=np.concatenate(([0.0], t)),
        values=np.concatenate(([0.0], model.chol @ np.random.default_rng(seed).standard_normal(t.size))),
        label="fBm",
    )


# ----------------------------------------------------------------- forward

# 6-point Gauss-Legendre rule on [0, 1] for the smooth interior segments
_GL_NODES, _GL_WEIGHTS = jacobi_panels(6, [0.0], [1.0], [0.0], [0.0])
_GL_NODES, _GL_WEIGHTS = _GL_NODES[0], _GL_WEIGHTS[0]


@lru_cache(maxsize=8)
def _jacobi01(a: float) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for int_0^1 x^a f(x) dx
    x, w = jacobi_panels(8, [0.0], [1.0], [a], [0.0])
    return x[0], w[0]


def _dl(t: float, s: np.ndarray, a: float) -> np.ndarray:
    # d/ds of (t-s)^a s^a
    return a * (t - s) ** (a - 1.0) * s ** (a - 1.0) * (t - 2.0 * s)


# each plan holds O(n^2) floats (about 12 MB for a 512-point path), so
# only the last few grids are kept
@lru_cache(maxsize=4)
def _molchan_plan(times_key: bytes, out_key: bytes, h1: float):
    """Quadrature nodes/weights mapping path values to transform values.

    For each output time t the transform is written in compensated
    integration-by-parts form, split at t/2.  The segment touching 0
    carries the weight s^{1/2-H1} exactly (the linear interpolant
    vanishes at 0); the segment touching t carries (t-s)^{1/2-H1}
    exactly against the compensated increment.  Interior segments are
    smooth and take a fixed Gauss rule each.  The result for one output
    time is coef_t * Z(t) + sum(w * Z(nodes)).
    """
    grid = np.frombuffer(times_key, dtype=float)
    outs = np.frombuffer(out_key, dtype=float)
    a = 0.5 - h1
    jx, jw = _jacobi01(a)
    plans = []
    for t in outs:
        interior = grid[(grid > 0.0) & (grid < t)]
        if interior.size < _MIN_INTERIOR:
            raise AccuracyError(
                f"only {interior.size} sample points below t={t}; "
                f"need at least {_MIN_INTERIOR} for the transform quadrature"
            )
        nodes_acc = []
        weights_acc = []
        coef_t = (0.5 * t) ** (1.0 - 2.0 * h1)
        half = 0.5 * t
        s1 = interior[0]

        # left integral over [0, t/2], subtracted from the result
        e = min(s1, half)
        sq = e * jx
        weights_acc.append(-(e ** (a + 1.0)) * jw * a * (t - sq) ** (a - 1.0) * (t - 2.0 * sq) / sq)
        nodes_acc.append(sq)
        left_pts = np.concatenate((interior[(interior > e) & (interior < half)], [half]))
        p = e
        for q in left_pts:
            sq = p + (q - p) * _GL_NODES
            nodes_acc.append(sq)
            weights_acc.append(-(q - p) * _GL_WEIGHTS * _dl(t, sq, a))
            p = q

        # right integral over [t/2, t] against Z(s) - Z(t)
        right_pts = interior[interior > half]
        p = half
        for q in right_pts:
            sq = p + (q - p) * _GL_NODES
            w = (q - p) * _GL_WEIGHTS * _dl(t, sq, a)
            nodes_acc.append(sq)
            weights_acc.append(-w)
            coef_t += float(np.sum(w))
            p = q
        # closing segment [p, t]: the compensated increment is
        # (Z(p) - Z(t)) (t-s)/(t-p) exactly on the linear interpolant
        sq = t - (t - p) * jx
        c_seg = float(np.sum(a * (t - p) ** a * jw * sq ** (a - 1.0) * (t - 2.0 * sq)))
        nodes_acc.append(np.array([p]))
        weights_acc.append(np.array([-c_seg]))
        coef_t += c_seg

        plans.append((t, np.concatenate(nodes_acc), np.concatenate(weights_acc), coef_t))
    return plans


def molchan_transform(
    path: SamplePath, constants: DerivedConstants, out_times=None
) -> SamplePath:
    """Weighted-kernel transform of an observed path.

    Integrates the kernel (t-s)^{1/2-H1} s^{1/2-H1} against the path
    increments, evaluated on the piecewise-linear interpolant.  Output
    times default to every sample time deep enough into the grid to
    have 32 points below it; pass explicit ``out_times`` for a sparser
    (and faster) evaluation.
    """
    grid = path.times
    if out_times is None:
        if grid.size <= _MIN_INTERIOR + 1:
            raise AccuracyError(
                f"path has {grid.size - 1} sample points; the transform needs "
                f"more than {_MIN_INTERIOR}"
            )
        outs = grid[_MIN_INTERIOR + 1 :]
    else:
        outs = np.atleast_1d(np.asarray(out_times, dtype=float))
        if np.any(outs <= 0.0) or np.any(outs > grid[-1]) or np.any(np.diff(outs) <= 0):
            raise DomainError("output times must increase within (0, horizon]")
    plans = _molchan_plan(grid.tobytes(), outs.tobytes(), constants.hurst.h1)
    vals = np.empty(outs.size)
    for i, (t, nodes, weights, coef_t) in enumerate(plans):
        zt = float(np.interp(t, grid, path.values))
        vals[i] = coef_t * zt + float(np.dot(weights, np.interp(nodes, grid, path.values)))
    return SamplePath(
        times=np.concatenate(([0.0], outs)),
        values=np.concatenate(([0.0], vals)),
        label="Y",
    )


def inverse_transform(path: SamplePath, constants: DerivedConstants) -> SamplePath:
    """Recover the observation path from its transform.

    First stage: the weakly singular convolution psi(t) =
    int_0^t (t-s)^{H1-3/2} Y(s) ds, evaluated exactly on the linear
    interpolant segment by segment.  Second stage: normalize by the
    beta constant and accumulate the Stieltjes sum of u^{H1-1/2}
    against the increments of the first stage.
    """
    h1 = constants.hurst.h1
    grid = path.times
    if grid.size - 2 < _MIN_INTERIOR:
        raise AccuracyError(
            f"path has {grid.size - 1} sample points; the inverse transform "
            f"needs more than {_MIN_INTERIOR + 1}"
        )
    y = path.values
    c = h1 - 1.5
    slope = np.diff(y) / np.diff(grid)
    # value of each segment's linear extension at s = t, per segment start
    psi = np.zeros(grid.size)
    for i in range(1, grid.size):
        t = grid[i]
        r_hi = t - grid[:i]
        r_lo = t - grid[1 : i + 1]
        anchor = y[:i] + slope[:i] * r_hi
        term1 = anchor * (r_hi ** (c + 1.0) - r_lo ** (c + 1.0)) / (c + 1.0)
        term2 = slope[:i] * (r_hi ** (c + 2.0) - r_lo ** (c + 2.0)) / (c + 2.0)
        psi[i] = float(np.sum(term1 - term2))
    phi = psi / float(beta_fn(h1 - 0.5, 1.5 - h1))
    # midpoint tags keep the Stieltjes sum second order in the mesh
    mid = 0.5 * (grid[1:] + grid[:-1])
    z = np.cumsum(np.concatenate(([0.0], mid ** (h1 - 0.5) * np.diff(phi))))
    return SamplePath(times=grid.copy(), values=z, label="Z")
