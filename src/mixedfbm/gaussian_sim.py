"""Exact Gaussian path simulation and the weighted path transform.

Simulation is covariance-based: every finite-dimensional draw comes from
a factorized covariance matrix, so there is no discretization bias to
account for in Monte Carlo baselines.  The observation is Z, the paper's
X_t = theta t + sigma B1 + B2.  The forward transform maps it onto Y,
its fundamental-martingale form (Norros, Valkeila and Virtamo 1999), by
integrating the two-parameter power kernel against the path: on each
segment of the linear interpolant the integral is a difference of
incomplete Beta functions.  The inverse recovers the observation through
a weakly singular convolution, exact per segment, and a Stieltjes sum.
Both read the path through its linear interpolant, so their error is set
by how finely the sampling grid, which the caller chooses, resolves it.

Every simulator also takes a list or tuple of seeds and then returns one
column per seed; column r is, bit for bit, the path the same call draws
for seed r alone.  The forward transform and the score read such columns
with the same code as a single path.  Every draw on one grid carries the
same read-only ``times``: its model's grid with the origin prepended,
validated once, when the model was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dpotrf
from scipy.special import betainc

from .errors import AccuracyError, DomainError, IllConditionedError
from .kernels import get_tables
from .model import DerivedConstants, check_real
from .numerics import beta_fn

__all__ = [
    "SamplePath",
    "CovarianceModel",
    "covariance_model",
    "simulate_Y",
    "simulate_Z",
    "simulate_fbm",
    "molchan_transform",
    "inverse_transform",
]

_LABELS = ("Z", "Y", "fBm")

# interior sample points required below each requested transform time;
# the transform is exact on the interpolant, so this sets its resolution
_MIN_INTERIOR = 32


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One realized path on a finite grid, or several as columns.

    The grid always starts at 0 and every process starts at 0; the label
    records which process the values represent.  ``values`` is 1-d for
    one path, or 2-d with one row per time and one column per path.
    Paths compare and hash by identity: arrays have no one truth value.
    """

    times: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim not in (1, 2) or v.shape[0] != t.size:
            raise DomainError("times must be 1-d and values 1-d of equal length, "
                              "or 2-d with one row per time")
        # array methods, not np.any/np.all: these checks run on every draw
        if t.size < 2 or t[0] != 0.0 or (np.diff(t) <= 0.0).any():
            raise DomainError("times must strictly increase from 0")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DomainError("path contains non-finite entries")
        if (v[0] != 0.0).any():
            raise DomainError("all processes start at 0")
        if self.label not in _LABELS:
            raise DomainError(f"unknown path label {self.label!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def _drawn(cls, times: np.ndarray, values: np.ndarray, label: str) -> "SamplePath":
        """A simulated path on a model's grid ``times`` (origin prepended,
        validated when the model was built, read-only) whose values start
        at 0 by construction: only the values' finiteness is checked."""
        if not np.isfinite(values).all():
            raise DomainError("path contains non-finite entries")
        path = object.__new__(cls)
        path.__dict__.update(times=times, values=values, label=label)
        return path


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Covariance description of one process on a positive time grid.

    The grid excludes 0 (where every process is deterministically 0);
    drift holds the mean function on the same grid, and chol the lower
    Cholesky factor L of the covariance matrix M.  ``covariance_model``
    and ``simulate_fbm`` build models, and check that

    - every entry of M is finite (DomainError otherwise);
    - M is symmetric to 1e-12 of its largest entry;
    - L reproduces M: ||L L^T - M||_F is at most 1e-8 ||M||_F and
      1e-10 tr(M), computed on the lower block triangle in units of
      max |M|, so that neither side overflows at a large horizon.

    So M has no eigenvalue below -1e-10 tr(M), by Weyl's inequality.  L
    is LAPACK's factor of M + b I with b <= 1e-10 tr(M)/n, whose error
    is at most b sqrt(n) plus rounding of order n eps ||M||.  Models
    compare and hash by identity.
    """

    times: np.ndarray
    drift: np.ndarray
    chol: np.ndarray

    @cached_property
    def path_times(self) -> np.ndarray:
        """The grid with the origin prepended: the ``times`` of every draw
        from this model, built once and read-only."""
        t = np.concatenate(([0.0], self.times))
        t.flags.writeable = False
        return t

    def _with_drift(self, drift: np.ndarray) -> "CovarianceModel":
        """This model with another mean, sharing the grid, ``path_times``
        and the factor, whose checks are not run again."""
        model = object.__new__(CovarianceModel)
        model.__dict__.update(self.__dict__, path_times=self.path_times, drift=drift)
        return model


def _check_matrix(m: np.ndarray) -> tuple:
    """The checks that read the whole matrix M: DomainError unless every
    entry is finite, IllConditionedError unless M is symmetric to 1e-12
    of its largest entry (each pair compared once, one row block of the
    lower block triangle at a time).  Returns the scale, the power of two
    just above max |M|, and tr(M) in its units.  The factor check
    divides M by the scale, so that no sum of its squares overflows; the
    division is exact, so below overflow it decides as on M itself."""
    top = max(float(m.max()), -float(m.min()))
    if not np.isfinite(top):
        raise DomainError("covariance matrix has a non-finite entry")
    scale = math.ldexp(1.0, math.frexp(top)[1])
    atol = 1e-12 * max(top, 1.0)
    for rows in _row_blocks(m.shape[0]):
        if not (np.abs(m[rows, :rows.stop] - m[:rows.stop, rows].T) <= atol).all():
            raise IllConditionedError("covariance matrix is not symmetric")
    return scale, float((m.diagonal() / scale).sum())


def _mirror_rows(mat: np.ndarray, diag: np.ndarray):
    """Row blocks (rows, M[rows, :rows.stop]) of the symmetric matrix M
    whose strict upper triangle ``mat`` holds and whose diagonal is
    ``diag``, read one block at a time from the column blocks above the
    diagonal; ``mat``'s lower triangle is not read."""
    for rows in _row_blocks(mat.shape[0]):
        lo = rows.start
        upper = np.triu(mat[rows, rows], 1)
        block = np.empty((upper.shape[0], rows.stop))
        block[:, :lo] = mat[:lo, rows].T
        block[:, lo:] = upper + upper.T
        np.fill_diagonal(block[:, lo:], diag[rows])
        yield rows, block


def _check_factor(mat: np.ndarray, diag: np.ndarray, scale: float, tr: float) -> None:
    """IllConditionedError unless the lower factor L that ``_factor`` left
    in ``mat`` reproduces M (see ``CovarianceModel``): M is read from the
    strict upper triangle, zeroed on the way, and ``diag``.  ``scale``
    and ``tr`` are ``_check_matrix``'s."""
    err, norm = _reconstruction_error(mat, diag, scale)
    if not err <= min(1e-8 * norm, 1e-10 * tr):
        raise IllConditionedError("factor does not reproduce the covariance")


def _reconstruction_error(mat: np.ndarray, diag: np.ndarray, scale: float) -> tuple:
    """||L L^T - M||_F and ||M||_F, both divided by ``scale`` (of
    ``_check_matrix``), for the lower factor L in the lower triangle of
    ``mat``, whose strict upper triangle holds M, of diagonal ``diag``.

    Summed over the lower block triangle, each block left of the
    diagonal counted twice for its mirror image: a third of the flops of
    the full product.  As each row block of M is read (``_mirror_rows``),
    the column block it came from is zeroed above the diagonal, so the
    product of each row block reads L alone and ``mat`` ends as L.
    """
    inv = 1.0 / scale
    err2 = norm2 = 0.0
    for rows, block in _mirror_rows(mat, diag):
        lo, hi = rows.start, rows.stop
        mat[:lo, rows] = 0.0
        mat[rows, rows] = np.tril(mat[rows, rows])
        diff = mat[rows, :hi] @ mat[:hi, :hi].T
        diff -= block
        diff *= inv
        err2 += _folded_sq(diff, lo)
        norm2 += _folded_sq(block * inv, lo)
    return float(np.sqrt(err2)), float(np.sqrt(norm2))


def _folded_sq(a: np.ndarray, lo: int) -> float:
    # a row block's squares, those left of column lo counted twice
    left, diag = a[:, :lo], a[:, lo:]
    return 2.0 * float(np.vdot(left, left)) + float(np.vdot(diag, diag))


def _positive_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise DomainError("need a finite 1-d time grid")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    if t[0] < 0.0:
        raise DomainError(f"time grid starts at {t[0]}, before 0")
    if t[0] == 0.0:
        t = t[1:]
    if t.size == 0:
        raise DomainError("need at least one strictly positive time")
    return t


def _factor(matrix: np.ndarray, diag: np.ndarray) -> None:
    """Overwrite the lower triangle of the C-ordered ``matrix``, a whole
    symmetric matrix of diagonal ``diag``, by its Cholesky factor; when
    that fails, by the factor of the matrix plus the first of 1, 10 and
    100 times 1e-12 tr/n on its diagonal that factors.

    LAPACK ``dpotrf`` factors the Fortran-ordered transpose in place as
    U^T U: U stored in Fortran order is L = U^T in C order, the layout
    the draws' ``dtrmv`` reads, so no second n x n array is made.  With
    clean=0 the strict upper triangle keeps the matrix: a failed attempt
    leaves a partial factor, and the lower triangle is restored from that
    mirror (``_mirror_rows``) before the next.
    """
    jitter = 1e-12 * np.trace(matrix) / matrix.shape[0]
    for bump in (0.0, jitter, 10.0 * jitter, 100.0 * jitter):
        if bump:
            for rows, block in _mirror_rows(matrix, diag):
                matrix[rows, :rows.stop] = block
            np.fill_diagonal(matrix, matrix.diagonal() + bump)
        if dpotrf(matrix.T, lower=0, overwrite_a=1, clean=0)[1] == 0:
            return
    raise IllConditionedError(
        "covariance factorization failed even with jitter; grid too dense "
        "or parameters too close to degeneracy"
    )


def _aligned_square(n: int) -> np.ndarray:
    """An uninitialized n x n array whose data starts on a 64-byte
    boundary.

    A fresh large array starts 16 bytes past a page, and BLAS ``dtrmv``
    reads a 512 x 512 factor 10-15 % slower there than from a 64-byte
    boundary; every draw pays that.
    """
    buf = np.empty(n * n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n * n].reshape(n, n)


_BLOCK_ROWS = 64


def _row_blocks(n: int):
    """Slices of at most ``_BLOCK_ROWS`` rows covering range(n)."""
    return (slice(r, min(r + _BLOCK_ROWS, n)) for r in range(0, n, _BLOCK_ROWS))


def _fbm_cov(h: float, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))


def _cov_key(constants: DerivedConstants, process: str) -> tuple:
    """The covariance of Y or Z."""
    h1, h2, sigma = constants.hurst.h1, constants.hurst.h2, constants.sigma
    if process == "Y":
        return ("Y", h1, h2, sigma, constants.epsilon_h1)
    if process == "Z":
        return ("Z", h1, h2, sigma)
    raise DomainError(f"unknown process {process!r}")


def _matrix(t: np.ndarray, cov: tuple) -> np.ndarray:
    """The covariance ``cov`` (a ``_cov_key`` or ("fBm", h)) on the
    positive grid t, evaluated one row block at a time into a new 64-byte
    aligned array (``_aligned_square``).  At a large horizon or sigma an
    entry overflows, and the checks refuse it as non-finite: numpy need
    not warn on the way."""
    kind, h1 = cov[0], cov[1]
    mat = _aligned_square(t.size)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind != "fBm":
            # numpy's sigma^2 has Python's bits, but is inf where that raises
            sigma2 = np.float64(cov[3]) ** 2
        if kind == "Y":
            tab, mart = get_tables(h1, cov[2]), sigma2 * cov[4]
        for rows in _row_blocks(t.size):
            ti, tj = t[rows, None], t[None, :]
            if kind == "Y":
                mat[rows] = tab.R(ti, tj) + mart * np.minimum(ti, tj) ** (2.0 - 2.0 * h1)
            elif kind == "Z":
                mat[rows] = sigma2 * _fbm_cov(h1, ti, tj) + _fbm_cov(cov[2], ti, tj)
            else:
                mat[rows] = _fbm_cov(h1, ti, tj)
    return mat


# one entry per grid and covariance: the factor, n^2 floats (2 MB at 512
# points), and O(n) more, so the cache holds at most 8 n^2 floats
@lru_cache(maxsize=8)
def _factor_cached(shape: tuple, key: bytes, cov: tuple) -> tuple:
    """The checked driftless model of ``cov`` on the grid, and the unit
    shape of its drift: t^(2-2H1) for Y, t for Z, None for fBm.  A grid
    is validated on a miss only: a rejected grid is never cached.

    One n x n array is held: the matrix is filled into its aligned
    buffer and checked while whole (``_check_matrix``), then factored
    over its lower triangle (``_factor``), checked against the matrix
    that its strict upper triangle still holds (``_check_factor``), and
    kept in that buffer.
    """
    t = _positive_times(np.frombuffer(key, dtype=float).reshape(shape))
    mat = _matrix(t, cov)
    scale, tr = _check_matrix(mat)
    diag = mat.diagonal().copy()
    _factor(mat, diag)
    _check_factor(mat, diag, scale, tr)
    model = CovarianceModel(times=t, drift=np.zeros(t.size), chol=mat)
    return model, (t ** (2.0 - 2.0 * cov[1]) if cov[0] == "Y"
                   else t if cov[0] == "Z" else None)


def _cached(times, cov: tuple) -> tuple:
    t = np.asarray(times, dtype=float)
    return _factor_cached(t.shape, t.tobytes(), cov)


def covariance_model(times, constants: DerivedConstants, process: str,
                     theta: float = 0.0) -> CovarianceModel:
    """The factorized covariance of Y or Z, with its drift.  Each process
    has one cached factor at every theta; the drift, theta b t^(2-2H1)
    for Y and theta t for Z, is formed per call."""
    # refused before any cache lookup, where each NaN is a new key
    theta = check_real("theta", theta)
    model, unit = _cached(times, _cov_key(constants, process))
    scale = theta * constants.script_b if process == "Y" else theta
    return model._with_drift(scale * unit)


def _column(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """v as a column when ``like`` holds one path per column."""
    return v.reshape(v.shape + (1,) * (like.ndim - 1))


def _draw(model: CovarianceModel, seed, label: str) -> SamplePath:
    """The lower factor applied to standard normals from ``seed``, plus
    the model's drift, as a path on the model's ``path_times``.

    A list or tuple of seeds gives one column per seed, each drawn as the
    single seed would be.  The origin and the draw are written into one
    new array.  The triangular BLAS product reads only the lower half;
    ``chol.T`` of the C-ordered factor is the Fortran-ordered upper
    factor, so it is passed in place (a C-ordered array with ``lower=1``
    would be copied on every call).
    """
    upper = model.chol.T
    n = upper.shape[0]

    def one(s, g):
        np.random.default_rng(s).standard_normal(out=g)
        return dtrmv(upper, g, lower=0, trans=1, overwrite_x=1)

    if isinstance(seed, (list, tuple)):
        if len(seed) == 0:
            raise DomainError("need at least one seed")
        out = np.empty((n + 1, len(seed)))
        g = np.empty(n)
        for j, s in enumerate(seed):
            out[1:, j] = one(s, g)
    else:
        out = np.empty(n + 1)
        out[1:] = one(seed, out[1:])
    out[0] = 0.0
    out[1:] += _column(model.drift, out)
    return SamplePath._drawn(model.path_times, out, label)


def simulate_Y(times, seed, theta: float, constants: DerivedConstants) -> SamplePath:
    """Exact draw of the transformed observation with drift theta."""
    return _draw(covariance_model(times, constants, "Y", theta), seed, "Y")


def simulate_Z(times, seed, theta: float, constants: DerivedConstants) -> SamplePath:
    """Exact draw of the raw observation theta*t + sigma*B1 + B2."""
    return _draw(covariance_model(times, constants, "Z", theta), seed, "Z")


def simulate_fbm(h: float, times, seed) -> SamplePath:
    """Exact fractional Brownian draw on an arbitrary grid: the cached
    Cholesky factor of its covariance applied to normals from ``seed``."""
    if not 0.5 < check_real("H", h) < 1.0:
        raise DomainError(f"require 1/2 < H < 1, got {h}")
    return _draw(_cached(times, ("fBm", h))[0], seed, "fBm")


# ----------------------------------------------------------------- forward

def _molchan_blocks(grid: np.ndarray, outs: np.ndarray, h1: float):
    """Row blocks of the matrix mapping segment slopes to transform
    values, as (rows, block) pairs built one at a time, so that the
    matrix (n_out x (n_grid - 1) floats, 33 MB at 2048 points) is never
    held whole.

    A segment [s_k, s_k+1] of the linear interpolant has constant slope;
    its share of the transform at t is that slope times the integral of
    (t-s)^(1/2-H1) s^(1/2-H1) over the segment clipped to [0, t], which is
    t^(2-2H1) B(p, p) [I_x_hi(p, p) - I_x_lo(p, p)] with p = 3/2-H1,
    x = min(s, t)/t and I the regularized incomplete Beta function.
    """
    below = np.searchsorted(grid, outs) - 1
    if np.any(below < _MIN_INTERIOR):
        raise AccuracyError(
            f"only {below.min()} sample points below t={outs[below.argmin()]}; "
            f"need at least {_MIN_INTERIOR} to resolve the path"
        )
    p = 1.5 - h1
    scale = beta_fn(p, p) * outs ** (2.0 - 2.0 * h1)
    for rows in _row_blocks(outs.size):
        x = np.minimum(grid[None, :], outs[rows, None]) / outs[rows, None]
        block = np.diff(betainc(p, p, x), axis=1)
        block *= scale[rows, None]
        yield rows, block


def molchan_transform(
    path: SamplePath, constants: DerivedConstants, out_times=None
) -> SamplePath:
    """Weighted-kernel transform of an observed path, or of each column.

    Integrates the kernel (t-s)^{1/2-H1} s^{1/2-H1} against the path
    increments, exactly on the piecewise-linear interpolant.  Output
    times default to every sample time deep enough into the grid to
    have 32 points below it; pass explicit ``out_times`` for a sparser
    (and faster) evaluation.  DomainError unless the path is labelled
    "Z", an observation.
    """
    if path.label != "Z":
        raise DomainError(f"molchan_transform reads an observation (label Z), "
                          f"got a {path.label!r} path")
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
        # NaN fails both comparisons, so it is rejected with the rest
        if not np.all((outs > 0.0) & (outs <= grid[-1])) or np.any(np.diff(outs) <= 0):
            raise DomainError("output times must be finite and increase within (0, horizon]")
    slopes = np.diff(path.values, axis=0) / _column(np.diff(grid), path.values)
    vals = np.zeros((outs.size + 1,) + slopes.shape[1:])
    for rows, block in _molchan_blocks(grid, outs, constants.hurst.h1):
        vals[1:][rows] = block @ slopes
    return SamplePath(times=np.concatenate(([0.0], outs)), values=vals, label="Y")


def inverse_transform(path: SamplePath, constants: DerivedConstants) -> SamplePath:
    """Recover the observation path from its transform.

    First stage: the weakly singular convolution psi(t) =
    int_0^t (t-s)^{H1-3/2} Y(s) ds, evaluated exactly on the linear
    interpolant segment by segment.  Second stage: normalize by the
    beta constant and accumulate the Stieltjes sum of u^{H1-1/2}
    against the increments of the first stage.  DomainError unless the
    path is labelled "Y", a transformed observation.
    """
    if path.label != "Y":
        raise DomainError(f"inverse_transform reads a transformed path "
                          f"(label Y), got a {path.label!r} path")
    h1 = constants.hurst.h1
    grid = path.times
    if path.values.ndim != 1:
        raise DomainError("the inverse transform takes one path, not columns")
    if grid.size - 2 < _MIN_INTERIOR:
        raise AccuracyError(
            f"path has {grid.size - 1} sample points; the inverse transform "
            f"needs at least {_MIN_INTERIOR + 1}"
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
