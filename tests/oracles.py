"""Scalar reference implementations that the shipped code is tested against.

Gauss-Jacobi rules, one panel at a time: ``jacobi_rule`` (one row of
``numerics.jacobi_panels``, from the same memoized base rule), the
adaptive ``singular_integral`` that doubles the node count until two
estimates agree, and the right-sided Riemann-Liouville integral
``frac_integral_right`` built on it.

Verbatim copies of the one-specification-at-a-time ladders that the
batched engine replaced: ``_layered_01`` (the geometric ladder on (0,1)
behind ``kernels._ladder_rule_one``) and ``_cell_moments`` (the five-branch
product-quadrature moments behind ``fredholm._cell_moments``), with
their helpers.  They loop over panels with ``jacobi_rule``,
independently of the batched panel builder, and are the references the
engine is tested against in ``test_ladder_engine.py``.  Between the two
sits ``_layered_batch``, the batched engine's first form: one full
ladder specification per integrand, laid out in chunks with
``kernels._ladder_rule``.  ``c_samples`` is the c profile's sampler
built on it, one specification per sample, the reference of the
shared-rule sampler ``KernelTables._c_samples``.

The direct kernel evaluators (``kernel_K12``, ``kernel_K12_dt``,
``kernel_k``, ``kernel_k1``, ``covariance_X2``) compute each kernel
from its defining integral in a variable-changed form with explicit
Jacobi endpoint exponents, on the scalar ladder above with
``_QUAD_N`` nodes per panel; ``k1_l2_norm`` integrates the square of
the tables' k1.  Every rule places its panels at positions proportional
to the arguments, so the evaluators satisfy the kernels' scaling laws to
float roundoff.  They are the references for ``KernelTables`` in
``test_kernels.py`` and for acceptance criteria 1 and 2.
``constant_chain`` (with its ``ConstantChain``) is the paper's
derivation of the limiting weight's normalization, one constant per
inversion step, moved verbatim from ``closed_form`` once ``h0`` took
its prefactor from one Gamma ratio: c6 Gamma(3/2-H2) / Gamma(1-H2+H1)
at C = 1/gamma^2 is the ``k`` of ``closed_form.h0``, which
``test_closed_form.py`` checks.  ``h0`` is the layered quadrature of
the limiting weight's fractional integral that the hypergeometric
formula in ``closed_form`` replaced; it is the reference of that
formula in ``test_closed_form.py``.  ``h0_weighted_integral_beta`` is
the exact Beta-function integral J of the closed-form weight, moved
from ``closed_form`` once its variance limit became the Gamma formula
V_H2, and ``h0_weighted_integral_quad`` the quadrature of the weight
that the Beta formula replaced; the quadrature checks the formula, and
1/(delta^2 J) at sigma = 1 checks V_H2 by the route through the
constant chain.

The residual audit as it ran before the per-operator audit plan is kept
verbatim below (``_kernel_integrals``, ``_nystrom_extension``,
``_extended_spline``, ``_integrals_at`` and ``_scan_residuals``): it
forms the quadrature rows and evaluates the solution's spline on every
kernel-integral node for each call, and is the reference the planned
audit is tested against in ``test_fredholm.py``.  It alone also gives
the residual on the grid and the one of the Nystrom extension
(``ResidualSups``).

Diagnostics that only tests read, moved verbatim from the package: the
operator's quadrature ``row`` at one point, its ``symmetrized`` weighted
form with ``asymmetry``, ``frobenius_norm`` and ``spectrum_report``; the
Nystrom-extended filter ``unscale``; ``quadratic_variation_N``, the
information recomputed from the nodal solution; the closed form's
cross-check ``verify_first_kind`` against the operator and the rescaled
solutions ``h_mu`` and ``limit_functional``; the model covariance
``covariance_X``; and the drift ``log_likelihood``.

``stochastic_integral_N`` is the score as it read the filter before it
took path columns: twice, once at the fine and once at the coarse
midpoints.  It is kept verbatim as the bitwise reference of the
one-read score in ``test_estimator.py``.

``simulate_Z`` is the pathwise draw of the raw observation as the
package made it before it drew Z from its factorized covariance: the
sum theta t + sigma B1 + B2 of two independent fBm draws, whose seeds
are the first two children of each seed.  It is the pathwise reference
of the Z law in ``test_gaussian_sim.py``.

``model_matrix`` and ``fbm_matrix`` are the covariance models' matrices
as they were built before the row-blocked fill: each formula broadcast
over the whole grid at once.  ``factor`` is the Cholesky with jitter as
it ran before it factored the matrix directly: it always formed
``matrix + bump * eye``.  Together they are the bitwise references of
``gaussian_sim._matrix`` and of the factors in ``_factor_cached``.
``reconstruction_error`` is the models' factor check as it ran before it
summed over the lower block triangle: the full product ``chol @ chol.T``,
one row block at a time.  It is the reference of
``gaussian_sim._reconstruction_error``.
"""
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from mixedfbm import closed_form
from mixedfbm.errors import AccuracyWarning, DomainError, IllConditionedError
from mixedfbm.fredholm import (_EVAL_OFFSETS, _EXT_OFFSETS, DiscretizedOperator,
                               FredholmSolution, QuadratureGrid, _chunks,
                               _graded_map, _graded_map_inv,
                               _offsets_in_cells, _on_horizon,
                               _quadratic_variation, _quadrature_rows,
                               _rhs_values, assemble)
from mixedfbm.gaussian_sim import SamplePath, _column, simulate_fbm
from mixedfbm.kernels import (_CHUNK_NODES, _LADDER_STEPS, DIAG_RTOL,
                              KernelContext, KernelTables, _ladder_rule,
                              _ladder_rule_one, get_tables)
from mixedfbm.model import DerivedConstants, check_real
from mixedfbm.numerics import KnotSpline, _base_rule, beta_fn, gamma_fn

# ----------------------------------------------------------------------
# Gauss-Jacobi rules, one panel at a time
# ----------------------------------------------------------------------

MAX_DOUBLINGS_CAP = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for a weighted rule on ``interval``.

    The weights absorb the algebraic factor, i.e.

        sum_i w_i f(x_i)  ~  int_a^b f(x) (x-a)^p (b-x)^q dx,

    exact whenever f is a polynomial of degree <= 2n-1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    p: float
    q: float
    interval: tuple[float, float]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))

    def __iter__(self):
        # supports ``x, w = jacobi_rule(...)``
        yield self.nodes
        yield self.weights


def jacobi_rule(n: int, p: float, q: float, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-point Gauss-Jacobi rule for ``int_a^b f(x)(x-a)^p(b-x)^q dx``.

    Parameters
    ----------
    n : number of nodes (>= 1).
    p, q : endpoint exponents at a and b, each > -1.
    a, b : interval, a < b.
    """
    if n < 1:
        raise DomainError(f"jacobi_rule needs n >= 1, got {n}")
    if p <= -1.0 or q <= -1.0:
        raise DomainError(f"endpoint exponents must exceed -1, got p={p}, q={q}")
    if not (b > a):
        raise DomainError(f"empty interval [{a}, {b}]")
    t, w = _base_rule(int(n), float(p), float(q))
    half = 0.5 * (b - a)
    nodes = a + half * (t + 1.0)
    weights = w * half ** (p + q + 1.0)
    return QuadratureRule(nodes=nodes, weights=weights, p=p, q=q, interval=(a, b))


def singular_integral(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    p: float = 0.0,
    q: float = 0.0,
    n0: int = 16,
    rtol: float = 1e-10,
    n_cap: int = MAX_DOUBLINGS_CAP,
) -> float:
    """Adaptive Gauss-Jacobi evaluation of ``int_a^b f(x)(x-a)^p(b-x)^q dx``.

    Doubles the node count from n0 until two successive estimates agree to
    relative tolerance rtol or the cap is hit; in the latter case the last
    estimate is returned and an AccuracyWarning is emitted.
    """
    n = max(int(n0), 2)
    prev = jacobi_rule(n, p, q, a, b).apply(f)
    while n < n_cap:
        n = min(2 * n, n_cap)
        cur = jacobi_rule(n, p, q, a, b).apply(f)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    warnings.warn(
        f"singular_integral did not converge to rtol={rtol} at n_cap={n_cap}",
        AccuracyWarning,
        stacklevel=2,
    )
    return prev


def frac_integral_right(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    v: float,
    rtol: float = 1e-10,
    q: float = 0.0,
) -> float:
    """Right-sided Riemann-Liouville integral on [v, 1].

    (I^alpha_{1-} f)(v) = Gamma(alpha)^{-1} int_v^1 f(t) (t-v)^{alpha-1} dt.

    When f behaves like (1-t)^q near t=1, declaring q moves that factor
    into the Gauss-Jacobi weight; otherwise the node doubling converges
    only algebraically there.
    """
    if alpha <= 0.0:
        raise DomainError(f"fractional order must be positive, got {alpha}")
    if not (0.0 <= v < 1.0):
        raise DomainError(f"evaluation point must lie in [0, 1), got {v}")
    if q == 0.0:
        g = f
    else:
        g = lambda t: f(t) * (1.0 - t) ** (-q)
    val = singular_integral(g, v, 1.0, p=alpha - 1.0, q=q, rtol=rtol)
    return val / gamma_fn(alpha)


# ----------------------------------------------------------------------
# layered ladder on (0, 1)
# ----------------------------------------------------------------------

def _ladder_edges(z0: float) -> list:
    """Geometric breakpoints 0, z0, 2 z0, ... capped at 1/2."""
    z0 = min(max(z0, 1e-12), 0.25)
    edges = [0.0, z0]
    while edges[-1] < 0.5:
        edges.append(min(edges[-1] * 2.0, 0.5))
    return edges


def _layered_01(f, p: float, q: float, n: int,
                z_left: float | None = None,
                z_right: float | None = None) -> float:
    """Integrate z^p (1-z)^q f(z) over (0,1) with endpoint-aware panels.

    f must accept numpy arrays and is assumed free of endpoint blow-up of
    its own, but may have boundary layers or Holder kinks near the ends:
    z_left (z_right) declares the scale at 0 (at 1) from which the mesh
    is refined geometrically outward.  None places a single Jacobi panel
    on that half.
    """
    if z_left is None and z_right is None:
        nodes, weights = jacobi_rule(n, p, q, 0.0, 1.0)
        return float(np.dot(weights, f(nodes)))

    total = 0.0
    # left half (0, 1/2]
    if z_left is not None:
        edges = _ladder_edges(z_left)
        x, w = jacobi_rule(n, p, 0.0, edges[0], edges[1])
        total += np.dot(w, (1.0 - x) ** q * f(x))
        for lo, hi in zip(edges[1:-1], edges[2:]):
            x, w = jacobi_rule(n, 0.0, 0.0, lo, hi)
            total += np.dot(w, x ** p * (1.0 - x) ** q * f(x))
    else:
        x, w = jacobi_rule(n, p, 0.0, 0.0, 0.5)
        total += np.dot(w, (1.0 - x) ** q * f(x))

    # right half [1/2, 1), mirrored through z -> 1-z
    if z_right is not None:
        edges = _ladder_edges(z_right)
        x, w = jacobi_rule(n, q, 0.0, edges[0], edges[1])
        z = 1.0 - x
        total += np.dot(w, z ** p * f(z))
        for lo, hi in zip(edges[1:-1], edges[2:]):
            x, w = jacobi_rule(n, 0.0, 0.0, lo, hi)
            z = 1.0 - x
            total += np.dot(w, z ** p * x ** q * f(z))
    else:
        x, w = jacobi_rule(n, 0.0, q, 0.5, 1.0)
        total += np.dot(w, x ** p * f(x))
    return float(total)


def _layered_batch(f, p: float, q: float, n: int, z_left, z_right) -> np.ndarray:
    """Layered integrals of many integrands, one per ladder specification.

    f(z, i) evaluates the integrands at nodes z of shape (panels, n),
    integrand i[k] on row k (i has shape (panels, 1)).  The
    specifications are taken in chunks of at most ``_CHUNK_NODES``
    nodes; each chunk evaluates its integrand once, sums it per panel
    and then per specification.
    """
    zl, zr = np.broadcast_arrays(np.atleast_1d(np.asarray(z_left, float)),
                                 np.atleast_1d(np.asarray(z_right, float)))
    out = np.empty(zl.size)
    step = max(1, _CHUNK_NODES // (2 * (_LADDER_STEPS + 1) * n))
    for s0 in range(0, zl.size, step):
        sl = slice(s0, s0 + step)
        z, w, seg = _ladder_rule(p, q, n, zl[sl], zr[sl])
        panels = (w * f(z, seg[:, None] + s0)).sum(axis=1)
        out[sl] = np.bincount(seg, weights=panels, minlength=zl[sl].size)
    return out


def c_samples(tables: KernelTables, x: np.ndarray) -> np.ndarray:
    """Samples of the c profile, one full ladder specification per sample,
    as ``KernelTables`` built them before the shared rule."""
    # Phi(x) = int_0^1 w^(1-2h2) (1-w)^(a-1) (1-wx)^(a-1)
    #          psi(w) psi(wx) dw;  c(x) = (1-x)^(1-2a) Phi(x).
    # Layers: psi's Holder kink spreads from w=0 (dyadic ladder) and
    # the (1-wx) factor varies on the scale (1-x)/x near w=1.
    a, psi = tables.a, tables.psi_d

    def fsm(w: np.ndarray, i: np.ndarray) -> np.ndarray:
        xi = x[i]
        return (1.0 - w * xi) ** (a - 1.0) * psi(w) * psi(w * xi)

    zr = np.where(x > 0.5, np.maximum((1.0 - x) / x, 1e-10), 1e-10)
    phi = _layered_batch(fsm, 1.0 - 2.0 * tables.h2, a - 1.0, 24, 1e-10, zr)
    return (1.0 - x) ** (1.0 - 2.0 * a) * phi


# ----------------------------------------------------------------------
# direct kernel evaluators
# ----------------------------------------------------------------------

# nodes per panel of the evaluators' ladders
_QUAD_N = 64


def _check_ts(t: float, s: float, strict: bool = False) -> None:
    if s <= 0.0:
        raise DomainError(f"require s > 0, got s={s}")
    if strict and s >= t:
        raise DomainError(f"require s < t, got t={t}, s={s}")
    if not strict and s > t:
        raise DomainError(f"require s <= t, got t={t}, s={s}")


@lru_cache(maxsize=1 << 18)
def kernel_K12(ctx: KernelContext, t: float, s: float) -> float:
    """Volterra kernel of the transformed second fBm.

    Evaluated in the substituted form on (0,1) with Jacobi exponents
    (h2-3/2) at z=0 and (1/2-h1) at z=1; the remaining factor
    (s+(t-s)z)^(h2-h1) varies on the scale z ~ s/(t-s), which sets the
    panel grading.
    """
    _check_ts(t, s)
    if s == t:
        return 0.0
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    d = t - s
    f = lambda z: (s + d * z) ** a
    val = _layered_01(f, h2 - 1.5, 0.5 - h1, _QUAD_N,
                      z_left=s / d if s < d / 4.0 else None)
    return ctx.constants.beta_h2 * s ** (0.5 - h2) * d ** a * val


@lru_cache(maxsize=1 << 18)
def kernel_K12_dt(ctx: KernelContext, t: float, s: float) -> float:
    """t-derivative of kernel_K12; requires s < t (singular on the diagonal).

    d_tK(t,s) = (h2-h1) [ K(t,s)/(t-s)
                 + beta_{h2} s^(1/2-h2) (t-s)^(h2-h1) J(t,s) ],
    J = int_0^1 (1-z)^(1/2-h1) z^(h2-1/2) (s+(t-s)z)^(h2-h1-1) dz.
    Nonnegative on its domain.
    """
    _check_ts(t, s, strict=True)
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    d = t - s
    f = lambda z: (s + d * z) ** (a - 1.0)
    J = _layered_01(f, h2 - 0.5, 0.5 - h1, _QUAD_N,
                    z_left=s / d if s < d / 4.0 else None)
    k = kernel_K12(ctx, t, s)
    return a * (k / d + ctx.constants.beta_h2 * s ** (0.5 - h2) * d ** a * J)


def _dK12_vals(ctx: KernelContext, t: float, v: np.ndarray) -> np.ndarray:
    return np.array([kernel_K12_dt(ctx, t, float(vi)) for vi in v])


def kernel_k(ctx: KernelContext, s: float, u: float) -> float:
    """k(s,u) = int_0^{min(s,u)} d_sK(s,v) d_uK(u,v) dv, straight from the
    defining integral (the cached fast path lives in KernelTables).

    Symmetric, nonnegative, homogeneous of degree 2h2-4h1; diverges like
    |u-s|^(2(h2-h1)-1) on the diagonal, where the clamp rule applies.
    """
    if s <= 0.0 or u <= 0.0:
        raise DomainError(f"require s, u > 0, got s={s}, u={u}")
    lo, hi = (s, u) if s <= u else (u, s)
    if hi - lo < DIAG_RTOL * hi:
        lo = hi * (1.0 - DIAG_RTOL)
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    n = max(24, _QUAD_N // 2)
    delta = hi - lo
    total = 0.0

    # (0, lo/2): both derivative factors behave like v^(1/2-h2)
    x, w = jacobi_rule(n, 1.0 - 2.0 * h2, 0.0, 0.0, lo / 2.0)
    g = _dK12_vals(ctx, lo, x) * _dK12_vals(ctx, hi, x) * x ** (2.0 * h2 - 1.0)
    total += float(np.dot(w, g))

    # (lo/2, lo): geometric refinement toward v=lo when u sits close
    # (the hi-side factor varies on the scale hi-lo there)
    inner = [lo / 2.0]
    if delta < lo / 4.0:
        width = 2.0 * delta
        while lo - width > lo / 2.0:
            inner.append(lo - width)
            width *= 2.0
        inner = inner[:1] + sorted(inner[1:])
    for lo_e, hi_e in zip(inner[:-1], inner[1:]):
        x, w = jacobi_rule(n, 0.0, 0.0, lo_e, hi_e)
        total += float(np.dot(w, _dK12_vals(ctx, lo, x) * _dK12_vals(ctx, hi, x)))

    # final panel: Jacobi exponent a-1 at v=lo; the lo-side factor times
    # (lo-v)^(1-a) extends continuously to the endpoint
    x, w = jacobi_rule(n, 0.0, a - 1.0, inner[-1], lo)
    g = _dK12_vals(ctx, lo, x) * (lo - x) ** (1.0 - a) * _dK12_vals(ctx, hi, x)
    total += float(np.dot(w, g))
    return total


def kernel_k1(ctx: KernelContext, s: float, u: float) -> float:
    """Solver kernel k1(s,u) = (su)^(h1-1/2) k(s,u); symmetric.

    Near-diagonal calls (|u-s| < 1e-8 max(u,s)) clamp the separation at
    the threshold, consistent with the |u-s|^(2(h2-h1)-1) diagonal
    exponent; the Nystrom assembly never places evaluations there.
    """
    if s <= 0.0 or u <= 0.0:
        raise DomainError(f"require s, u > 0, got s={s}, u={u}")
    return (s * u) ** (ctx.h1 - 0.5) * kernel_k(ctx, s, u)


def covariance_X2(ctx: KernelContext, t: float, s: float) -> float:
    """R(t,s) = int_0^{min} K12(t,v) K12(s,v) dv, the covariance of the
    transformed second fBm, in the graded single-integral product form.
    The weighted double integral over the fBm covariance density is the
    oracle for this routine in the tests.
    """
    if t < 0.0 or s < 0.0:
        raise DomainError(f"require t, s >= 0, got t={t}, s={s}")
    lo, hi = (s, t) if s <= t else (t, s)
    if lo == 0.0:
        return 0.0
    h1, h2 = ctx.h1, ctx.h2
    a = h2 - h1
    n = _QUAD_N

    def k12_vals(tt: float, v: np.ndarray) -> np.ndarray:
        return np.array([kernel_K12(ctx, tt, float(vi)) for vi in v])

    # (0, lo/2): Jacobi panel on the innermost scale, then a dyadic
    # ladder; the Holder corrections of the profiles spread from v=0
    total = 0.0
    edges = lo * np.unique(_ladder_edges(1e-9))
    x, w = jacobi_rule(n, 1.0 - 2.0 * h2, 0.0, 0.0, edges[1])
    g = k12_vals(lo, x) * k12_vals(hi, x) * x ** (2.0 * h2 - 1.0)
    total += float(np.dot(w, g))
    for lo_e, hi_e in zip(edges[1:-1], edges[2:]):
        x, w = jacobi_rule(n, 0.0, 0.0, lo_e, hi_e)
        total += float(np.dot(w, k12_vals(lo, x) * k12_vals(hi, x)))

    expo = 2.0 * a if hi == lo else a
    x, w = jacobi_rule(n, 0.0, expo, lo / 2.0, lo)
    g = k12_vals(lo, x) / (lo - x) ** a
    g = g * g if hi == lo else g * k12_vals(hi, x)
    total += float(np.dot(w, g))
    return total


def k1_l2_norm(tables: KernelTables, n: int = 96) -> float:
    """L2(0,1)^2 norm of k1, reduced to a 1D integral of c(x)^2.

    Substituting s = ux in the inner integral gives
    ||k1||^2 = (1/(2a)) int_0^1 x^(1-2h1) (1-x)^(4a-2) c(x)^2 dx,
    finite precisely when a > 1/4 (the solver admissibility gate).
    """
    if 4.0 * tables.a - 2.0 <= -1.0:
        raise DomainError(
            f"k1 is not square integrable for h2-h1={tables.a} <= 1/4")
    val = _layered_01(lambda x: tables.c(x) ** 2,
                      1.0 - 2.0 * tables.h1, 4.0 * tables.a - 2.0, n,
                      z_left=1e-9, z_right=1e-9) / (2.0 * tables.a)
    return float(np.sqrt(val))


@dataclass(frozen=True)
class ConstantChain:
    """Normalization constants of the closed-form limiting weight.

    ``c`` is the coefficient in front of the integral operator in the
    defining equation u^{1/2-H1} = c (K h)(u), so the solution and every
    constant from ``c3`` on scale like 1/c.  ``c1`` and ``c2`` collect the
    factors picked up when the outer kernel layer is integrated out,
    ``c3`` and ``c4`` come from differentiating the resulting power laws,
    and ``c5``, ``c6`` absorb the inner layer; ``c6`` multiplies the final
    fractional integral.
    """

    c: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float


def constant_chain(C: float, constants: DerivedConstants) -> ConstantChain:
    """Evaluate the normalization chain for operator coefficient ``C``.

    Parameters
    ----------
    C : float
        Positive coefficient of the operator in the defining equation.
    constants : DerivedConstants
        Model constants; only the Hurst pair and the kernel scale of the
        rougher component enter.

    Returns
    -------
    ConstantChain
        All six constants.  ``c1``, ``c2`` are proportional to ``C``;
        ``c3`` through ``c6`` to ``1/C``.
    """
    check_real("chain coefficient C", C, positive=True)
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    b2 = constants.beta_h2
    c1 = C * (2.0 - 2.0 * h1)
    c2 = c1 * b2 * gamma_fn(1.5 - h1)
    c3 = gamma_fn(3.0 - 2.0 * h1) / (gamma_fn(1.5 - h1) * c2)
    c4 = c3 * gamma_fn(1.5 - h2) / (gamma_fn(h2 - 0.5) * gamma_fn(2.0 - 2.0 * h2))
    c5 = c4 / (b2 * gamma_fn(1.5 - h1))
    c6 = c5 / (gamma_fn(h2 - 0.5) * gamma_fn(1.5 - h2))
    return ConstantChain(c=float(C), c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6)


def h0_weighted_integral_beta(constants: DerivedConstants) -> float:
    """Weighted integral of the limiting weight: int_0^1 h0(u) u^{1/2-H1} du.

    Exchanging the order of integration in the fractional integral of
    ``h0`` (alpha = H1 - 1/2) integrates u^{1-2H1} (t-u)^{alpha-1} over
    (0, t) to B(2-2H1, alpha) t^{1/2-H1}.  Against the profile
    t^{H1-H2} (1-t)^{1/2-H2} the t-integral is a Beta function too, and
    Gamma(alpha) cancels: J = c6 Gamma(2-2H1) / Gamma(3/2-H1)
    B(3/2-H2, 3/2-H2).  No sigma enters J; the weighted integrals of the
    rescaled solutions (``limit_functional``) reach sigma^2 J, and
    1/(delta^2 J) = sigma^2 V_H2 with delta = ``delta_paper``.
    """
    h1, h2 = constants.hurst.h1, constants.hurst.h2
    c6 = constant_chain(1.0 / constants.gamma_h1**2, constants).c6
    return float(c6 * gamma_fn(2.0 - 2.0 * h1) / gamma_fn(1.5 - h1)
                 * beta_fn(1.5 - h2, 1.5 - h2))


def h0_weighted_integral_quad(constants: DerivedConstants) -> float:
    """int_0^1 h0(u) u^(1/2-H1) du by quadrature of the closed-form h0.

    The layered rule that computed the weighted integral before its
    Beta-function formula, ``h0_weighted_integral_beta``, unchanged: near
    zero the integrand carries the two branches u^(1/2-H2) and u^(1-2H1),
    of which the stronger goes into the rule's weight, near one it behaves
    like (1-u)^(H1-H2), and the bounded remainder is integrated on
    geometric ladders of scale 1e-9 at both ends, with 24 nodes per panel.
    """
    h1, h2 = constants.hurst.h1, constants.hurst.h2
    p = min(0.5 - h2, 1.0 - 2.0 * h1)
    q = h1 - h2
    z, w = _ladder_rule_one(p, q, 24, 1e-9, 1e-9)
    bounded = (np.asarray(closed_form.h0(z, constants)) * z ** (0.5 - h1 - p)
               * (1.0 - z) ** (-q))
    return float(np.dot(w, bounded))


def h0(v, constants: DerivedConstants, C: float | None = None):
    """The closed-form limiting weight by quadrature of its fractional
    integral, as ``closed_form.h0`` computed it before its hypergeometric
    formula, unchanged.

    h0(v) = c6 v^(1/2-H1) (I^(H1-1/2)_(1-) g)(v), g(t) = t^(H1-H2)
    (1-t)^(1/2-H2).  The interval [v, 1] is mapped onto (0, 1), which
    turns the kernel endpoint and the right-end weight into a fixed
    Jacobi pair and the remaining power into a bounded factor whose
    short-scale variation near small v is declared to a geometric ladder,
    one per point, all points in one ``_layered_batch``.
    """
    h1 = constants.hurst.h1
    h2 = constants.hurst.h2
    if C is None:
        C = 1.0 / constants.gamma_h1**2
    c6 = constant_chain(C, constants).c6
    arr = np.asarray(v, dtype=float)
    alpha = h1 - 0.5
    q_right = 0.5 - h2
    flat = arr.reshape(-1)
    # t = v + (1 - v) x; the profile varies on scale x ~ v, one ladder per v
    vals = (1.0 - flat) ** (alpha + q_right) * _layered_batch(
        lambda x, i: (flat[i] + (1.0 - flat[i]) * x) ** (h1 - h2),
        alpha - 1.0, q_right, 24, np.clip(flat / (1.0 - flat), 1e-12, 0.4),
        np.nan,
    )
    out = (c6 / gamma_fn(alpha) * flat ** (0.5 - h1) * vals).reshape(arr.shape)
    return float(out) if np.ndim(v) == 0 else out


# ----------------------------------------------------------------------
# near-field cell moments
# ----------------------------------------------------------------------

_CELL_ORDER = 4     # Gauss nodes per mesh cell
_NQ_PANEL = 12      # nodes per panel inside the moment engine
_MAX_PANELS = 30    # dyadic refinement depth toward a singular point


def _lagrange_basis(cell_nodes: np.ndarray, s) -> np.ndarray:
    """All four Lagrange basis polynomials of a cell, shape (4, len(s))."""
    s = np.asarray(s, float)
    out = np.empty((_CELL_ORDER, s.size))
    for i in range(_CELL_ORDER):
        num = np.ones_like(s)
        den = 1.0
        for k in range(_CELL_ORDER):
            if k == i:
                continue
            num *= s - cell_nodes[k]
            den *= cell_nodes[i] - cell_nodes[k]
        out[i] = num / den
    return out


def _breaks_toward_right(a: float, b: float, k: int) -> list:
    """k dyadic breakpoints refining toward b, returned ascending."""
    w = b - a
    return [b - w * 0.5 ** j for j in range(1, k + 1)]


def _breaks_toward_left(a: float, b: float, k: int) -> list:
    w = b - a
    return [a + w * 0.5 ** j for j in range(k, 0, -1)]


def _cell_moments(tables: KernelTables, u: float, left: float, right: float,
                  cell_nodes: np.ndarray) -> np.ndarray:
    """Moments of the reduced symmetric kernel over one mesh cell.

    Returns the 4-vector of integrals over [left, right] of

        lo^p0 * |u - s|^qd * c(lo/hi) * ell_i(s),   lo = min(s,u), hi = max(s,u)

    against the cell's Lagrange basis ell_i, where p0 = 1 - 2*H1 and
    qd = 2*(H2 - H1) - 1 are both in (-1, 0).  The gap factor is the
    hard part: it peaks at whichever cell edge (or interior point) is
    closest to u, so every branch lays dyadic panels toward that point
    and hands the final panel to a Gauss-Jacobi rule with the exponent
    declared.  The profile c has a mild kink at argument 1, covered by
    the same refinement.
    """
    h1 = tables.h1
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (tables.h2 - h1) - 1.0
    c = tables.c
    mom = np.zeros(_CELL_ORDER)
    width = right - left

    def add(x, wq, fvals):
        nonlocal mom
        mom = mom + fvals @ wq

    if u >= right * (1.0 - 1e-15):
        # gap factor peaks at the right edge
        d = max(u - right, 0.0)
        if d <= width * 2.0 ** -50:
            # u machine-coincident with the edge: declare (u-s)^qd there;
            # the ratio ((u-s)/(right-s))^qd is smooth and O(1)
            br = _breaks_toward_right(left, right, _MAX_PANELS)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue  # subnormal panel width
                if B == right:
                    x, wq = jacobi_rule(_NQ_PANEL, 0.0, qd, A, B)
                    f = x ** p0 * c(x / u) * ((u - x) / (right - x)) ** qd \
                        * _lagrange_basis(cell_nodes, x)
                else:
                    pp = p0 if (left == 0.0 and A == left) else 0.0
                    x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                    f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
                    if pp == 0.0:
                        f = f * x ** p0
                add(x, wq, f)
        else:
            # u beyond the edge: boundary layer of width d, no true
            # singularity; ladder depth follows the layer
            k = min(_MAX_PANELS, max(1, int(np.ceil(np.log2(width / d))) + 3))
            br = _breaks_toward_right(left, right, k)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                pp = p0 if (left == 0.0 and A == left) else 0.0
                x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
                if pp == 0.0:
                    f = f * x ** p0
                add(x, wq, f)
    elif u <= left * (1.0 + 1e-15):
        # mirrored: gap factor peaks at the left edge
        d = max(left - u, 0.0)
        if d <= width * 2.0 ** -50:
            br = _breaks_toward_left(left, right, _MAX_PANELS)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                if A == left:
                    x, wq = jacobi_rule(_NQ_PANEL, qd, 0.0, A, B)
                    f = u ** p0 * c(u / x) * ((x - u) / (x - left)) ** qd \
                        * _lagrange_basis(cell_nodes, x)
                else:
                    x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                    f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
                add(x, wq, f)
        else:
            k = min(_MAX_PANELS, max(1, int(np.ceil(np.log2(width / d))) + 3))
            br = _breaks_toward_left(left, right, k)
            segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
            for A, B in segs:
                if B <= A:
                    continue
                x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
                add(x, wq, f)
    else:
        # u interior to the cell: split there, refine from both sides
        br = _breaks_toward_right(left, u, _MAX_PANELS)
        segs = [(left, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], u)]
        for A, B in segs:
            if B <= A:
                continue
            pp = p0 if (left == 0.0 and A == left) else 0.0
            if B == u:
                x, wq = jacobi_rule(_NQ_PANEL, pp, qd, A, B)
                f = c(x / u) * _lagrange_basis(cell_nodes, x)
            else:
                x, wq = jacobi_rule(_NQ_PANEL, pp, 0.0, A, B)
                f = (u - x) ** qd * c(x / u) * _lagrange_basis(cell_nodes, x)
            if pp == 0.0:
                f = f * x ** p0
            add(x, wq, f)
        br = _breaks_toward_left(u, right, _MAX_PANELS)
        segs = [(u, br[0])] + list(zip(br[:-1], br[1:])) + [(br[-1], right)]
        for A, B in segs:
            if B <= A:
                continue
            if A == u:
                x, wq = jacobi_rule(_NQ_PANEL, qd, 0.0, A, B)
                f = u ** p0 * c(u / x) * _lagrange_basis(cell_nodes, x)
            else:
                x, wq = jacobi_rule(_NQ_PANEL, 0.0, 0.0, A, B)
                f = u ** p0 * (x - u) ** qd * c(u / x) * _lagrange_basis(cell_nodes, x)
            add(x, wq, f)
    return mom


# ----------------------------------------------------------------------
# residual audit, per call
# ----------------------------------------------------------------------

def _kernel_integrals(tables: KernelTables, us: np.ndarray, phi: Callable,
                      nq: int = 24) -> np.ndarray:
    """int_0^1 k_sym(s, u) phi(s) ds at each point u of us, for bounded phi.

    Split at s = u; each piece is an endpoint-singular integral in a
    stretched variable handled by the layered Gauss/Gauss-Jacobi rule.
    Both rules have ladder scale 1e-9 at either end, so their nodes are
    the same for every u: phi is evaluated on blocks of _CHUNK_POINTS
    points times all nodes.
    """
    h1, h2 = tables.h1, tables.h2
    p0 = 1.0 - 2.0 * h1
    qd = 2.0 * (h2 - h1) - 1.0
    c = tables.c
    zl, wl = _ladder_rule_one(p0, qd, nq, 1e-9, 1e-9)
    zr, wr = _ladder_rule_one(qd, 0.0, nq, 1e-9, 1e-9)
    c_left = c(zl)
    out = np.empty(us.size)
    for sl in _chunks(us.size):
        u = us[sl, None]
        s = u + (1.0 - u) * zr
        left = (c_left * phi(u * zl)) @ wl
        right = (c(u / s) * phi(s)) @ wr
        u = us[sl]
        out[sl] = u ** (2.0 + qd - 2.0 * h1) * left + np.where(
            u < 1.0, u ** p0 * (1.0 - u) ** (qd + 1.0) * right, 0.0)
    return out


def _nystrom_extension(op: DiscretizedOperator, lam: float, T: float,
                       h_hat: np.ndarray, us: np.ndarray) -> np.ndarray:
    """h_hat(u) = rhs(u) - lam * row(u) . h_hat at each point u of us."""
    applied = np.empty(us.size)
    for sl in _chunks(us.size):
        applied[sl] = _quadrature_rows(op.tables, op.grid, us[sl]) @ h_hat
    return _rhs_values(us, T, op.tables.h1) - lam * applied


def _extended_spline(op: DiscretizedOperator, lam: float, T: float,
                     h_hat: np.ndarray) -> KnotSpline:
    """Spline through nodal and freshly extended samples of the solution.

    Works in the bounded variable phi(u) = h_hat(u) * u^(H1 - 1/2) and
    in the mesh pre-image coordinate, where the endpoint behavior of
    the solution is mildest.
    """
    grid = op.grid
    extra_x = _offsets_in_cells(grid, _EXT_OFFSETS)
    extra_u = _graded_map(extra_x)
    ext = _nystrom_extension(op, lam, T, h_hat, extra_u)
    hpow = op.tables.h1 - 0.5
    xs = np.concatenate([grid.x_nodes, extra_x])
    vals = np.concatenate([h_hat * grid.nodes ** hpow, ext * extra_u ** hpow])
    order = np.argsort(xs)
    return KnotSpline(xs[order], vals[order])


def _integrals_at(op: DiscretizedOperator, us: np.ndarray,
                  spline: KnotSpline) -> np.ndarray:
    """int_0^1 k1(s, u) * h_rec(s) ds at each point u of us, for the
    reconstructed solution."""
    phi = lambda s: spline(_graded_map_inv(np.asarray(s, float)))
    return us ** (op.tables.h1 - 0.5) * _kernel_integrals(op.tables, us, phi)


class ResidualSups(NamedTuple):
    """The per-call audit's residuals.

    reconstruction_sup and worst_u as in ``fredholm.ResidualReport``;
    on_grid_sup: the same functional evaluated at the collocation nodes;
    extension_sup: the off-grid residual with the point value taken from
    the Nystrom extension formula instead of the spline, which measures
    pure quadrature consistency and is comparable to on_grid_sup.
    """

    reconstruction_sup: float
    on_grid_sup: float
    extension_sup: float
    worst_u: float


def _scan_residuals(op: DiscretizedOperator, lam: float, T: float,
                    h_hat: np.ndarray, rhs: np.ndarray,
                    spline: KnotSpline) -> ResidualSups:
    grid = op.grid
    h1 = op.tables.h1
    ev_x = _offsets_in_cells(grid, _EVAL_OFFSETS)
    ev_u = _graded_map(ev_x)
    rhs_u = _rhs_values(ev_u, T, h1)
    integral = lam * _integrals_at(op, ev_u, spline)
    rec_val = spline(ev_x) * ev_u ** (0.5 - h1)
    rec = np.abs(rec_val + integral - rhs_u) / rhs_u
    nys_val = _nystrom_extension(op, lam, T, h_hat, ev_u)
    ext = np.abs(nys_val + integral - rhs_u) / rhs_u
    on = np.abs(h_hat + lam * _integrals_at(op, grid.nodes, spline) - rhs) / rhs
    worst = int(np.argmax(rec))
    return ResidualSups(reconstruction_sup=float(rec[worst]),
                        on_grid_sup=float(np.max(on)),
                        extension_sup=float(np.max(ext)),
                        worst_u=float(ev_u[worst]))


# ----------------------------------------------------------------------
# operator diagnostics, the Nystrom filter and the information
# ----------------------------------------------------------------------

def row(op: DiscretizedOperator, u: float) -> np.ndarray:
    """Quadrature row at an arbitrary point u in (0, 1].

    At a grid node this reproduces the matching matrix row exactly,
    so Nystrom interpolation is consistent with the solve.
    """
    if not 0.0 < u <= 1.0:
        raise DomainError(f"collocation point must lie in (0, 1], got {u}")
    return _quadrature_rows(op.tables, op.grid, np.array([u], float))[0]


def symmetrized(op: DiscretizedOperator) -> np.ndarray:
    """Symmetric part of D^(1/2) * matrix * D^(-1/2), D = diag(weights).

    The similarity transform makes the quadrature form self-adjoint;
    its symmetric part carries the spectrum used for positivity and
    norm diagnostics.
    """
    rw = np.sqrt(op.grid.weights)
    s = rw[:, None] * op.matrix / rw[None, :]
    return 0.5 * (s + s.T)


def asymmetry(op: DiscretizedOperator) -> float:
    """Relative sup-norm asymmetry of the weighted form.

    Product quadrature treats the two arguments of the kernel
    asymmetrically near the diagonal, so this is O(percent) by
    design; the far field agrees to roundoff.
    """
    rw = np.sqrt(op.grid.weights)
    s = rw[:, None] * op.matrix / rw[None, :]
    return float(np.max(np.abs(s - s.T)) / np.max(np.abs(s)))


def frobenius_norm(op: DiscretizedOperator) -> float:
    """Frobenius norm of the symmetrized form; estimates ||k1||_L2."""
    return float(np.linalg.norm(symmetrized(op), "fro"))


def spectrum_report(op: DiscretizedOperator) -> np.ndarray:
    """Eigenvalues of the symmetrized weighted operator, descending.

    The continuous operator is compact, self-adjoint and nonnegative,
    so the discrete spectrum should be nonnegative and decay to zero;
    this report is the diagnostic used in place of a hard uniqueness
    claim for exceptional horizons.
    """
    eig = np.linalg.eigvalsh(symmetrized(op))
    return eig[::-1]


def unscale(sol: FredholmSolution) -> Callable:
    """Filter h_T on (0, T] from the rescaled solution.

    h_T(t) = h_hat(t/T) * t^(H1 - 1/2), with h_hat between nodes given
    by the Nystrom extension

        h_hat(u) = rhs(u) - lam * sum_j row(u)_j * h_hat_j,

    which reproduces the nodal values exactly at grid images.

    Returns
    -------
    callable
        Accepts a scalar or array t; raises DomainError outside (0, T].
    """
    op, T = sol.operator, sol.horizon_T

    def values(t, u):
        h_hat = _nystrom_extension(op, sol.lam, T, sol.h_hat, np.atleast_1d(u))
        return h_hat.reshape(np.shape(u)) * t ** (op.tables.h1 - 0.5)

    return _on_horizon(T, values)


def quadratic_variation_N(sol: FredholmSolution,
                          constants: DerivedConstants) -> float:
    """Information <N>(T): variance of the estimator's Gaussian kernel.

    Strictly positive for a valid solution; nonpositive values raise
    AccuracyError as a solver failure.
    """
    return _quadratic_variation(sol.grid, sol.h_hat, sol.horizon_T, constants)


# ----------------------------------------------------------------------
# the closed form against the operator and the rescaled solutions
# ----------------------------------------------------------------------

class FirstKindReport(NamedTuple):
    """Nodal agreement between the closed form and the kernel operator."""

    max_rel_residual: float
    ratio_mean: float
    ratio_spread: float
    nodes_used: int


def verify_first_kind(
    constants: DerivedConstants, grid: QuadratureGrid
) -> FirstKindReport:
    """Cross-check the closed-form weight against the discretized operator.

    Applies the product-quadrature matrix of K to nodal values of the
    default-normalized h0 and compares with gamma^2 u^{1/2-H1} on nodes
    inside [0.1, 0.9]; the outermost graded cells are excluded because
    the discrete rows are least accurate there.

    Returns
    -------
    FirstKindReport
        Worst relative residual, plus mean and spread of the ratio
        (K h0)(u) / (gamma^2 u^{1/2-H1}).  The spread is scale-free: it
        tests the shape regardless of any normalization convention.
    """
    constants.hurst.require_solver_admissible()
    ctx = KernelContext(constants=constants)
    op = assemble(ctx, grid)
    u = grid.nodes
    target = constants.gamma_h1**2 * u ** (0.5 - constants.hurst.h1)
    applied = op.matrix @ np.asarray(closed_form.h0(u, constants), dtype=float)
    mask = (u >= 0.1) & (u <= 0.9)
    ratio = applied[mask] / target[mask]
    resid = float(np.max(np.abs(applied[mask] - target[mask]) / target[mask]))
    return FirstKindReport(
        max_rel_residual=resid,
        ratio_mean=float(ratio.mean()),
        ratio_spread=float((ratio.max() - ratio.min()) / abs(ratio.mean())),
        nodes_used=int(mask.sum()),
    )


def h_mu(
    solution: FredholmSolution, constants: DerivedConstants
) -> Callable[[float | np.ndarray], float | np.ndarray]:
    """Rescale a finite-horizon solution onto the unit interval.

    Returns the callable u -> mu(T) T^{H1-1/2} h_hat(u) on (0, 1], with
    mu(T) = T^(2H2-2H1) = ``lambda_of_T(T)`` sigma^2 gamma^2 and h_hat
    extended off the nodes by the solver's interpolation formula.  As T
    grows these rescalings approach the closed-form h0; the approach
    rate is governed by gamma^2 / mu(T).
    """
    T = solution.horizon_T
    h1 = constants.hurst.h1
    factor = T ** (2.0 * (constants.hurst.h2 - h1)) * T ** (h1 - 0.5)
    h_T = unscale(solution)

    def weight(u: float | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if arr.size and (
            np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0)
        ):
            raise DomainError("the rescaled weight is defined on (0, 1]")
        t = arr * T
        vals = factor * np.asarray(h_T(t), dtype=float) * t ** (0.5 - h1)
        if np.ndim(u) == 0:
            return float(vals)
        return vals

    return weight


def limit_functional(
    solution: FredholmSolution, constants: DerivedConstants
) -> float:
    """Grid quadrature of h_mu(u) u^{1/2-H1} for one horizon.

    Uses the nodal solution values directly, so the result is independent
    of the off-grid extension; multiplied by sigma^2 gamma^2 T^{2-2H2}
    this reproduces the quadratic variation of the score martingale.
    """
    T = solution.horizon_T
    h1 = constants.hurst.h1
    grid = solution.grid
    factor = T ** (2.0 * (constants.hurst.h2 - h1)) * T ** (h1 - 0.5)
    vals = factor * solution.h_hat * grid.nodes ** (0.5 - h1)
    return float(np.dot(grid.weights, vals))


# ---------------------------------------------------------------- score

def log_likelihood(n_T: float, qv_N: float, drift_norm: float, theta: float) -> float:
    """Log-density of the observation against the driftless measure.

    Quadratic in theta with exact argmax n_T/(drift_norm qv_N); the
    drift_norm argument is explicit so normalization variants can be
    compared directly.
    """
    return theta * drift_norm * n_T - 0.5 * theta**2 * drift_norm**2 * qv_N


_MIN_GRID = 128


def stochastic_integral_N(
    h_T: Callable[[np.ndarray], np.ndarray],
    path: SamplePath,
    scale_hint: float | None = None,
) -> float:
    """Midpoint Stieltjes sum of the weight against path increments.

    Also evaluates the same sum on the half-resolution grid (every other
    sample); when ``scale_hint`` (the quadratic variation) is supplied
    and the two disagree by more than 1% of its square root, the grid is
    flagged as too coarse for the weight's variation.
    """
    t = path.times
    if t.size < _MIN_GRID:
        raise DomainError(
            f"need at least {_MIN_GRID} sample points for the score integral, "
            f"got {t.size}"
        )
    x = path.values
    mid = 0.5 * (t[1:] + t[:-1])
    val = float(np.dot(np.asarray(h_T(mid), dtype=float), np.diff(x)))
    tc, xc = t[::2], x[::2]
    if tc[-1] != t[-1]:
        tc = np.concatenate((tc, t[-1:]))
        xc = np.concatenate((xc, x[-1:]))
    midc = 0.5 * (tc[1:] + tc[:-1])
    coarse = float(np.dot(np.asarray(h_T(midc), dtype=float), np.diff(xc)))
    if scale_hint is not None and abs(val - coarse) > 0.01 * np.sqrt(scale_hint):
        warnings.warn(
            f"score integral moved by {abs(val - coarse):.3e} under grid "
            f"halving; the path grid is too coarse for this weight",
            AccuracyWarning,
            stacklevel=2,
        )
    return val


# ----------------------------------------------------------- simulation

def covariance_X(t, s, constants: DerivedConstants):
    """Covariance of the transformed observation Y at theta = 0, the
    transform sigma*Y1 + Y2 of sigma*B1 + B2.

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


def simulate_Z(times, seed, theta: float, constants: DerivedConstants) -> SamplePath:
    """Pathwise draw of the raw observation theta*t + sigma*B1 + B2.

    Built from two independent fractional Brownian draws rather than a
    factorized joint covariance; the two routes agree in distribution
    and the transform tests compare them.  Each seed is spawned into
    the seeds of its two draws; a ``SeedSequence`` passed in is left
    unchanged, so the same object gives the same path every time.
    """
    theta = check_real("theta", theta)
    if isinstance(seed, (list, tuple)):
        pairs = [_spawn_pair(s) for s in seed]
        s1, s2 = [p[0] for p in pairs], [p[1] for p in pairs]
    else:
        s1, s2 = _spawn_pair(seed)
    b1 = simulate_fbm(constants.hurst.h1, times, s1)
    b2 = simulate_fbm(constants.hurst.h2, times, s2)
    vals = (theta * _column(b1.times, b1.values) + constants.sigma * b1.values
            + b2.values)
    return SamplePath._drawn(b1.times, vals, "Z")


def _spawn_pair(seed) -> list:
    # the first two children ss.spawn(2) would give a fresh seed, derived
    # without advancing the caller's SeedSequence
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                   pool_size=ss.pool_size) for i in range(2)]


def _fbm_cov(h: float, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))


def model_matrix(t: np.ndarray, constants: DerivedConstants,
                 process: str) -> np.ndarray:
    """Covariance of Y or Z on the positive grid t."""
    h1, h2 = constants.hurst.h1, constants.hurst.h2
    sigma, eps = constants.sigma, constants.epsilon_h1
    if process == "Y":
        tab = get_tables(h1, h2)
        lo = np.minimum.outer(t, t)
        return tab.R(t[:, None], t[None, :]) + sigma**2 * eps * lo ** (2.0 - 2.0 * h1)
    return sigma**2 * _fbm_cov(h1, t[:, None], t[None, :]) + _fbm_cov(
        h2, t[:, None], t[None, :]
    )


def fbm_matrix(h: float, t: np.ndarray) -> np.ndarray:
    """Covariance of fractional Brownian motion on the positive grid t."""
    return _fbm_cov(h, t[:, None], t[None, :])


def factor(matrix: np.ndarray) -> np.ndarray:
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


def reconstruction_error(matrix: np.ndarray, chol: np.ndarray) -> float:
    """||chol chol^T - matrix||_F from the full product, 64 rows at a time."""
    err2 = 0.0
    for r in range(0, matrix.shape[0], 64):
        rows = slice(r, min(r + 64, matrix.shape[0]))
        diff = chol[rows] @ chol.T
        diff -= matrix[rows]
        err2 += float(np.vdot(diff, diff))
    return float(np.sqrt(err2))
