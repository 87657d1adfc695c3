"""Temporal kernels and moment bounds for the torus Anderson model.

Implements the mode-sum kernel ``k1``, the Riesz-Gaussian kernel
``k2 = C s^{alpha - d/2}``, the convolution family ``h_n`` and its
generating function ``H_lambda``, the Laplace-side function
``Theta_gamma`` with its root ``gamma0`` (the moment growth-rate bound),
the p-th moment upper bound, the second-moment lower bound, and the
Hoelder exponent arithmetic.

The ``h_n`` rows are computed by piecewise-linear product-integration
convolution quadrature: the moments of the kernel (with its integrable
power singularity) are exact per cell, and each level is one direct
convolution.  ``H_lambda`` is marched with the same weights as the
solution of its renewal equation.  Anything less than a second-order rule
biases the exponential growth rate at O(dt).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import NoiseSpec, mode_weight
from .errors import DomainError, NumericsError
from .heat_kernel import TWO_PI, heat_kernel
from .lattice import lattice_r2, sphere_area, zeta_lattice

# exp(-38) ~ 3e-17: mode sums truncated where the Gaussian factor is below
# double precision
_LOG_CUT = 38.0

# elements of one e^{-s |k|^2} block in k1 (128 MB of doubles); longer
# s arrays are evaluated over row blocks of at most this size
_K1_BLOCK = 2**24

# node cap of the H_lambda march, whose cost grows as the node count squared:
# above the 80 963 nodes of d = 1, alpha 0.3, t = 50, lambda 4
_MAX_NODES = 2**17


# lattice cutoffs: the cap of the exact k1 sums, the Laplace sum, and the
# exact sums of the k1 time integrals (at most the cap)
def _exact_sum_cap(d):
    return 8192 if d == 1 else 512


def _laplace_kmax(d):
    return 4096 if d == 1 else 512


def _integral_kmax(d):
    return min(2048, _exact_sum_cap(d))


def _k1_kmax(s_min, d):
    k = int(math.ceil(math.sqrt(_LOG_CUT / max(s_min, 1e-12))))
    k = min(max(k, 8), _exact_sum_cap(d))
    # quantize so the lattice cache is reused across nearby calls
    return 1 << (k - 1).bit_length()


def _weighted_heat_sum_small_s(s, spec):
    """sum_{k != 0} |k|^{-2a} e^{-s |k|^2} through the heat-kernel integral
    (1/Gamma(a)) int_s^oo (w - s)^{a-1} [(2 pi)^d G(2w, 0) - 1] dw,
    accurate down to s = 0+ where the direct sum would need huge cutoffs."""
    from scipy import integrate

    a, d = spec.alpha, spec.d
    origin = np.zeros(d)
    flat = TWO_PI**d

    def lattice_tail(w):
        return flat * float(heat_kernel(2.0 * w, origin)) - 1.0

    # head: w in [s, 1], substitution w = s + tau^{1/a}; the integrand has a
    # plateau of height ~ s^{-d/2} below tau ~ s^a, hinted to the rule
    top = (1.0 - s) ** a
    tau_knee = min(s**a, top)
    pts = [0.5 * tau_knee, tau_knee, min(4.0 * tau_knee, top)] if tau_knee > 0 else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(
            lambda tau: lattice_tail(s + tau ** (1.0 / a)), 0.0, top,
            epsabs=1e-12, epsrel=1e-10, limit=500, points=pts)
        tail, _ = integrate.quad(
            lambda w: (w - s) ** (a - 1.0) * lattice_tail(w), 1.0, np.inf,
            epsabs=1e-13, epsrel=1e-11, limit=200)
    return (head / a + tail) / math.gamma(a)


def k1(s, spec, kmax=None):
    """Mode-sum kernel k1(s) = (2 pi)^{-d/2} [rho + sum_{k!=0} |k|^{-2a} e^{-s|k|^2}].

    Vectorized over ``s``; nonincreasing and positive.  Arguments below the
    resolvable scale of the lattice cutoff are rerouted through the
    heat-kernel integral representation.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise DomainError("k1 requires s > 0")
    if kmax is None:
        kmax = _k1_kmax(float(np.min(s_arr)), spec.d)
    s_floor = _LOG_CUT / kmax**2
    r2, counts = lattice_r2(spec.d, kmax)
    w = counts * mode_weight(spec, r2)
    rows = max(1, _K1_BLOCK // r2.size)
    vals = spec.rho + np.concatenate([
        np.exp(-np.outer(s_arr[i:i + rows], r2)) @ w
        for i in range(0, s_arr.size, rows)])
    for i in np.flatnonzero(s_arr < s_floor):
        vals[i] = spec.rho + _weighted_heat_sum_small_s(float(s_arr[i]), spec)
    vals *= TWO_PI ** (-spec.d / 2.0)
    return vals if np.ndim(s) else float(vals[0])


def k1_integral(t, spec):
    """Exact mode sum for int_0^t k1(s) ds; d <= 2, where the zeta tail's
    lattice cutoff is within reach."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    spec.require_dalang()
    kmax = _integral_kmax(spec.d)
    # beyond the cube's largest norm the (1 - e^{-t r^2}) factor is
    # essentially constant, so the zeta sum past it is the tail
    tail_kmax = 4 * math.isqrt(spec.d * kmax**2)
    if spec.d > 2:
        raise DomainError(
            f"k1_integral at d = {spec.d} needs its zeta tail summed to the "
            f"lattice cutoff {tail_kmax}, out of reach")
    r2, counts = lattice_r2(spec.d, kmax)
    w = counts * mode_weight(spec, r2) / r2
    main = float(np.sum(w * (1.0 - np.exp(-t * r2))))
    tail = zeta_lattice(spec.d, 2.0 * spec.alpha + 2.0, tail_kmax) - float(np.sum(w))
    tail *= -float(np.expm1(-t * r2[-1]))
    return TWO_PI ** (-spec.d / 2.0) * (spec.rho * t + main + max(tail, 0.0))


# 2F1(1, b; b + 1; -z): the series in z / (1 + z) up to the split, the
# expansion in 1/z beyond it, each cut after this many terms
_F21_SPLIT = 2.0
_F21_TERMS = 100


def _hyp2f1_1b(b, z):
    """2F1(1, b; b + 1; -z) = b int_0^1 u^{b-1} / (1 + z u) du for b > 0 and
    z >= 0, to a few ulp (DLMF 15.4, 15.8).

    Up to z = 2 it is the Pfaff series (1 + z)^{-1} sum_n n! w^n / (b + 1)_n
    in w = z / (1 + z) <= 2/3, whose terms are positive.  Beyond, the
    integral splits at u = 2 / z: the part below is (2 / z)^b times the
    function at z = 2, and the part above expands 1 / (1 + z u) in powers of
    1 / (z u) <= 1/2.  Its n-th term, r^b (1 - r^c) / c with r = 2 / z and
    c = n + 1 - b, is written r^{min(b, n+1)} L phi(|c| L) with L = -log r
    and phi(x) = (1 - e^{-x}) / x, so it neither overflows nor cancels where
    c is near 0: at integer b the z^{-b} and z^{-(n+1)} powers meet in a
    logarithm (b = 1 gives log1p(z) / z).
    """
    if z <= _F21_SPLIT:
        n = np.arange(1, _F21_TERMS)
        w = z / (1.0 + z)
        return (1.0 + float(np.sum(np.cumprod(w * n / (n + b))))) / (1.0 + z)
    n = np.arange(_F21_TERMS)
    log_z = math.log(z / _F21_SPLIT)
    x = np.abs(n + 1.0 - b) * log_z
    phi = np.ones_like(x)
    pos = x > 0.0
    phi[pos] = -np.expm1(-x[pos]) / x[pos]
    r = _F21_SPLIT / z
    terms = (-1.0) ** n * _F21_SPLIT ** -(n + 1.0) * r ** np.minimum(b, n + 1.0)
    terms *= phi
    return r**b * _hyp2f1_1b(b, _F21_SPLIT) + b * log_z * float(np.sum(terms))


def k1_laplace(gamma, spec):
    """int_0^oo e^{-gamma s} k1(s) ds by the mode sum
    rho (2 pi)^{-d/2} / gamma + (2 pi)^{-d/2} sum_k |k|^{-2a} / (|k|^2 + gamma).

    The sum runs over the ball |k| <= K = ``_laplace_kmax(d)``; the rest
    is the radial integral int_K^oo omega r^{d-1-2a} / (r^2 + gamma) dr
    = omega K^{d-2-2a} / (2b) 2F1(1, b; b + 1; -gamma / K^2) with
    b = 1 - d/2 + a, exact at every gamma, plus at d = 1 the end term
    omega K^{d-1-2a} / (2 (K^2 + gamma)).  That end term has the opposite
    sign to Euler-Maclaurin's (3.2e-10 relative at alpha 0.3, gamma 1);
    it is kept until the values it moves are re-recorded (ROADMAP item 6).
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    spec.require_dalang()
    d, a = spec.d, spec.alpha
    kmax = _laplace_kmax(d)
    r2, counts = lattice_r2(d, kmax)
    ball = r2 <= kmax**2
    r2, counts = r2[ball], counts[ball]
    main = float(np.sum(counts * mode_weight(spec, r2) / (r2 + gamma)))

    omega = sphere_area(d)
    b = 1.0 - d / 2.0 + a
    tail = (omega * kmax ** (d - 2.0 - 2.0 * a) / (2.0 * b)
            * _hyp2f1_1b(b, gamma / kmax**2))
    if d == 1:
        tail += 0.5 * omega * kmax ** (-2.0 * a) / (kmax**2 + gamma)
    return TWO_PI ** (-d / 2.0) * (spec.rho / gamma + main + tail)


def riesz_gaussian_constant(d, alpha):
    """C_{d,alpha} with k2(s) = int hat f*(xi) e^{-s |xi|^2 / 2} dxi = C s^{a-d/2},
    where hat f*(xi) = c_{d,a} |xi|^{-2a} is the unitary angular-frequency
    transform of f*(x) = |x|^{-d+2a}: C = 2^a Gamma(a) pi^{d/2} / Gamma(d/2).
    For alpha >= d/2, where the defining integral diverges, only the
    prefactor convention survives and this is its continuation."""
    return 2.0**alpha * math.gamma(alpha) * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def k2(s, spec):
    """Riesz-Gaussian kernel k2(s) = C_{d,alpha} s^{alpha - d/2}."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise DomainError("k2 requires s > 0")
    return riesz_gaussian_constant(spec.d, spec.alpha) * s_arr ** (spec.alpha - spec.d / 2.0)


def k2_laplace_constant(d, alpha):
    """C'_{d,alpha} in int_0^oo e^{-gamma s} k2 ds = C' gamma^{-(a + 1 - d/2)}."""
    if 2.0 * (alpha + 1.0) <= d:
        raise DomainError("Laplace transform of k2 needs 2*(alpha+1) > d")
    return riesz_gaussian_constant(d, alpha) * math.gamma(alpha + 1.0 - d / 2.0)


# ---------------------------------------------------------------------------
# h_n rows and the generating function H_lambda


@dataclass(frozen=True)
class HnTable:
    """Samples of h_0..h_{n_max} on a uniform time grid.

    ``values[n, i] = h_n(t_grid[i])``.
    """

    spec: NoiseSpec
    t_grid: np.ndarray
    values: np.ndarray


def _first_cell_moments(dt, spec):
    """Exact moments int_0^dt k(s) ds and int_0^dt s k(s) ds of the
    combined kernel k = k1 + k2 + 1, with the power singularity integrated
    in closed form and the mode part summed exactly."""
    d, a = spec.d, spec.alpha
    p = a - d / 2.0
    c_riesz = riesz_gaussian_constant(d, a)
    w0 = k1_integral(dt, spec) + c_riesz * dt ** (p + 1.0) / (p + 1.0) + dt
    r2, counts = lattice_r2(d, _integral_kmax(d))
    x = dt * r2
    mode_m1 = float(np.sum(counts * mode_weight(spec, r2)
                           * (1.0 - np.exp(-x) * (1.0 + x)) / (r2 * r2)))
    w1 = TWO_PI ** (-d / 2.0) * (spec.rho * dt * dt / 2.0 + mode_m1)
    w1 += c_riesz * dt ** (p + 2.0) / (p + 2.0) + dt * dt / 2.0
    return w0, w1


def _pi_weights(spec, n_nodes, dt):
    """Piecewise-linear product-integration weights for the Volterra
    convolution with k = k1 + k2 + 1 on a uniform grid.

    Returns ``(P, A)`` such that
    ``h_{n+1}[i] = sum_m P[m] h_n[i-m] - A[i+1] h_n[0]`` with
    ``P[m] = A[m+1] + B[m]``, where ``A_m = W0_m - W1_m/dt`` and
    ``B_m = W1_m/dt`` weight the two endpoint values of cell m and
    ``(W0_m, W1_m)`` are the kernel moments over the cell.  The first cell
    carries the integrable singularity and is done in closed form; the
    remaining cells use 3-point Gauss-Legendre on the smooth kernel.
    A second-order rule here matters: a first-order cell rule biases the
    exponential growth rate of h_n and H_lambda at O(dt).
    """
    n_cells = n_nodes  # one extra cell for the boundary correction at i = N
    W0 = np.zeros(n_cells + 1)
    W1 = np.zeros(n_cells + 1)
    W0[1], W1[1] = _first_cell_moments(dt, spec)
    gl_x, gl_w = np.polynomial.legendre.leggauss(3)
    left = dt * np.arange(1, n_cells)  # cells m = 2 .. n_cells
    nodes = left[:, None] + 0.5 * dt * (gl_x[None, :] + 1.0)
    kv = (k1(nodes.ravel(), spec) + k2(nodes.ravel(), spec) + 1.0).reshape(nodes.shape)
    w_half = 0.5 * dt * gl_w
    W0[2:] = kv @ w_half
    W1[2:] = ((nodes - left[:, None]) * kv) @ w_half
    A = W0 - W1 / dt
    B = W1 / dt
    P = np.zeros(n_nodes)
    P[0] = A[1]
    P[1:] = A[2:] + B[1:-1]
    return P, A


def _convolve_level(prev, P, A):
    """One product-integration level: h_{n+1} from h_n.

    Direct (not FFT) convolution: the rows span hundreds of orders of
    magnitude and early-time entries feed exponentially amplified
    contributions later, so errors must stay relative per entry.
    """
    n = prev.shape[0]
    out = np.convolve(P, prev)[:n]
    out -= A[1:n + 1] * prev[0]
    out[0] = 0.0
    return out


def uniform_time_grid(t_grid, min_nodes):
    """``(t, dt)`` of a 1-d grid of at least ``min_nodes`` nodes that starts
    at 0; refused unless uniform to rtol 1e-12, atol 1e-14."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < min_nodes or t[0] != 0.0:
        raise DomainError("t_grid must be 1-d, start at 0 and have >= "
                          f"{min_nodes} nodes")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-12, atol=1e-14):
        raise DomainError("t_grid must be uniform")
    return t, dt


def hn_table(spec, n_max, t_grid):
    """Rows h_0..h_{n_max} on a uniform grid starting at 0.

    h_0 = 1 and h_{n+1}(t) = int_0^t h_n(t - s) (k1(s) + k2(s) + 1) ds.
    Refuses when the integrability condition fails (k2 not integrable).
    """
    spec.require_dalang()
    t, dt = uniform_time_grid(t_grid, 2)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")

    P, A = _pi_weights(spec, t.size, dt)

    rows = np.zeros((n_max + 1, t.size))
    rows[0] = 1.0
    for n in range(n_max):
        rows[n + 1] = _convolve_level(rows[n], P, A)
    return HnTable(spec=spec, t_grid=t, values=rows)


def _march_step(spec, t_max, lam2):
    """Default step of the H_lambda march: min(0.02, t_max/256), and at
    strong coupling also 0.2/gamma0, so that each e-fold of the growth of H
    spans at least five steps.  Coupling counts as strong once
    4 B + 2 M >= 345, with B the linear budget lambda^2 int_0^t (k1 + k2 + 1)
    and M the Mittag-Leffler peak (lambda^2 B_riesz)^(1/q) of the
    power-kernel part: both grow with log H(t_max).  The weights and the
    level 345 only choose the step; they were sized for a level expansion
    that the march replaced."""
    dt = min(0.02, t_max / 256.0)
    q = spec.alpha - spec.d / 2.0 + 1.0
    riesz_budget = riesz_gaussian_constant(spec.d, spec.alpha) * t_max**q / q
    budget = lam2 * (k1_integral(t_max, spec) + riesz_budget + t_max)
    ml_peak = (lam2 * riesz_budget) ** (1.0 / q)
    if 4.0 * budget + 2.0 * ml_peak >= 345.0:
        try:
            rate = gamma0(math.sqrt(lam2), spec).gamma0
        except NumericsError:
            rate = 1.0
        dt = min(dt, 0.2 / max(rate, 1e-12))
    return dt


def H_lambda(spec, t, lam=None, dt=None, full_output=False):
    """H_lambda(t) = sum_n lambda^{2n} h_n(t), the solution of the renewal
    equation H = 1 + lambda^2 (k * H) with k = k1 + k2 + 1.

    Marched on a uniform grid with the product-integration weights of
    ``hn_table``: each node value is solved implicitly from its history, so
    the level sum is the Neumann series of the same lower-triangular system.
    The step is ``dt`` or ``_march_step``, halved while lambda^2 P[0] >= 0.5
    so the node solve stays well away from its pole.  Each t is read at the
    nearest grid node; with ``full_output`` the info dict holds ``dt``,
    ``n_nodes`` and ``t_eval``, the node times used (None, 0 and t when
    H = 1 trivially).  Raises NumericsError when H leaves double range or
    the march needs more than ``_MAX_NODES`` nodes.
    """
    if lam is None:
        lam = spec.lam
    lam2 = float(lam) * float(lam)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise DomainError("H_lambda requires t >= 0")
    t_max = float(np.max(t_arr))
    if t_max == 0.0 or lam2 == 0.0:
        out = np.ones_like(t_arr)
        info = {"dt": None, "n_nodes": 0, "t_eval": t_arr}
        return (out, info) if full_output else (out if np.ndim(t) else 1.0)

    spec.require_dalang()
    if dt is None:
        dt = _march_step(spec, t_max, lam2)
    while True:
        n_nodes = int(math.ceil(t_max / dt)) + 1
        if n_nodes > _MAX_NODES:
            raise NumericsError(f"H_lambda needs {n_nodes} nodes, over the cap {_MAX_NODES}")
        w0, w1 = _first_cell_moments(dt, spec)  # P[0] of _pi_weights
        if lam2 * (w0 - w1 / dt) < 0.5:
            break
        dt /= 2.0
    P, A = _pi_weights(spec, n_nodes, dt)
    h = np.ones(n_nodes)
    denom = 1.0 - lam2 * P[0]
    with np.errstate(over="ignore"):
        for i in range(1, n_nodes):
            conv = float(np.dot(P[1:i + 1][::-1], h[:i])) - A[i + 1] * h[0]
            h[i] = (1.0 + lam2 * conv) / denom
            if not np.isfinite(h[i]):
                raise NumericsError(
                    f"H_lambda overflow at t={i * dt:.3g}; "
                    "growth exceeds double range")
    idx = np.clip(np.rint(t_arr / dt).astype(int), 0, n_nodes - 1)
    out = h[idx] if np.ndim(t) else float(h[idx[0]])
    if full_output:
        return out, {"dt": dt, "n_nodes": n_nodes, "t_eval": idx * dt}
    return out


# ---------------------------------------------------------------------------
# Theta_gamma, gamma0, and the theorem-side bounds


@dataclass(frozen=True)
class GammaSolve:
    """Root data for lambda^2 Theta_gamma = 1."""

    lam: float
    gamma0: float
    theta_at_gamma0: float
    residual: float
    mode_cutoff: int


def theta_gamma(gamma, spec):
    """Laplace-side function whose unit level set defines gamma0.

    Four terms: the rho mode, the nonzero-mode lattice sum, the Laplace
    transform of k2 (same C_{d,alpha} convention as k2, times
    Gamma(alpha + 1 - d/2) from the time integral), and 1/gamma.
    """
    if gamma <= 0.0:
        raise DomainError("theta_gamma requires gamma > 0")
    spec.require_dalang()
    riesz = k2_laplace_constant(spec.d, spec.alpha) * gamma ** (

        -(spec.alpha + 1.0 - spec.d / 2.0))
    return (k1_laplace(gamma, spec) + riesz + 1.0 / gamma)


def gamma0(lam, spec):
    """Solve lambda^2 Theta_gamma = 1 by bracketing and bisection to a
    relative bracket width of 1e-12."""
    lam2 = float(lam) * float(lam)
    if lam2 == 0.0:
        raise DomainError("gamma0 requires lambda != 0")
    spec.require_dalang()

    def g(x):
        return lam2 * theta_gamma(x, spec) - 1.0

    lo, hi = 1e-8, 1.0
    while g(hi) > 0.0:
        hi *= 4.0
        if hi > 1e18:
            raise NumericsError("gamma0 bracket expansion failed")
    while g(lo) < 0.0:
        lo /= 4.0
        if lo < 1e-300:
            raise NumericsError("gamma0 bracket expansion failed at 0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    root = 0.5 * (lo + hi)
    theta_val = theta_gamma(root, spec)
    return GammaSolve(lam=float(lam), gamma0=root, theta_at_gamma0=theta_val,
                      residual=abs(lam2 * theta_val - 1.0),
                      mode_cutoff=_laplace_kmax(spec.d))


def gamma0_rate_exponent(spec):
    """Large-coupling growth exponent max(4 / (2(1+alpha) - d), 2)."""
    spec.require_dalang()
    return max(4.0 / (2.0 * (1.0 + spec.alpha) - spec.d), 2.0)


def p_moment_upper(t, x, p, mu, spec):
    """Upper bound sqrt(2) J_0(t,x) [H_{4 lambda sqrt(p)}(t)]^{1/2} on the
    p-th moment norm of u(t, x).

    At strong effective coupling the generating function H exceeds the
    double-precision range (its logarithm passes 709 already at moderate
    t); the bound is then reported as +inf, which is still a true upper
    bound, just an uninformative one.  It is +inf too when the march of H
    needs more nodes than its cap (d = 2, alpha 0.5, rho 1, t = 0.5).
    """
    if p < 2.0:
        raise DomainError("the moment bound needs p >= 2")
    from .pam_solver import j0 as j0_eval

    j0_val = j0_eval(t, x, mu, d=spec.d)
    lam_eff = 4.0 * abs(spec.lam) * math.sqrt(p)
    try:
        h_val = H_lambda(spec, t, lam=lam_eff)
    except NumericsError:
        return math.inf
    return math.sqrt(2.0) * j0_val * math.sqrt(h_val)


def lower_bound_second_moment(t, eps, c_f, c_mu, lam, d, j0_val=0.0):
    """Second-moment lower bound J0^2 + (1/2) lambda^{-2} c_eps^d C_mu^2 e^{C_f t / 2},
    valid for t >= eps when the covariance is bounded below by C_f > 0."""
    if not (eps > 0.0 and t >= eps):
        raise DomainError("need t >= eps > 0")
    if c_f <= 0.0:
        raise DomainError("C_f must be positive")
    from .bridge import comparison_constants

    c_eps, _ = comparison_constants(eps)
    return j0_val**2 + 0.5 * lam ** (-2.0) * c_eps**d * c_mu**2 * math.exp(c_f * t / 2.0)


def holder_exponents(alpha, d):
    """Open-interval suprema of the time/space Hoelder exponents:
    ((2a + 2 - d)/4, (2a + 2 - d)/2), for alpha in (0, d/2)."""
    if not (0.0 < alpha < d / 2.0):
        raise DomainError("Hoelder exponents defined for alpha in (0, d/2)")
    gap = 2.0 * alpha + 2.0 - d
    return gap / 4.0, gap / 2.0
