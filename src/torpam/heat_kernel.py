"""Heat kernel on the flat torus [-pi, pi)^d and its Euclidean comparison.

The one-dimensional kernel has two rapidly convergent series: a Fourier
cosine series, efficient for large diffusion time, and a sum of Gaussian
images, efficient for small time.  The d-dimensional kernel is the product
of one-dimensional factors.  The module also evaluates the theta-function
constant ``C_t`` controlling the kernel/Gaussian ratio, the long-time
flattening constant ``Theta_{eps,d}``, and pointwise checks of the
sandwich and Hoelder-increment inequalities.

All evaluators are pure functions of their arguments and broadcast over
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import cube_points

TWO_PI = 2.0 * math.pi

# series truncation: hard cap on the number of terms of either expansion
MAX_TERMS = 64


@dataclass(frozen=True)
class KernelConfig:
    """Truncation and regime-switch parameters for kernel evaluation.

    tail_tol : relative tolerance for stopping a series once the next term
        drops below ``tail_tol`` times the partial sum.
    t_switch : diffusion time at which evaluation switches from the
        Gaussian-image sum to the Fourier cosine series.  At ``2*pi`` both
        series need under ten terms for a 1e-15 relative tail.
    """

    tail_tol: float = 1e-15
    t_switch: float = TWO_PI

    def __post_init__(self):
        if not (0.0 < self.tail_tol < 1.0):
            raise DomainError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        if self.t_switch <= 0.0:
            raise DomainError(f"t_switch must be positive, got {self.t_switch}")


DEFAULT_CONFIG = KernelConfig()


@dataclass(frozen=True)
class TorusPoint:
    """A point of the torus; coordinates normalized into [-pi, pi)."""

    coords: tuple

    def __init__(self, coords):
        arr = np.atleast_1d(np.asarray(coords, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("a torus point is a 1-d sequence of coordinates")
        if not np.all(np.isfinite(arr)):
            raise DomainError("torus point coordinates must be finite")
        object.__setattr__(self, "coords", tuple(signed_mod(arr)))

    @property
    def d(self):
        return len(self.coords)

    def as_array(self):
        return np.asarray(self.coords, dtype=float)


def as_coords(x):
    """Coerce a TorusPoint / scalar / sequence to a coordinate array."""
    if isinstance(x, TorusPoint):
        return x.as_array()
    return np.atleast_1d(np.asarray(x, dtype=float))


def signed_mod(x):
    """Signed remainder of x modulo 2*pi, in [-pi, pi).

    Follows the positive-remainder convention, so ``signed_mod(pi) == -pi``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("signed_mod requires finite input")
    return np.mod(x + math.pi, TWO_PI) - math.pi


def torus_distance(x, y):
    """Geodesic distance on the torus: |signed_mod(x - y)| (Euclidean norm)."""
    xa, ya = as_coords(x), as_coords(y)
    if xa.shape[-1] != ya.shape[-1]:
        raise DomainError(f"dimension mismatch: {xa.shape[-1]} vs {ya.shape[-1]}")
    return np.sqrt(np.sum(signed_mod(xa - ya) ** 2, axis=-1))


def gauss_kernel(t, x, d=None):
    """Euclidean heat kernel p_d(t, x) = (2*pi*t)^(-d/2) exp(-|x|^2 / (2t))."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("gauss_kernel requires t > 0")
    xa = as_coords(x)
    if d is None:
        d = xa.shape[-1]
    sq = np.sum(xa * xa, axis=-1)
    return (TWO_PI * t) ** (-d / 2.0) * np.exp(-sq / (2.0 * t))


def _n_image_terms(t, tol):
    # Gaussian images at shift 2*pi*k contribute ~exp(-(2*pi*k - pi)^2 / 2t)
    # relative to the center; solve for the first negligible k.
    width = math.sqrt(2.0 * max(t, 1e-300) * math.log(1.0 / tol))
    return min(MAX_TERMS, max(1, int(math.ceil((width + math.pi) / TWO_PI)) + 1))


def _n_cosine_terms(t, tol):
    # cosine terms decay like exp(-n^2 t / 2)
    return min(MAX_TERMS, max(1, int(math.ceil(math.sqrt(2.0 * math.log(1.0 / tol) / t))) + 1))


def heat_kernel_1d_image(t, x, tol=1e-15):
    """G_1(t, x) by the Gaussian image sum, efficient for small t."""
    t = np.asarray(t, dtype=float)
    x = signed_mod(np.asarray(x, dtype=float))
    m = _n_image_terms(float(np.max(t)), tol)
    acc = np.exp(-x * x / (2.0 * t))
    for k in range(1, m + 1):
        acc = acc + np.exp(-((x + TWO_PI * k) ** 2) / (2.0 * t))
        acc = acc + np.exp(-((x - TWO_PI * k) ** 2) / (2.0 * t))
    return acc / np.sqrt(TWO_PI * t)


def heat_kernel_1d_spectral(t, x, tol=1e-15):
    """G_1(t, x) by the Fourier cosine series, efficient for large t."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    m = _n_cosine_terms(float(np.min(t)), tol)
    acc = np.full(np.broadcast(t, x).shape, 1.0 / TWO_PI)
    for n in range(1, m + 1):
        acc = acc + np.exp(-n * n * t / 2.0) * np.cos(n * x) / math.pi
    return acc


def heat_kernel(t, x, config=DEFAULT_CONFIG):
    """Torus heat kernel G_d(t, x) = prod_i G_1(t, x_i).

    Picks the image sum for ``t <= config.t_switch`` and the cosine series
    otherwise; both agree to ~1e-12 on a band around the switch.  ``x`` may
    be a scalar (d = 1), a length-d sequence, or an array whose last axis is
    the coordinate axis; leading axes broadcast.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("heat_kernel requires t > 0")
    xa = as_coords(x)
    one_d = (heat_kernel_1d_image if np.max(t) <= config.t_switch
             else heat_kernel_1d_spectral)
    out = one_d(t, xa[..., 0], config.tail_tol)
    for i in range(1, xa.shape[-1]):
        out = out * one_d(t, xa[..., i], config.tail_tol)
    return out


def theta_c(t, tol=1e-15, form="auto"):
    """Theta-constant C_t relating torus and Euclidean kernels.

    Two equivalent expressions are available: the direct sum
    ``sum_n exp(-2 n^2 pi^2 / t)`` (form ``"s"``, fast for small t) and the
    rescaled sum ``sqrt(t/2pi) * sum_n exp(-n^2 t / 2)`` (form ``"s_prime"``,
    fast for large t).  ``"auto"`` switches at ``t = 2*pi``.  Terms are added
    until the next one falls below ``tol`` times the partial sum.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("theta_c requires t > 0")
    if not (0.0 < tol < 1.0):
        raise DomainError("tol must be in (0, 1)")
    if form == "auto":
        form = "s" if float(np.max(t)) <= TWO_PI else "s_prime"
    if form == "s":
        acc = np.ones_like(t)
        for n in range(1, MAX_TERMS + 1):
            term = 2.0 * np.exp(-2.0 * n * n * math.pi * math.pi / t)
            acc = acc + term
            if np.max(term) < tol * np.min(acc):
                break
        return acc
    if form == "s_prime":
        acc = np.ones_like(t)
        for n in range(1, MAX_TERMS + 1):
            term = 2.0 * np.exp(-n * n * t / 2.0)
            acc = acc + term
            if np.max(term) < tol * np.min(acc):
                break
        return np.sqrt(t / TWO_PI) * acc
    raise DomainError(f"unknown form {form!r}")


def _ratio_factor_1d(t, xi):
    # G_1(t, xi) / p_1(t, xi) expanded image by image; every term has a
    # nonpositive exponent for |xi| <= pi, so this never overflows.
    acc = np.ones(np.broadcast(np.asarray(t, float), xi).shape)
    for k in range(1, MAX_TERMS + 1):
        a = np.exp(-TWO_PI * k * (math.pi * k - xi) / t)
        b = np.exp(-TWO_PI * k * (math.pi * k + xi) / t)
        acc = acc + a + b
        if np.max(a + b) < 1e-18 * np.min(acc):
            break
    return acc


def log_heat_kernel(t, x, config=DEFAULT_CONFIG):
    """log G_d(t, x), stable where G underflows (small t, |x| near pi)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("log_heat_kernel requires t > 0")
    xa = signed_mod(as_coords(x))
    if np.max(t) > config.t_switch:
        return np.log(heat_kernel(t, xa, config))
    out = 0.0
    for i in range(xa.shape[-1]):
        xi = xa[..., i]
        out = out + (-0.5 * np.log(TWO_PI * t) - xi * xi / (2.0 * t)
                     + np.log(_ratio_factor_1d(t, xi)))
    return out


def kernel_ratio(t, x):
    """G_d(t, x) / p_d(t, signed_mod(x)) evaluated without under/overflow."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("kernel_ratio requires t > 0")
    xa = signed_mod(as_coords(x))
    out = _ratio_factor_1d(t, xa[..., 0])
    for i in range(1, xa.shape[-1]):
        out = out * _ratio_factor_1d(t, xa[..., i])
    return out


def kernel_sandwich_check(t, x, config=DEFAULT_CONFIG):
    """Check C_t^d <= G/p <= (2 C_t)^d at (t, x).

    Returns a dict with the ratio, the two bounds, and a ``pass`` flag; the
    comparison carries a slack of ``10 * tail_tol * ratio`` for truncation
    noise.
    """
    xa = as_coords(x)
    d = xa.shape[-1]
    ratio = kernel_ratio(t, xa)
    ct = theta_c(t, config.tail_tol)
    lower = ct**d
    upper = (2.0 * ct) ** d
    slack = 10.0 * config.tail_tol * ratio
    ok = bool(np.all(lower - slack <= ratio) and np.all(ratio <= upper + slack))
    return {
        "t": float(np.max(t)) if np.ndim(t) else float(t),
        "ratio": ratio,
        "lower": lower,
        "upper": upper,
        "pass": ok,
    }


def flatness_sup_error(t, d, n_grid=2001, config=DEFAULT_CONFIG):
    """sup_x |G_d(t, x) - (2 pi)^{-d}| over a fine grid (d <= 2)."""
    if d > 2:
        raise DomainError("flatness scan implemented for d in {1, 2}")
    xs = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
    vals = heat_kernel(t, cube_points(xs, d), config)
    return float(np.max(np.abs(vals - TWO_PI ** (-d))))


def theta_eps(eps, d=1, t_max=80.0, n_grid=4000):
    """Flattening constant Theta_{eps,d} for the bound
    sup_x |G(t,x) - (2 pi)^{-d}| <= Theta_{eps,d} exp(-t/2), t >= eps.

    Constructive recipe: Lambda_eps bounds exp(t/2) * log(sqrt(2 pi/t) C_t)
    on [eps, infinity); that function tends to 2 monotonically from some
    point on, so Lambda_eps = max(2, grid maximum).  Then
    Theta_{eps,1} = Lambda_eps * exp(Lambda_eps) and the d-dimensional
    constant follows by the telescoping product bound.
    """
    if eps <= 0.0:
        raise DomainError("theta_eps requires eps > 0")
    ts = np.geomspace(eps, max(t_max, 2.0 * eps), n_grid)
    # sqrt(2 pi / t) * C_t == 1 + 2 sum exp(-n^2 t / 2), evaluated directly
    # to keep precision at large t
    tail = np.zeros_like(ts)
    for n in range(1, MAX_TERMS + 1):
        term = 2.0 * np.exp(-n * n * ts / 2.0)
        tail += term
        if np.max(term) < 1e-18:
            break
    phi = np.exp(ts / 2.0) * np.log1p(tail)
    lam = max(2.0, float(np.max(phi)))
    theta1 = lam * math.exp(lam)
    scale = sum(
        TWO_PI ** (-(i - 1)) * (1.0 + math.sqrt(TWO_PI / eps)) ** (d - i)
        for i in range(1, d + 1)
    )
    return theta1 * scale


def kernel_increment_bounds(t, t_prime, x, y, beta, config=DEFAULT_CONFIG):
    """Smallest constants for the kernel increment inequalities.

    Time:  |G(t,x) - G(t',x)|  <= C * t^{-b/2} G(2t', x) (t'-t)^{b/2}
    Space: |G(t,x) - G(t,y)|   <= C * t^{-b/2} [G(2t,x) + G(2t,y)] dist^b

    Returns both sides at the given points and the smallest C making each
    hold (0/0 cases report C = 0).
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError("beta must lie in (0, 1]")
    if not (0.0 < t <= t_prime):
        raise DomainError("need 0 < t <= t_prime")
    xa, ya = as_coords(x), as_coords(y)

    lhs_t = abs(float(heat_kernel(t, xa, config)) - float(heat_kernel(t_prime, xa, config)))
    envelope_t = t ** (-beta / 2.0) * float(heat_kernel(2.0 * t_prime, xa, config)) * (
        (t_prime - t) ** (beta / 2.0)
    )
    c_time = lhs_t / envelope_t if envelope_t > 0.0 else 0.0

    lhs_s = abs(float(heat_kernel(t, xa, config)) - float(heat_kernel(t, ya, config)))
    dist = float(torus_distance(xa, ya))
    envelope_s = t ** (-beta / 2.0) * (
        float(heat_kernel(2.0 * t, xa, config)) + float(heat_kernel(2.0 * t, ya, config))
    ) * dist**beta
    c_space = lhs_s / envelope_s if envelope_s > 0.0 else 0.0

    return {
        "time_lhs": lhs_t,
        "time_envelope": envelope_t,
        "c_time": c_time,
        "space_lhs": lhs_s,
        "space_envelope": envelope_s,
        "c_space": c_space,
    }
