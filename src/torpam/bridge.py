"""Pinned Brownian motion (bridge) densities on the torus and on R^d,
with the two comparison estimates that link them.

The torus bridge is the heat-kernel ratio; for t above a threshold it is
comparable to the unpinned torus kernel with explicit constants
``(c_eps, C_eps)``, and for all t it is dominated by a 3^d-image sum of
Euclidean bridges up to a universal constant that we fit numerically.

Sweeps draw scipy's scrambled Sobol points bit for bit
(``qmc.Sobol(dim, scramble=True, seed=seed)``: Joe-Kuo direction numbers
under Matousek's left-matrix scramble and a digital shift), generated
here in numpy, so a report is reproducible and does not depend on the
installed scipy.  The module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .heat_kernel import (TWO_PI, as_coords, gauss_kernel, heat_kernel,
                          log_heat_kernel)
from .lattice import cube_points


@dataclass(frozen=True)
class BridgeSpec:
    """Horizon and endpoints of a pinned Brownian motion."""

    t: float
    x0: tuple
    x: tuple

    def __post_init__(self):
        if self.t <= 0.0:
            raise DomainError("bridge horizon t must be positive")
        object.__setattr__(self, "x0", tuple(np.atleast_1d(np.asarray(self.x0, float))))
        object.__setattr__(self, "x", tuple(np.atleast_1d(np.asarray(self.x, float))))
        if len(self.x0) != len(self.x):
            raise DomainError("endpoint dimensions differ")

    @property
    def d(self):
        return len(self.x0)


def bridge_density_torus(spec, s, z):
    """G_{t,x0,x}(s, z) = G(s, x0, z) G(t-s, z, x) / G(t, x0, x)."""
    if not 0.0 < s < spec.t:
        raise DomainError("bridge time must satisfy 0 < s < t")
    x0, x = np.asarray(spec.x0), np.asarray(spec.x)
    za = as_coords(z)
    num = heat_kernel(s, za - x0) * heat_kernel(spec.t - s, np.asarray(x) - za)
    return num / heat_kernel(spec.t, x - x0)


def bridge_density_euclid(spec, s, z, form="collapsed"):
    """Euclidean bridge density p_{t,x0,x}(s, z).

    ``form="ratio"`` is the kernel ratio p(s, x0-z) p(t-s, z-x) / p(t, x0-x);
    ``form="collapsed"`` the equivalent single Gaussian
    p(s (t-s)/t, z - (x0 + (s/t)(x - x0))).  They agree to ~1e-12.
    """
    if not 0.0 < s < spec.t:
        raise DomainError("bridge time must satisfy 0 < s < t")
    x0, x = np.asarray(spec.x0), np.asarray(spec.x)
    za = as_coords(z)
    t = spec.t
    if form == "ratio":
        return (gauss_kernel(s, x0 - za) * gauss_kernel(t - s, za - x)
                / gauss_kernel(t, x0 - x))
    if form == "collapsed":
        mean = x0 + (s / t) * (x - x0)
        return gauss_kernel(s * (t - s) / t, za - mean)
    raise DomainError(f"unknown form {form!r}")


def comparison_constants(eps):
    """(c_eps, C_eps) of the large-time bridge comparison:

    c_eps = sqrt(eps) / (2 sqrt(pi) + sqrt(2 eps)) * e^{-pi^2/(2 eps)} / (2 sqrt(2)),
    C_eps = 2 (1 + sqrt(2 pi / eps)) e^{pi^2 / eps}.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    c = (math.sqrt(eps) / (2.0 * math.sqrt(math.pi) + math.sqrt(2.0 * eps))
         * math.exp(-math.pi**2 / (2.0 * eps)) / (2.0 * math.sqrt(2.0)))
    big = 2.0 * (1.0 + math.sqrt(TWO_PI / eps)) * math.exp(math.pi**2 / eps)
    return c, big


def corrected_comparison_constants(eps):
    """Repaired lower constant for the large-time comparison.

    Tracking the kernel ratio G(t-s, z, x) / G(t, x0, x) directly gives
    p(t-s, .) / p(t, .) >= exp(-pi^2 / (2 (t-s))) >= exp(-pi^2 / eps) for
    s <= t/2, t >= eps, so the exponent is -pi^2/eps, not -pi^2/(2 eps);
    with that exponent the sandwich holds right down to t = eps, where the
    constant of :func:`comparison_constants` admits counterexamples.
    The upper constant is unchanged.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    c = (math.sqrt(eps) / (2.0 * math.sqrt(math.pi) + math.sqrt(2.0 * eps))
         * 0.5 * math.exp(-math.pi**2 / eps))
    return c, comparison_constants(eps)[1]


# Joe & Kuo's (SIAM J. Sci. Comput. 30, 2008) primitive polynomial and
# initial direction integers of Sobol dimensions 1-31 in scipy's
# numbering; every direction integer of dimension 0 is 1
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)
_BITS = 30


def _sobol_directions(dim):
    """The (dim, 30) direction integers, each left-aligned at 30 bits
    (Bratley & Fox's recurrence on the primitive polynomial)."""
    rows = [[1] * _BITS]
    for poly, init in _JOE_KUO[:dim - 1]:
        s = len(init)
        v = list(init)
        for j in range(s, _BITS):
            new = v[j - s] ^ (v[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= v[j - k] << k
            v.append(new)
        rows.append(v)
    return np.array(rows, dtype=np.int64) << np.arange(_BITS - 1, -1, -1)


def _sobol_box(n_samples, dim, seed):
    """The first n_samples points of
    ``qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)``, bit for
    bit: the scramble is drawn from ``default_rng(seed)`` in scipy's order
    (the shift digits, then the lower-triangular matrices), and the points
    follow Gray-code order from the shift."""
    if dim > 1 + len(_JOE_KUO):
        raise DomainError(f"a Sobol sweep in dimension {dim} exceeds the "
                          f"{1 + len(_JOE_KUO)} embedded Joe-Kuo dimensions")
    rng = np.random.default_rng(seed)
    bit = np.arange(_BITS)
    # the shift's digits come least significant first, the scramble's
    # rows and columns most significant first
    shift = rng.integers(0, 2, size=(dim, _BITS), dtype=np.uint32) @ (1 << bit)
    lower = np.tril(rng.integers(0, 2, size=(dim, _BITS, _BITS),
                                 dtype=np.uint32)).astype(np.int64)
    lower[:, bit, bit] = 1
    place = _BITS - 1 - bit
    digits = _sobol_directions(dim)[:, :, None] >> place & 1
    directions = (np.einsum("dpi,dji->djp", lower, digits) & 1) @ (1 << place)
    # point k flips the direction numbered by the trailing zeros of k
    k = np.arange(1, n_samples)
    points = np.empty((n_samples, dim), dtype=np.int64)
    points[0] = shift
    points[1:] = directions.T[np.frexp(k & -k)[1] - 1]
    return np.bitwise_xor.accumulate(points, axis=0, out=points) * 2.0**-_BITS


def _check_sweep(d, n_samples):
    if d < 1:
        raise DomainError(f"d = {d} must be >= 1")
    if n_samples < 1:
        raise DomainError(f"n_samples = {n_samples} must be >= 1")


def check_large_time_bound(eps, t, d=1, n_samples=10_000, seed=0, corrected=False):
    """Sweep the sandwich c_eps^d G(s,x0,z) <= G_{t,x0,x}(s,z) <= C_eps^d G(s,x0,z)
    over (s, x0, x, z) with s in (0, t/2]; returns the violation count
    (expected zero) and the extreme ratios."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps = {eps:g} must be positive and finite")
    _check_sweep(d, n_samples)
    if t < eps:
        raise DomainError("the comparison needs t >= eps")
    c_eps, big_eps = (corrected_comparison_constants(eps) if corrected
                      else comparison_constants(eps))
    u = _sobol_box(n_samples, 1 + 3 * d, seed)
    s = u[:, 0] * (t / 2.0 - 1e-9) + 1e-9
    pts = u[:, 1:] * TWO_PI - math.pi
    x0, x, z = pts[:, :d], pts[:, d:2 * d], pts[:, 2 * d:]

    # the G(s, x0, z) factor cancels in the ratio, which keeps every
    # remaining kernel at diffusion time >= t/2 >= eps/2
    ratio = heat_kernel(t - s, x - z) / heat_kernel(t, x - x0)
    lo, hi = c_eps**d, big_eps**d
    violations = int(np.sum((ratio < lo) | (ratio > hi)))
    return {
        "eps": eps, "t": t, "d": d, "n_samples": n_samples, "seed": seed,
        "corrected": corrected,
        "violations": violations,
        "ratio_min": float(np.min(ratio)), "ratio_max": float(np.max(ratio)),
        "lower": lo, "upper": hi,
        "pass": violations == 0,
    }


def _logsumexp(a):
    """log(sum(exp(a))) over the first axis, in scipy.special.logsumexp's
    form (and to its bits): the entries equal to the maximum are counted,
    not summed, so one dominant term loses no digits to log(1 + tiny)."""
    top = np.max(a, axis=0)
    at_top = a == top
    m = np.sum(at_top, axis=0, dtype=float)
    s = np.sum(np.exp(np.where(at_top, -np.inf, a - top)), axis=0)
    return np.log1p(s / m) + np.log(m) + top


def _log_image_sum(t, s, x0, x, z):
    """log of the 3^d-term Euclidean bridge image sum, vectorized; stays
    finite where every single Gaussian underflows."""
    x0a, xa, za = as_coords(x0), as_coords(x), as_coords(z)
    d = x0a.shape[-1]
    shifts = cube_points([-TWO_PI, 0.0, TWO_PI], d)
    tau = s * (t - s) / t
    frac = np.asarray(s / t)
    logs = []
    for k in shifts:
        mean = x0a + frac[..., None] * (xa + k - x0a)
        sq = np.sum((za - mean) ** 2, axis=-1)
        logs.append(-0.5 * d * np.log(TWO_PI * tau) - sq / (2.0 * tau))
    return _logsumexp(np.stack(logs, axis=0))


def _log_bridge_and_envelope(t, s, x0, x, z):
    """The logs of both sides of the small-time image-sum bound."""
    log_bridge = (log_heat_kernel(s, z - x0) + log_heat_kernel(t - s, x - z)
                  - log_heat_kernel(t, x - x0))
    log_env = _log_image_sum(t, s, x0, x, z) + x0.shape[-1] * np.log1p(np.sqrt(t))
    return log_bridge, log_env


def check_image_sum_bound(t, s, x0, x, z):
    """Pointwise report for the small-time bound
    G_{t,x0,x}(s,z) <= C (1 + sqrt(t))^d sum_{k in Pi^d} p_{t,x0,x+k}(s,z).

    Requires z - x0 componentwise in [-pi, pi); returns the smallest C
    making the bound hold at the point.
    """
    x0a, xa, za = as_coords(x0), as_coords(x), as_coords(z)
    if not 0.0 < s < t:
        raise DomainError("need 0 < s < t")
    if np.any(za - x0a < -math.pi) or np.any(za - x0a >= math.pi):
        raise DomainError("z - x0 must lie in [-pi, pi)^d")
    log_bridge, log_env = _log_bridge_and_envelope(t, s, x0a, xa, za)
    return {
        "bridge": float(np.exp(log_bridge)),
        "envelope": float(np.exp(log_env)),
        "c_fit": float(np.exp(log_bridge - log_env)),
    }


def fit_image_sum_constant(d=1, n_samples=10_000, seed=0):
    """Fitted universal constant of the small-time bound over a Sobol sweep
    with t <= t_max = 1; the sweep keeps z inside the window around x0."""
    _check_sweep(d, n_samples)
    t_max = 1.0
    u = _sobol_box(n_samples, 2 + 3 * d, seed)
    t = u[:, 0] * (t_max - 1e-6) + 1e-6
    s = u[:, 1] * t * (1.0 - 2e-6) + 1e-6 * t
    x0 = u[:, 2:2 + d] * TWO_PI - math.pi
    x = u[:, 2 + d:2 + 2 * d] * TWO_PI - math.pi
    z = x0 + (u[:, 2 + 2 * d:] * TWO_PI - math.pi)
    log_bridge, log_env = _log_bridge_and_envelope(t, s, x0, x, z)
    ratios = np.exp(log_bridge - log_env)
    return {
        "d": d, "n_samples": n_samples, "t_max": t_max, "seed": seed,
        "c_fit": float(np.max(ratios)),
        "ratio_median": float(np.median(ratios)),
    }
