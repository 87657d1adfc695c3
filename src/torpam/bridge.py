"""Pinned Brownian motion (bridge) densities on the torus and on R^d,
with the two comparison estimates that link them.

The torus bridge is the heat-kernel ratio; for t above a threshold it is
comparable to the unpinned torus kernel with explicit constants
``(c_eps, C_eps)``, and for all t it is dominated by a 3^d-image sum of
Euclidean bridges up to a universal constant that we fit numerically.
Sweeps use a scrambled Sobol sequence so every report is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from scipy.special import logsumexp

from .errors import DomainError
from .heat_kernel import (TWO_PI, as_coords, gauss_kernel, heat_kernel,
                          log_heat_kernel)


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


def _sobol_box(n_samples, dim, seed):
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(1, math.ceil(math.log2(n_samples)))
    return eng.random_base2(m)[:n_samples]


def check_large_time_bound(eps, t, d=1, n_samples=10_000, seed=0, corrected=False):
    """Sweep the sandwich c_eps^d G(s,x0,z) <= G_{t,x0,x}(s,z) <= C_eps^d G(s,x0,z)
    over (s, x0, x, z) with s in (0, t/2]; returns the violation count
    (expected zero) and the extreme ratios."""
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


def _log_image_sum(t, s, x0, x, z):
    """log of the 3^d-term Euclidean bridge image sum, vectorized; stays
    finite where every single Gaussian underflows."""
    x0a, xa, za = as_coords(x0), as_coords(x), as_coords(z)
    d = x0a.shape[-1]
    shifts = np.array(np.meshgrid(*([[-TWO_PI, 0.0, TWO_PI]] * d),
                                  indexing="ij")).reshape(d, -1).T
    tau = s * (t - s) / t
    frac = np.asarray(s / t)
    logs = []
    for k in shifts:
        mean = x0a + frac[..., None] * (xa + k - x0a)
        sq = np.sum((za - mean) ** 2, axis=-1)
        logs.append(-0.5 * d * np.log(TWO_PI * tau) - sq / (2.0 * tau))
    return logsumexp(np.stack(logs, axis=0), axis=0)


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
    d = x0a.shape[-1]
    log_bridge = (log_heat_kernel(s, za - x0a) + log_heat_kernel(t - s, xa - za)
                  - log_heat_kernel(t, xa - x0a))
    log_env = _log_image_sum(t, s, x0a, xa, za) + d * math.log1p(math.sqrt(t))
    return {
        "bridge": float(np.exp(log_bridge)),
        "envelope": float(np.exp(log_env)),
        "c_fit": float(np.exp(log_bridge - log_env)),
    }


def fit_image_sum_constant(d=1, n_samples=10_000, t_max=1.0, seed=0):
    """Fitted universal constant of the small-time bound over a Sobol sweep
    with t <= t_max; the sweep keeps z inside the window around x0."""
    u = _sobol_box(n_samples, 2 + 3 * d, seed)
    t = u[:, 0] * (t_max - 1e-6) + 1e-6
    s = u[:, 1] * t * (1.0 - 2e-6) + 1e-6 * t
    x0 = u[:, 2:2 + d] * TWO_PI - math.pi
    x = u[:, 2 + d:2 + 2 * d] * TWO_PI - math.pi
    z = x0 + (u[:, 2 + 2 * d:] * TWO_PI - math.pi)

    log_bridge = (log_heat_kernel(s, z - x0) + log_heat_kernel(t - s, x - z)
                  - log_heat_kernel(t, x - x0))
    log_env = _log_image_sum(t, s, x0, x, z) + d * np.log1p(np.sqrt(t))
    ratios = np.exp(log_bridge - log_env)
    return {
        "d": d, "n_samples": n_samples, "t_max": t_max, "seed": seed,
        "c_fit": float(np.max(ratios)),
        "ratio_median": float(np.median(ratios)),
    }
