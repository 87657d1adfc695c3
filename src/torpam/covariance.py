"""Spatial covariance of the colored torus noise.

The covariance ``f_{alpha,rho}`` has Fourier weight ``rho`` at mode zero
and ``|k|^(-2 alpha)`` elsewhere (up to the transform normalization), and
equivalently a representation as a Gamma-weighted time integral of the
centered heat kernel.  For ``alpha < d/2`` the Fourier series converges
only conditionally, so the spectral evaluator splits each weight with an
incomplete-gamma factor: a rapidly convergent lattice part plus a short
Gaussian-time integral.  The plain truncated partial sum (what a mode-
truncated sampler actually realizes) and the independent time-integral
quadrature are exposed separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import DalangViolation, DomainError, SingularityError
from .heat_kernel import (TWO_PI, as_coords, heat_kernel, signed_mod,
                          theta_eps)
from .lattice import lattice_vectors

DEFAULT_KMAX = {1: 24, 2: 12, 3: 8}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise and equation parameters (dimension, regularity, level, coupling)."""

    d: int
    alpha: float
    rho: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension d must be >= 1")
        if self.alpha <= 0.0:
            raise DomainError("alpha must be positive")
        if self.rho < 0.0:
            raise DomainError("rho must be nonnegative")
        # lam = 0 is admitted: the noise-free reduction is the solver's
        # basic oracle; growth-rate solvers reject it themselves

    @property
    def dalang_ok(self):
        return 2.0 * (self.alpha + 1.0) > self.d

    def require_dalang(self):
        if not self.dalang_ok:
            raise DalangViolation(
                f"2*(alpha+1) = {2 * (self.alpha + 1):g} must exceed d = {self.d}"
            )


def fourier_weight(spec, k):
    """Fourier weight theta_k of f: rho/(2 pi)^{d/2} at k = 0,
    |k|^{-2 alpha} (2 pi)^{-d/2} otherwise."""
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    norm_sq = float(np.sum(karr * karr))
    if norm_sq == 0.0:
        return spec.rho * TWO_PI ** (-spec.d / 2.0)
    return norm_sq ** (-spec.alpha) * TWO_PI ** (-spec.d / 2.0)


def _ewald_eta(kmax):
    # direct-sum weights carry exp(-eta |k|^2); at |k| = kmax they are
    # below 1e-16 so the neglected tail is certified tiny
    return math.log(1e16) / kmax**2


def _gaussian_part(spec, x, eta, quad_tol=1e-12):
    """(1/Gamma(alpha)) * int_0^eta u^{a-1} [(2 pi)^d G(2u, x) - 1] du.

    The substitution tau = u^alpha absorbs the endpoint power; scipy's
    adaptive rule then resolves the Gaussian peak near u ~ |x|^2 on its own.
    """
    a, d = spec.alpha, spec.d
    xa = signed_mod(as_coords(x))

    def integrand(tau):
        u = tau ** (1.0 / a)
        return TWO_PI**d * float(heat_kernel(2.0 * u, xa)) - 1.0

    # hint the adaptive rule at the Gaussian peak u ~ |x|^2/(2d) when the
    # evaluation point sits close to the singularity
    sq = float(np.sum(xa * xa))
    pts = None
    if 0.0 < sq and (sq / (2.0 * d)) < eta:
        tau_peak = (sq / (2.0 * d)) ** a
        pts = [0.5 * tau_peak, tau_peak, min(4.0 * tau_peak, eta**a)]
    with warnings.catch_warnings():
        # roundoff-limited accuracy right at the singular peak is expected;
        # the reported tail bound covers it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, 0.0, eta**a, epsabs=quad_tol,
                                epsrel=quad_tol, limit=400, points=pts)
    return val / (a * math.gamma(a))


def covariance_eval(spec, x, kmax=None, full_output=False):
    """Spectral evaluation of f_{alpha,rho}(x).

    Each lattice weight |k|^{-2 alpha} is split by the regularized
    incomplete gamma at scale eta ~ log(1e16)/kmax^2: the upper part gives
    an absolutely convergent direct sum over |k|_inf <= kmax, the lower
    part collapses by Poisson summation to a short time integral of the
    Gaussian image kernel.  Exact up to the reported tail bound.

    With ``full_output`` returns ``(value, tail_bound)``.
    """
    if kmax is None:
        kmax = DEFAULT_KMAX.get(spec.d, 8)
    xa = signed_mod(as_coords(x))
    if xa.shape[-1] != spec.d:
        raise DomainError(f"point has dimension {xa.shape[-1]}, spec has {spec.d}")
    if np.all(xa == 0.0) and spec.alpha <= spec.d / 2.0:
        raise SingularityError("f is singular at x = 0 for alpha <= d/2")

    eta = _ewald_eta(kmax)
    vecs = lattice_vectors(spec.d, kmax).astype(float)
    norm_sq = np.sum(vecs * vecs, axis=-1)
    damped = norm_sq ** (-spec.alpha) * special.gammaincc(spec.alpha, eta * norm_sq)
    direct = float(np.sum(damped * np.cos(vecs @ xa)))
    gauss = _gaussian_part(spec, xa, eta)
    value = TWO_PI ** (-spec.d) * (spec.rho + direct + gauss)

    if not full_output:
        return value
    # neglected direct terms |k|_inf > kmax: bound each Q-factor by its
    # large-argument form and compare the shell sum to a radial integral
    r2_tail = float(kmax**2)
    q_tail = special.gammaincc(spec.alpha, eta * r2_tail)
    omega = 2.0 * math.pi ** (spec.d / 2.0) / math.gamma(spec.d / 2.0)
    shell = omega * max(kmax, 1) ** (spec.d - 1)
    tail = TWO_PI ** (-spec.d) * q_tail * shell * r2_tail ** (-spec.alpha) * 4.0
    return value, tail


def covariance_eval_batch(spec, xs, kmax=None, n_panel=48):
    """Vectorized spectral evaluation on an array of points (n, d).

    Same split as :func:`covariance_eval` but with a fixed composite
    Gauss-Legendre rule on geometric panels for the Gaussian part, so large
    grids (threshold scans) stay cheap.  Points closer to 0 than ~1e-3
    should use the scalar evaluator.
    """
    if kmax is None:
        kmax = DEFAULT_KMAX.get(spec.d, 8)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xs = signed_mod(xs)
    eta = _ewald_eta(kmax)
    a, d = spec.alpha, spec.d

    vecs = lattice_vectors(d, kmax).astype(float)
    norm_sq = np.sum(vecs * vecs, axis=-1)
    damped = norm_sq ** (-a) * special.gammaincc(a, eta * norm_sq)
    direct = np.cos(xs @ vecs.T) @ damped

    nodes, weights = np.polynomial.legendre.leggauss(n_panel)
    edges = eta**a * np.array([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    gauss = np.zeros(xs.shape[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        tau = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        w = 0.5 * (hi - lo) * weights
        u = tau ** (1.0 / a)
        vals = TWO_PI**d * heat_kernel(u[:, None] * 2.0, xs[None, :, :]) - 1.0
        gauss += vals.T @ w
    gauss /= a * math.gamma(a)
    return TWO_PI ** (-d) * (spec.rho + direct + gauss)


def covariance_truncated(spec, x, kmax):
    """Plain symmetric partial sum over |k|_inf <= kmax.

    This is exactly the covariance realized by a mode-truncated sampler;
    it converges to f only conditionally when alpha < d/2.
    """
    xa = signed_mod(as_coords(x))
    vecs = lattice_vectors(spec.d, kmax).astype(float)
    norm_sq = np.sum(vecs * vecs, axis=-1)
    direct = np.cos(np.tensordot(xa, vecs.T, axes=([-1], [0]))) @ (norm_sq ** (-spec.alpha))
    return TWO_PI ** (-spec.d) * (spec.rho + direct)


def covariance_eval_integral(spec, x, quad_tol=1e-12):
    """Time-integral evaluation of f_{alpha,rho}(x); the independent oracle.

    f(x) = rho (2 pi)^{-d}
         + (1/Gamma(a)) int_0^oo u^{a-1} (G(2u, x) - (2 pi)^{-d}) du,

    split at u = 1.  The short part is integrated after tau = u^alpha,
    which removes the endpoint power exactly; the long part decays like
    exp(-u) and goes straight to an adaptive rule on (1, oo).
    """
    a, d = spec.alpha, spec.d
    xa = signed_mod(as_coords(x))
    if xa.shape[-1] != d:
        raise DomainError(f"point has dimension {xa.shape[-1]}, spec has {d}")
    if np.all(xa == 0.0) and a <= d / 2.0:
        raise SingularityError("f is singular at x = 0 for alpha <= d/2")
    flat = TWO_PI ** (-d)

    def short_integrand(tau):
        u = tau ** (1.0 / a)
        return float(heat_kernel(2.0 * u, xa)) - flat

    short, short_err = integrate.quad(short_integrand, 0.0, 1.0,
                                      epsabs=quad_tol, epsrel=quad_tol,
                                      limit=500)
    short /= a

    def long_integrand(u):
        return u ** (a - 1.0) * (float(heat_kernel(2.0 * u, xa)) - flat)

    long_part, long_err = integrate.quad(long_integrand, 1.0, np.inf,
                                         epsabs=quad_tol, epsrel=quad_tol,
                                         limit=200)
    if not (np.isfinite(short) and np.isfinite(long_part)):
        raise ArithmeticError(
            f"covariance quadrature failed at x={xa}: short={short}, long={long_part}"
        )
    return spec.rho * flat + (short + long_part) / math.gamma(a)


def rho_star(alpha, d, n_grid=None, kmax=None):
    """Positivity threshold of rho -> f_{alpha,rho}.

    Estimates rho* = (2 pi)^d * (-min f_{alpha,0}) on a grid that avoids
    the origin by one cell, and reports the analytic sufficient level
    (2 pi)^{-d/2} / Gamma(alpha+1) + (2 pi)^{d/2} 2^alpha Theta_{1,d},
    which is known not to be sharp.
    """
    if n_grid is None:
        n_grid = 4096 if d == 1 else 181
    spec0 = NoiseSpec(d=d, alpha=alpha, rho=0.0, lam=1.0)
    axis = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
    if d == 1:
        pts = axis[axis != 0.0][:, None]
    elif d == 2:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        pts = pts[np.any(pts != 0.0, axis=-1)]
    else:
        raise DomainError("rho_star grid scan implemented for d in {1, 2}")
    vals = covariance_eval_batch(spec0, pts, kmax=kmax)
    grid_min = float(np.min(vals))
    est = TWO_PI**d * max(0.0, -grid_min)
    sufficient = (TWO_PI ** (-d / 2.0) / math.gamma(alpha + 1.0)
                  + TWO_PI ** (d / 2.0) * 2.0**alpha * theta_eps(1.0, d))
    return {
        "rho_star_est": est,
        "rho_sufficient": sufficient,
        "grid_min": grid_min,
        "n_grid": n_grid,
    }


def c_alpha_d(spec, kmax=128):
    """C_{alpha,d} = (2 pi)^{-d/2} sum_{k != 0} |k|^{-2 alpha - 2},
    the time-integral budget of the lattice part of k1."""
    spec.require_dalang()
    from .lattice import zeta_lattice

    return TWO_PI ** (-spec.d / 2.0) * zeta_lattice(spec.d, 2.0 * spec.alpha + 2.0, kmax)
