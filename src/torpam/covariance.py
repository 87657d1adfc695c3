"""Spatial covariance of the colored torus noise.

The covariance ``f_{alpha,rho}`` has the Fourier weights of
:func:`mode_weight`, and equivalently a representation as a Gamma-weighted
time integral of the centered heat kernel.  For ``alpha < d/2`` the Fourier
series converges only conditionally, so the spectral evaluator splits each
weight with an incomplete-gamma factor: a rapidly convergent lattice part
plus a short Gaussian-time integral.  The plain truncated partial sum (what
a mode-truncated sampler realizes) and the independent time-integral
quadrature are exposed separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DalangViolation, DomainError, NumericsError, SingularityError
from .heat_kernel import (TWO_PI, as_coords, heat_kernel, signed_mod,
                          theta_eps)
from .lattice import cube_points, lattice_vectors, sphere_area, zeta_lattice

DEFAULT_KMAX = {1: 24, 2: 12, 3: 8}

# absolute and relative tolerance of the adaptive covariance quadratures
_QUAD_TOL = 1e-12

# iteration cap of the incomplete-gamma series and continued fraction; the
# Ewald arguments (a < 3/2, x < 111) converge within ~100 iterations
_Q_MAX_ITER = 500


@dataclass(frozen=True)
class NoiseSpec:
    """Noise and equation parameters (dimension, regularity, level, coupling)."""

    d: int
    alpha: float
    rho: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("rho", self.rho),
                            ("lam", self.lam)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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


def mode_weight(spec, norm_sq):
    """Fourier weight theta~_k of the noise on squared lattice norms |k|^2,
    elementwise: rho at 0 and |k|^{-2 alpha} elsewhere.  The covariance is
    f(x) = (2 pi)^{-d} sum_k theta~_k e^{ikx}; on the orthonormal modes
    (2 pi)^{-d/2} e^{ikx} the weight is theta_k = (2 pi)^{-d/2} theta~_k."""
    norm_sq = np.asarray(norm_sq, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(norm_sq == 0.0, spec.rho, norm_sq ** (-spec.alpha))


def _point(spec, x):
    """Point(s) x reduced to [-pi, pi)^d; refuses a dimension other than d."""
    xa = signed_mod(as_coords(x))
    if xa.shape[-1] != spec.d:
        raise DomainError(f"point has dimension {xa.shape[-1]}, spec has {spec.d}")
    return xa


def _upper_gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) elementwise, a > 0, x >= 0:
    below x = a + 1 as 1 - P from the power series of P, above it by the
    continued fraction in modified-Lentz form (Gautschi, ACM TOMS 5, 1979).
    Each element iterates until its next term or factor is below roundoff;
    one still short of that at the cap (a NaN never gets there) raises."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    eps = np.finfo(float).eps
    prefactor = flat**a * np.exp(-flat) / math.gamma(a)
    below = flat < a + 1.0
    # series: P = prefactor * sum_n x^n / (a (a+1) ... (a+n))
    low = np.flatnonzero(below)
    term = np.full(low.size, 1.0 / a)
    total = term.copy()
    # continued fraction: Q = prefactor / (b_0 + a_1 / (b_1 + a_2 / ...)),
    # a_n = -n (n - a), b_n = x + 2n + 1 - a; c starts at 1 / (Lentz's tiny
    # D_0), and a zero denominator turns into inf or NaN and so raises
    high = np.flatnonzero(~below)
    b = flat[high] + 1.0 - a
    c = np.full(high.size, np.inf)
    dd = 1.0 / b
    h = dd.copy()
    for n in range(1, _Q_MAX_ITER + 1):
        term *= flat[low] / (a + n)
        total += term
        done = np.abs(term) < np.abs(total) * eps
        out[low[done]] = 1.0 - prefactor[low[done]] * total[done]
        low, term, total = low[~done], term[~done], total[~done]

        an = -n * (n - a)
        b += 2.0
        dd = 1.0 / (an * dd + b)
        c = b + an / c
        h *= dd * c
        done = np.abs(dd * c - 1.0) < eps
        out[high[done]] = prefactor[high[done]] * h[done]
        high, b, c, dd, h = (high[~done], b[~done], c[~done], dd[~done],
                             h[~done])
        if low.size == high.size == 0:
            return out.reshape(x.shape)
    raise NumericsError(
        f"incomplete gamma Q({a:g}, x) did not converge in {_Q_MAX_ITER} "
        f"iterations at x = {flat[np.concatenate([low, high])][:3]}")


@lru_cache(maxsize=64)
def _ewald_weights(spec, kmax):
    """``(eta, vecs, damped)``: the split scale, the lattice |k|_inf <= kmax
    and its damped weights |k|^{-2 alpha} Q(alpha, eta |k|^2); computed once
    per (spec, kmax), the arrays read-only."""
    # direct-sum weights carry exp(-eta |k|^2); at |k| = kmax they are
    # below 1e-16 so the neglected tail is certified tiny
    eta = math.log(1e16) / kmax**2
    vecs = lattice_vectors(spec.d, kmax).astype(float)
    norm_sq = np.sum(vecs * vecs, axis=-1)
    damped = mode_weight(spec, norm_sq) * _upper_gamma_q(spec.alpha, eta * norm_sq)
    vecs.setflags(write=False)  # shared by every caller of the cache
    damped.setflags(write=False)
    return eta, vecs, damped


def _gaussian_part(spec, x, eta):
    """(1/Gamma(alpha)) * int_0^eta u^{a-1} [(2 pi)^d G(2u, x) - 1] du.

    The substitution tau = u^alpha absorbs the endpoint power; scipy's
    adaptive rule then resolves the Gaussian peak near u ~ |x|^2 on its own.
    """
    from scipy import integrate

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
        val, _ = integrate.quad(integrand, 0.0, eta**a, epsabs=_QUAD_TOL,
                                epsrel=_QUAD_TOL, limit=400, points=pts)
    return val / (a * math.gamma(a))


def covariance_eval(spec, x, kmax=None, full_output=False):
    """Spectral evaluation of f_{alpha,rho}(x).

    Each lattice weight |k|^{-2 alpha} is split by the regularized
    incomplete gamma at scale eta ~ log(1e16)/kmax^2: the upper part gives
    an absolutely convergent direct sum over |k|_inf <= kmax, the lower
    part collapses by Poisson summation to a short time integral of the
    Gaussian image kernel, evaluated by adaptive quadrature.

    With ``full_output`` returns ``(value, tail_bound)``.  The bound covers
    the lattice truncation only, not the quadrature: at d = 2, alpha 1.2,
    x = (1e-3, 0) the value is 6.4% high with a bound of 4.4e-18.
    """
    kmax = DEFAULT_KMAX.get(spec.d, 8) if kmax is None else kmax
    if kmax < 1:
        raise DomainError(f"kmax = {kmax} must be >= 1 for the spectral split")
    xa = _point(spec, x)
    if np.all(xa == 0.0) and spec.alpha <= spec.d / 2.0:
        raise SingularityError("f is singular at x = 0 for alpha <= d/2")

    eta, vecs, damped = _ewald_weights(spec, kmax)
    direct = float(np.sum(damped * np.cos(vecs @ xa)))
    gauss = _gaussian_part(spec, xa, eta)
    value = TWO_PI ** (-spec.d) * (spec.rho + direct + gauss)

    if not full_output:
        return value
    # neglected direct terms |k|_inf > kmax: bound each Q-factor by its
    # large-argument form and compare the shell sum to a radial integral
    r2_tail = float(kmax**2)
    q_tail = float(_upper_gamma_q(spec.alpha, eta * r2_tail))
    shell = sphere_area(spec.d) * kmax ** (spec.d - 1)
    tail = TWO_PI ** (-spec.d) * q_tail * shell * mode_weight(spec, r2_tail) * 4.0
    return value, tail


def covariance_eval_batch(spec, xs):
    """Vectorized spectral evaluation on an array of points (n, d).

    Same split as :func:`covariance_eval` at its default cutoff but with a
    fixed composite 48-node Gauss-Legendre rule on geometric panels for the
    Gaussian part, so large grids (threshold scans) stay cheap.  The rule
    loses accuracy near the origin: at d = 1, alpha 0.3, x = 1e-3 it is
    5.2e-5 low where the scalar evaluator is exact to 1e-13, while at d = 2,
    alpha 1.2, x = (1e-3, 0) it is 1.2e-9 low where the scalar evaluator is
    6.4% high.
    """
    xs = _point(spec, np.atleast_2d(xs))
    eta, vecs, damped = _ewald_weights(spec, DEFAULT_KMAX.get(spec.d, 8))
    direct = np.cos(xs @ vecs.T) @ damped
    a, d = spec.alpha, spec.d

    nodes, weights = np.polynomial.legendre.leggauss(48)
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
    xa = _point(spec, x)
    vecs = lattice_vectors(spec.d, kmax).astype(float)
    norm_sq = np.sum(vecs * vecs, axis=-1)
    direct = np.cos(np.tensordot(xa, vecs.T, axes=([-1], [0]))) @ mode_weight(spec, norm_sq)
    return TWO_PI ** (-spec.d) * (spec.rho + direct)


def covariance_eval_integral(spec, x):
    """Time-integral evaluation of f_{alpha,rho}(x); the independent oracle.

    f(x) = rho (2 pi)^{-d}
         + (1/Gamma(a)) int_0^oo u^{a-1} (G(2u, x) - (2 pi)^{-d}) du,

    split at u = 1.  The short part is integrated after tau = u^alpha,
    which removes the endpoint power exactly; the long part decays like
    exp(-u) and goes straight to an adaptive rule on (1, oo).
    """
    from scipy import integrate

    a, d = spec.alpha, spec.d
    xa = _point(spec, x)
    if np.all(xa == 0.0) and a <= d / 2.0:
        raise SingularityError("f is singular at x = 0 for alpha <= d/2")
    flat = TWO_PI ** (-d)

    def short_integrand(tau):
        u = tau ** (1.0 / a)
        return float(heat_kernel(2.0 * u, xa)) - flat

    short, short_err = integrate.quad(short_integrand, 0.0, 1.0,
                                      epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                                      limit=500)
    short /= a

    def long_integrand(u):
        return u ** (a - 1.0) * (float(heat_kernel(2.0 * u, xa)) - flat)

    long_part, long_err = integrate.quad(long_integrand, 1.0, np.inf,
                                         epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                                         limit=200)
    if not (np.isfinite(short) and np.isfinite(long_part)):
        raise ArithmeticError(
            f"covariance quadrature failed at x={xa}: short={short}, long={long_part}"
        )
    return spec.rho * flat + (short + long_part) / math.gamma(a)


def grid_minimum(spec, n_grid):
    """Minimum of f over the n_grid^d points of the [-pi, pi)^d linspace
    grid, the origin left out: one covariance_eval_batch call."""
    pts = cube_points(np.linspace(-math.pi, math.pi, n_grid, endpoint=False),
                      spec.d)
    return float(np.min(covariance_eval_batch(
        spec, pts[np.any(pts != 0.0, axis=-1)])))


def rho_star(alpha, d, n_grid=None):
    """Positivity threshold of rho -> f_{alpha,rho}.

    Estimates rho* = (2 pi)^d * (-min f_{alpha,0}) on a grid that avoids
    the origin by one cell, and reports the analytic sufficient level
    (2 pi)^{-d/2} / Gamma(alpha+1) + (2 pi)^{d/2} 2^alpha Theta_{1,d},
    which is known not to be sharp.
    """
    if d > 2:
        raise DomainError("rho_star grid scan implemented for d in {1, 2}")
    if n_grid is None:
        n_grid = {1: 4096, 2: 181}[d]
    grid_min = grid_minimum(NoiseSpec(d=d, alpha=alpha, rho=0.0, lam=1.0),
                            n_grid)
    est = TWO_PI**d * max(0.0, -grid_min)
    sufficient = (TWO_PI ** (-d / 2.0) / math.gamma(alpha + 1.0)
                  + TWO_PI ** (d / 2.0) * 2.0**alpha * theta_eps(1.0, d))
    return {
        "rho_star_est": est,
        "rho_sufficient": sufficient,
        "grid_min": grid_min,
        "n_grid": n_grid,
    }


def c_alpha_d(spec):
    """C_{alpha,d} = (2 pi)^{-d/2} sum_{k != 0} |k|^{-2 alpha - 2},
    the time-integral budget of the lattice part of k1."""
    spec.require_dalang()
    return TWO_PI ** (-spec.d / 2.0) * zeta_lattice(spec.d, 2.0 * spec.alpha + 2.0)
