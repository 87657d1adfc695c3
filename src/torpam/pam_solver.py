"""Spectral exponential-Euler solver for the multiplicative-noise heat
equation on the torus.

One step applies the exact heat semigroup to the current field plus the
Ito-coupled noise term: in Fourier variables

    u_{n+1}(k) = exp(-|k|^2 dt / 2) * (u_n(k) + lambda * F[u_n dW_n](k)),

with the noise increment sampled independently of u_n (left-point
coupling) on exactly the solver's retained mode set, so the discrete Ito
isometry matches the sampled covariance.  The product u dW is formed on
the grid; with dealiasing on, the grid must hold 3*kmax+1 points so the
retained modes of the product are alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import NoiseSpec
from .errors import AliasingError, DomainError, NumericsError
from .heat_kernel import TWO_PI, as_coords, heat_kernel
from .noise_field import (IncrementSampler, grid_points, grid_to_modes,
                          modes_to_grid, step_rng)


@dataclass(frozen=True)
class InitialMeasure:
    """Finite nonnegative initial measure: uniform mass, a grid density,
    point atoms, or a smoothed delta."""

    variant: str
    mass: float = 1.0
    density: np.ndarray | None = None
    atoms: tuple = ()
    x0: tuple = (0.0,)
    t0: float = 0.0

    @classmethod
    def uniform(cls, mass=1.0):
        if mass < 0:
            raise DomainError("mass must be nonnegative")
        return cls(variant="uniform", mass=float(mass))

    @classmethod
    def from_density(cls, values):
        arr = np.asarray(values, dtype=float)
        if np.any(arr < 0):
            raise DomainError("density must be nonnegative")
        return cls(variant="density", density=arr)

    @classmethod
    def point_atoms(cls, atoms):
        atoms = tuple((tuple(np.atleast_1d(np.asarray(x, float))), float(m))
                      for x, m in atoms)
        if any(m < 0 for _, m in atoms):
            raise DomainError("atom masses must be nonnegative")
        return cls(variant="atoms", atoms=atoms)

    @classmethod
    def delta(cls, x0, smoothing_time):
        if smoothing_time <= 0:
            raise DomainError("delta data needs a positive smoothing time")
        return cls(variant="delta", x0=tuple(np.atleast_1d(np.asarray(x0, float))),
                   t0=float(smoothing_time))

    def total_mass(self, d):
        if self.variant == "uniform":
            return self.mass
        if self.variant == "density":
            n = self.density.shape[0]
            return float(np.sum(self.density) * (TWO_PI / n) ** d)
        if self.variant == "atoms":
            return float(sum(m for _, m in self.atoms))
        if self.variant == "delta":
            return 1.0
        raise DomainError(f"unknown variant {self.variant}")


def j0(t, x, mu, d=None):
    """Homogeneous solution J_0(t, x) = int G(t, x, y) mu(dy)."""
    if t <= 0.0:
        raise DomainError("j0 requires t > 0")
    xa = as_coords(x)
    if d is None:
        d = xa.shape[-1]
    if mu.variant == "uniform":
        return float(mu.mass) * TWO_PI ** (-d) * np.ones(np.shape(t))\
            if np.ndim(t) else float(mu.mass) * TWO_PI ** (-d)
    if mu.variant == "atoms":
        total = 0.0
        for pos, m in mu.atoms:
            total = total + m * heat_kernel(t, xa - np.asarray(pos))
        return float(total) if np.ndim(total) == 0 else total
    if mu.variant == "delta":
        return heat_kernel(t, xa - np.asarray(mu.x0))
    if mu.variant == "density":
        n = mu.density.shape[0]
        pts = grid_points(n, d)
        vals = heat_kernel(t, xa[..., None, :] - pts)
        return np.sum(vals * mu.density.ravel(), axis=-1) * (TWO_PI / n) ** d
    raise DomainError(f"unknown variant {mu.variant}")


@dataclass(frozen=True)
class SolverConfig:
    """Grid, mode cutoff, time step and horizon of one simulation."""

    spec: NoiseSpec
    grid_n: int
    mode_k: int
    dt: float
    t_final: float
    dealias: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < self.dt:
            raise DomainError("need 0 < dt <= t_final")
        need = 3 * self.mode_k + 1 if self.dealias else 2 * self.mode_k + 1
        if self.grid_n < need:
            raise AliasingError(
                f"grid_n={self.grid_n} < {need} required for mode_k={self.mode_k}"
                f" (dealias={self.dealias})")
        if self.spec.d not in (1, 2):
            raise DomainError("solver implemented for d in {1, 2}")

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Output times, fields u(t_n, .) and full provenance."""

    times: np.ndarray
    fields: np.ndarray
    seed: int
    config: SolverConfig
    positivity_violations: int = 0


def _heat_factor(config):
    d = config.spec.d
    kmax = config.mode_k
    ks = np.arange(-kmax, kmax + 1).astype(float)
    if d == 1:
        sq = ks**2
    else:
        sq = ks[:, None] ** 2 + ks[None, :] ** 2
    return np.exp(-sq * config.dt / 2.0)


def initial_field(config, mu):
    """Grid field at the stepping start time (t0 for delta data, else 0+).

    Uniform and density data start at their own values; atoms and deltas
    start from the heat-smoothed kernel at t0 (default dt)."""
    n, d = config.grid_n, config.spec.d
    pts = grid_points(n, d)
    shape = (n,) * d
    if mu.variant == "uniform":
        return np.full(shape, mu.mass * TWO_PI ** (-d)), 0.0
    if mu.variant == "density":
        if mu.density.shape != shape:
            raise DomainError("density grid must match solver grid")
        return mu.density.astype(float).copy(), 0.0
    t0 = mu.t0 if mu.variant == "delta" and mu.t0 > 0 else config.dt
    vals = np.zeros(len(pts))
    if mu.variant == "delta":
        vals = heat_kernel(t0, pts - np.asarray(mu.x0))
    else:
        for pos, m in mu.atoms:
            vals = vals + m * heat_kernel(t0, pts - np.asarray(pos))
    return vals.reshape(shape), t0


def _march(config, mu, seed, n_paths, output_times, stream=0):
    """Exponential-Euler march of n_paths fields batched over the grid:
    yields ``(t, u, keep)`` at the start and after every step, u indexed
    (path, grid...) and ``keep`` marking the requested output times.
    Raises NumericsError naming the first step with a non-finite field."""
    config.spec.require_dalang()
    u0, t_start = initial_field(config, mu)
    u = np.broadcast_to(u0, (n_paths,) + u0.shape).copy()
    heat = _heat_factor(config)
    sampler = IncrementSampler(config.spec, config.mode_k, config.grid_n,
                               config.dt)
    d, kmax, n = config.spec.d, config.mode_k, config.grid_n
    lam = config.spec.lam
    keep = _output_mask(config, t_start, output_times)
    yield t_start, u, keep[0]
    for nstep in range(config.n_steps):
        rng = step_rng(seed, nstep, stream=stream)
        dw_modes = sampler.sample_modes(rng, n_batch=n_paths)
        dw = np.real(modes_to_grid(dw_modes, kmax, n, d))
        prod = grid_to_modes(u * dw, kmax, n, d)
        u_modes = grid_to_modes(u, kmax, n, d)
        u = np.real(modes_to_grid(heat * (u_modes + lam * prod), kmax, n, d))
        t_now = t_start + (nstep + 1) * config.dt
        if not np.isfinite(u).all():
            raise NumericsError(f"non-finite field after step {nstep + 1}"
                                f" of {config.n_steps} (t = {t_now:g})")
        yield t_now, u, keep[nstep + 1]


def solve(config, mu, seed, output_times=None):
    """Simulate one trajectory; deterministic given (config, mu, seed).

    The one-path case of :func:`solve_ensemble`, plus a count of the steps
    after which the field has a negative value."""
    out_times, fields, neg = [], [], 0
    march = _march(config, mu, seed, 1, output_times)
    for nstep, (t, u, keep) in enumerate(march):
        if keep:
            fields.append(u[0].copy())
            out_times.append(t)
        if nstep:
            neg += int(np.min(u) < 0)
    return Trajectory(times=np.asarray(out_times), fields=np.asarray(fields),
                      seed=int(seed), config=config,
                      positivity_violations=neg)


def _output_mask(config, t_start, output_times):
    n = config.n_steps
    if output_times is None:
        return np.ones(n + 1, dtype=bool)
    mask = np.zeros(n + 1, dtype=bool)
    grid = t_start + config.dt * np.arange(n + 1)
    for t in np.atleast_1d(output_times):
        mask[int(np.argmin(np.abs(grid - t)))] = True
    return mask


def solve_ensemble(config, mu, seed, n_paths, output_times, stream=0):
    """Simulate n_paths independent trajectories batched over the grid.

    Per-step noise uses one Philox stream keyed by (stream, step index)
    and draws all paths at once; disjoint ``stream`` ids give independent
    ensembles for the same seed.  Returns (times, fields) with fields
    indexed (time, path, grid...).
    """
    outs, out_times = [], []
    for t, u, keep in _march(config, mu, seed, n_paths, output_times,
                             stream):
        if keep:
            outs.append(u.copy())
            out_times.append(t)
    return np.asarray(out_times), np.asarray(outs)
