"""Spectral exponential-Euler solver for the multiplicative-noise heat
equation on the torus.

One step applies the exact heat semigroup to the current field plus the
Ito-coupled noise term: in Fourier variables

    u_{n+1}(k) = exp(-|k|^2 dt / 2) * (u_n(k) + lambda * F[u_n dW_n](k)),

with the noise increment sampled independently of u_n (left-point
coupling) on exactly the solver's retained mode set, so the discrete Ito
isometry matches the sampled covariance.  The product u dW is formed on
the grid, which must hold 3*kmax+1 points so the retained modes of the
product are alias-free.

A step's noise depends only on its (seed, stream, step) key, never on the
field, so a batch large enough to pay for the hand-off (at least
``_PREFETCH_MIN`` grid values per step) draws and synthesizes the next
step's noise on one worker thread while the current step runs.  The same
calls are made on the same keys either way, so every output bit is too.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .covariance import NoiseSpec
from .errors import AliasingError, DomainError, NumericsError
from .heat_kernel import TWO_PI, as_coords, heat_kernel
from .lattice import cube_points
from .noise_field import (IncrementSampler, grid_points, grid_to_modes,
                          modes_to_grid, step_rng)


@dataclass(frozen=True, eq=False)
class InitialMeasure:
    """Finite nonnegative initial measure: uniform mass, a grid density or
    point atoms (smoothed until t0).  Two measures are equal when every
    field is, the density by shape and values."""

    variant: str
    mass: float = 1.0
    density: np.ndarray | None = None
    atoms: tuple = ()
    t0: float = 0.0

    def _key(self):
        dens = self.density
        return (self.variant, self.mass, self.atoms, self.t0,
                None if dens is None else (dens.shape, tuple(dens.flat)))

    def __eq__(self, other):
        return (self._key() == other._key()
                if isinstance(other, InitialMeasure) else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def uniform(cls, mass=1.0):
        if not (mass >= 0 and np.isfinite(mass)):
            raise DomainError(f"mass must be finite and nonnegative, got {mass}")
        return cls(variant="uniform", mass=float(mass))

    @classmethod
    def from_density(cls, values):
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise DomainError("density values must be finite and nonnegative")
        return cls(variant="density", density=arr)

    @classmethod
    def point_atoms(cls, atoms):
        atoms = tuple((tuple(np.atleast_1d(np.asarray(x, float))), float(m))
                      for x, m in atoms)
        if not all(m >= 0 and np.all(np.isfinite([*x, m])) for x, m in atoms):
            raise DomainError("atom masses must be finite and nonnegative, "
                              "and positions finite")
        return cls(variant="atoms", atoms=atoms)

    @classmethod
    def delta(cls, x0, smoothing_time):
        """A smoothed delta: one unit atom at x0, started at G(t, . - x0)."""
        if smoothing_time <= 0:
            raise DomainError("delta data needs a positive smoothing time")
        return replace(cls.point_atoms([(x0, 1.0)]), t0=float(smoothing_time))

    def total_mass(self, d):
        if self.variant == "uniform":
            return self.mass
        if self.variant == "density":
            n = self.density.shape[0]
            return float(np.sum(self.density) * (TWO_PI / n) ** d)
        if self.variant == "atoms":
            return float(sum(m for _, m in self.atoms))
        raise DomainError(f"unknown variant {self.variant}")

    def density_at(self, x):
        """The d = 1 density at the points x: mass / 2 pi for uniform data,
        periodic linear interpolation on its own grid (exact at the nodes)
        for a density.  Atoms have no bounded density and are refused."""
        if self.variant == "uniform":
            return np.full(np.shape(x), self.mass * TWO_PI ** (-1))
        if self.variant == "density" and self.density.ndim == 1:
            nodes = grid_points(self.density.shape[0], 1)[:, 0]
            return np.interp(x, nodes, self.density, period=TWO_PI)
        raise DomainError(f"{self.variant} data has no bounded d = 1 density")


def j0(t, x, mu, d=None):
    """Homogeneous solution J_0(t, x) = int G(t, x, y) mu(dy), one value per
    point of x (a float for a single point), at one time t."""
    if np.ndim(t) != 0:
        raise DomainError(f"j0 takes one time t, got shape {np.shape(t)}")
    if t <= 0.0:
        raise DomainError("j0 requires t > 0")
    xa = as_coords(x)
    if d is None:
        d = xa.shape[-1]
    if mu.variant == "uniform":
        total = np.full(xa.shape[:-1], float(mu.mass) * TWO_PI ** (-d))
    elif mu.variant == "atoms":
        total = np.zeros(xa.shape[:-1])
        for pos, m in mu.atoms:
            total = total + m * heat_kernel(t, xa - np.asarray(pos))
    elif mu.variant == "density":
        n = mu.density.shape[0]
        pts = grid_points(n, d)
        vals = heat_kernel(t, xa[..., None, :] - pts)
        total = np.sum(vals * mu.density.ravel(), axis=-1) * (TWO_PI / n) ** d
    else:
        raise DomainError(f"unknown variant {mu.variant}")
    return float(total) if np.ndim(total) == 0 else total


def whole_steps(t, dt, t_name, dt_name):
    """The number of steps dt in the horizon t >= 0, refused unless whole."""
    for name, value in ((t_name, t), (dt_name, dt)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value:g}")
    if dt <= 0:
        raise DomainError(f"{dt_name} = {dt:g} must be positive")
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * abs(t):
        raise DomainError(f"{t_name} = {t:g} is not a whole number of steps "
                          f"{dt_name} = {dt:g}; {n} steps reach {n * dt:.12g}")
    if t < 0:
        raise DomainError(f"{t_name} = {t:g} is negative")
    return n


@dataclass(frozen=True)
class SolverConfig:
    """Grid, mode cutoff, time step and horizon of one simulation."""

    spec: NoiseSpec
    grid_n: int
    mode_k: int
    dt: float
    t_final: float

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < self.dt:
            raise DomainError("need 0 < dt <= t_final")
        whole_steps(self.t_final, self.dt, "t_final", "dt")
        need = 3 * self.mode_k + 1
        if self.grid_n < need:
            raise AliasingError(
                f"grid_n={self.grid_n} < {need} required for mode_k={self.mode_k}")
        if self.spec.d > 2:
            raise DomainError("solver implemented for d in {1, 2}")

    @property
    def n_steps(self):
        return whole_steps(self.t_final, self.dt, "t_final", "dt")


@dataclass(frozen=True)
class Trajectory:
    """Output times, fields u(t_n, .) and full provenance."""

    times: np.ndarray
    fields: np.ndarray
    seed: int
    config: SolverConfig
    positivity_violations: int = 0


def _heat_factor(config):
    d, kmax = config.spec.d, config.mode_k
    ks = np.arange(-kmax, kmax + 1).astype(float)
    sq = np.sum(cube_points(ks, d) ** 2, axis=-1).reshape((2 * kmax + 1,) * d)
    return np.exp(-sq * config.dt / 2.0)


def initial_field(config, mu):
    """Grid field at the stepping start time (mu.t0 or dt for atoms, else 0+).

    Uniform and density data start at their own values; atoms start from
    J_0 at that time."""
    n, d = config.grid_n, config.spec.d
    shape = (n,) * d
    if mu.variant == "uniform":
        return np.full(shape, mu.mass * TWO_PI ** (-d)), 0.0
    if mu.variant == "density":
        if mu.density.shape != shape:
            raise DomainError("density grid must match solver grid")
        return mu.density.astype(float).copy(), 0.0
    t0 = mu.t0 or config.dt
    return j0(t0, grid_points(n, d), mu, d=d).reshape(shape), t0


# a step carrying at least this many grid values (paths x grid points)
# draws the next step's noise on a worker thread; on smaller batches the
# hand-off between threads costs more than the overlap saves.  On a 2-CPU
# Xeon VM (d = 1) the hand-off paid from ~2^13 values at grid 192 and from
# ~2^17 at grid 64; this lies between the two crossovers
_PREFETCH_MIN = 2**16


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform restricts affinity
        return os.cpu_count() or 1


def _prefetch(items):
    """Yield the items of the iterator ``items``, computing each next one
    on a worker thread while the caller works on the current one.  An
    error on the worker re-raises here; closing the generator waits for
    the worker and ends its thread."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = [pool.submit(next, items, None)]
        while ahead[0].result() is not None:
            ahead.append(pool.submit(next, items, None))
            # popped, so that only the caller holds the item it is given
            yield ahead.pop(0).result()


def _increments(sampler, seed, stream, n_paths, n_steps):
    """Each step's noise increment on the grid for all paths, drawn from
    the step's own (seed, stream, step) Philox key."""
    for nstep in range(n_steps):
        rng = step_rng(seed, nstep, stream=stream)
        yield modes_to_grid(sampler.sample_modes(rng, n_batch=n_paths),
                            sampler.kmax, sampler.grid_n, sampler.spec.d)


def _march(config, mu, seed, n_paths, output_times, stream=0):
    """Exponential-Euler march of n_paths fields batched over the grid:
    yields ``(t, u, keep)`` at the start and after every step, u indexed
    (path, grid...) and ``keep`` marking the requested output times.
    Raises NumericsError naming the first step with a non-finite field.

    The noise increments come from one generator over the steps; with at
    least ``_PREFETCH_MIN`` grid values per step and more than one CPU it
    runs a step ahead on a worker thread, which ends when the march does,
    is closed or raises."""
    config.spec.require_dalang()
    u0, t_start = initial_field(config, mu)
    u = np.broadcast_to(u0, (n_paths,) + u0.shape).copy()
    heat = _heat_factor(config)
    sampler = IncrementSampler(config.spec, config.mode_k, config.grid_n,
                               config.dt)
    d, kmax, n = config.spec.d, config.mode_k, config.grid_n
    lam = config.spec.lam
    keep = _output_mask(config, t_start, output_times)
    noise = _increments(sampler, seed, stream, n_paths, config.n_steps)
    if n_paths * n**d >= _PREFETCH_MIN and _cpu_count() > 1:
        noise = _prefetch(noise)
    yield t_start, u, keep[0]
    with closing(noise):
        for nstep, dw in enumerate(noise):
            # heat * (u_modes + lam * prod) to the bit, in place and with
            # dw freed early, so few step temporaries are alive while the
            # next step's noise is being drawn
            prod = grid_to_modes(np.multiply(u, dw, out=dw), kmax, n, d)
            del dw
            prod *= lam
            prod += grid_to_modes(u, kmax, n, d)
            prod *= heat
            u = modes_to_grid(prod, kmax, n, d)
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
    dt, t_end = config.dt, t_start + n * config.dt
    for t in np.atleast_1d(output_times):
        if not t_start - dt / 2 <= t <= t_end + dt / 2:
            raise DomainError(f"output time {t:g} lies outside the march "
                              f"[{t_start:g}, {t_end:g}]")
        mask[whole_steps(t - t_start, dt, f"output time {t:g} less the "
                         f"march start {t_start:g}", "dt")] = True
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
