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

A step's noise is ``IncrementSampler.draw`` on its (seed, stream, step)
key, never on the field, so a batch large enough to pay for the hand-off
(at least ``_PREFETCH_MIN`` grid values per step) draws and synthesizes
the next step's noise on one worker thread while the current step runs,
through :func:`drawn_ahead`.  The worker lives exactly as long as the
march.  The same calls are made on the same keys either way, so every
output bit is too.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .covariance import NoiseSpec
from .errors import AliasingError, DomainError, NumericsError
from .heat_kernel import TWO_PI, as_coords, heat_kernel
from .lattice import cube_norm_sq
from .noise_field import (IncrementSampler, grid_points, grid_to_modes,
                          modes_to_grid)


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
        if self.mode_k < 0:
            raise DomainError(f"mode cutoff mode_k = {self.mode_k} must be >= 0")
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
    """Output times, fields u(t_n, .) and the number of steps after which
    the field has a negative value."""

    times: np.ndarray
    fields: np.ndarray
    positivity_violations: int


def _heat_factor(config):
    """exp(-|k|^2 dt / 2) on the half cube the mode maps carry."""
    d, kmax = config.spec.d, config.mode_k
    sq = cube_norm_sq(d, kmax).reshape((2 * kmax + 1,) * d)[..., kmax:]
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


def cpu_count():
    """The number of CPUs this process may run on; --threads defaults to it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform restricts affinity
        return os.cpu_count() or 1


@contextmanager
def drawn_ahead(draw, count, worth_it):
    """``map(draw, range(count))`` for a with block.  When ``worth_it`` and
    the process may use more than one CPU, draw i + 1 runs on one worker
    thread while the caller uses draw i; the block ends the worker, on exit
    and on error.  The draws run one at a time and in order either way."""
    if not (worth_it and cpu_count() > 1):
        yield map(draw, range(count))
        return
    # loaded only when a worker starts: the import adds to the peak RSS
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        following = pool.submit(draw, 0)

        def take(i):  # keeps neither the draw it returns nor its future,
            # so the caller frees each draw when done with it
            nonlocal following
            drawn = following.result()
            following = pool.submit(draw, i + 1) if i + 1 < count else None
            return drawn

        yield map(take, range(count))


def _march(config, mu, seed, n_paths, output_times, stream=0):
    """Exponential-Euler march of n_paths fields batched over the grid.

    Returns ``(times, fields, negative_steps)``: the requested output times
    in march order, one C-contiguous (n_out, path, grid...) stack allocated
    before the first step and written one kept field at a time, and the
    number of steps after which some field has a negative value.  Raises
    NumericsError naming the first step with a non-finite field.

    Each step's noise is ``sampler.draw`` on its key, drawn a step ahead
    (``drawn_ahead``) on batches of at least ``_PREFETCH_MIN`` grid values."""
    config.spec.require_dalang()
    u0, t_start = initial_field(config, mu)
    u = np.broadcast_to(u0, (n_paths,) + u0.shape).copy()
    heat = _heat_factor(config)
    sampler = IncrementSampler(config.spec, config.mode_k, config.grid_n,
                               config.dt)
    d, kmax, n = config.spec.d, config.mode_k, config.grid_n
    lam, n_steps = config.spec.lam, config.n_steps
    keep = _output_mask(config, t_start, output_times)
    times = t_start + config.dt * np.flatnonzero(keep)
    fields = np.empty(times.shape + u.shape)
    row = 0
    if keep[0]:
        fields[0], row = u, 1
    negative_steps = 0

    def draw(nstep):
        return sampler.draw(seed, nstep, stream, n_paths)

    with drawn_ahead(draw, n_steps,
                     n_paths * n**d >= _PREFETCH_MIN) as noise:
        for nstep in range(n_steps):
            dw = next(noise)  # not by enumerate, whose tuple would hold it
            # heat * (u_modes + lam * prod) to the bit, in place and with
            # dw freed early, so few step temporaries are alive while the
            # next step's noise is being drawn
            prod = grid_to_modes(np.multiply(u, dw, out=dw), kmax, n, d)
            del dw
            prod *= lam
            prod += grid_to_modes(u, kmax, n, d)
            prod *= heat
            u = modes_to_grid(prod, kmax, n, d)
            # a NaN or an infinity reaches the minimum or the maximum
            low, high = u.min(), u.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                t_now = t_start + (nstep + 1) * config.dt
                raise NumericsError(f"non-finite field after step {nstep + 1}"
                                    f" of {n_steps} (t = {t_now:g})")
            negative_steps += bool(low < 0)
            if keep[nstep + 1]:
                fields[row] = u
                row += 1
    return times, fields, negative_steps


def solve(config, mu, seed, output_times=None):
    """Simulate one trajectory; deterministic given (config, mu, seed).

    The one-path case of :func:`solve_ensemble`, with fields indexed
    (time, grid...), plus a count of the steps after which the field has a
    negative value."""
    times, fields, negative = _march(config, mu, seed, 1, output_times)
    return Trajectory(times=times, fields=fields[:, 0],
                      positivity_violations=negative)


def _output_mask(config, t_start, output_times):
    n = config.n_steps
    if output_times is None:
        return np.ones(n + 1, dtype=bool)
    requested = np.atleast_1d(output_times)
    if requested.size == 0:
        raise DomainError("output_times is empty; pass None to keep every "
                          "step")
    mask = np.zeros(n + 1, dtype=bool)
    dt, t_end = config.dt, t_start + n * config.dt
    for t in requested:
        if not t_start - dt / 2 <= t <= t_end + dt / 2:
            raise DomainError(f"output time {t:g} lies outside the march "
                              f"[{t_start:g}, {t_end:g}]")
        step = whole_steps(t - t_start, dt, f"output time {t:g} less the "
                           f"march start {t_start:g}", "dt")
        if mask[step]:
            raise DomainError(f"output times {requested.tolist()} round to "
                              f"the same step of dt = {dt:g}, at "
                              f"t = {t_start + step * dt:g}")
        mask[step] = True
    return mask


def solve_ensemble(config, mu, seed, n_paths, output_times, stream=0):
    """Simulate n_paths independent trajectories batched over the grid.

    Per-step noise uses one Philox stream keyed by (stream, step index)
    and draws all paths at once; disjoint ``stream`` ids give independent
    ensembles for the same seed.  Returns (times, fields): the output times
    in march order and one C-contiguous float64 stack indexed (time, path,
    grid...), allocated once and written field by field, so the call holds
    little more than the stack itself.
    """
    return _march(config, mu, seed, n_paths, output_times, stream)[:2]
