"""Sampling of the colored space-time noise increments on a periodic grid.

Increments over a time step dt are synthesized in the Fourier eigenbasis:
independent complex Gaussians on a half lattice (Hermitian-extended so the
field is real), weighted by sqrt(dt * (2 pi)^{-d/2} theta_k).  The law of
the sampled field then matches dt times the mode-truncated covariance
exactly, which :func:`empirical_covariance` verifies by Monte Carlo.

Randomness comes from counter-based Philox streams keyed on
(seed, stream, step), so per-step draws are reproducible independently of
scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .covariance import covariance_truncated
from .errors import AliasingError, DomainError
from .heat_kernel import TWO_PI
from .lattice import cube_points, lattice_vectors


def step_rng(seed, step, stream=0):
    """Philox generator for one (seed, stream, step) triple."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(stream), int(step)))
    return np.random.Generator(np.random.Philox(ss))


def grid_points(grid_n, d):
    """Uniform grid x_j = -pi + 2 pi j / N per axis; shape (N^d, d)."""
    return cube_points(-np.pi + TWO_PI * np.arange(grid_n) / grid_n, d)


@lru_cache(maxsize=64)
def _half_cube(kmax, grid_n, d):
    """For the half of the (-kmax..kmax)^d cube with last index >= 0: its
    phase (-1)^{|k|_1} (on x_j = -pi + 2 pi j / N, e^{i k x_j} =
    (-1)^k e^{2 pi i k j / N}); one slice pair per sign pattern of the
    first d-1 axes, half cube to real-FFT spectrum (k < 0 wrapped to
    N-kmax..N-1); and, for j = d-1 .. 0, the full-cube slice with k_j < 0
    and every later axis at k = 0, paired with the slice of its mirror -k.
    """
    if grid_n < 2 * kmax + 1:
        raise AliasingError(f"grid_n={grid_n} cannot carry modes to |k|={kmax}")
    sign = (-1.0) ** np.abs(np.arange(-kmax, kmax + 1))
    phase = sign[kmax:]
    for _ in range(d - 1):
        phase = np.multiply.outer(sign, phase)
    phase.setflags(write=False)  # shared by every caller of the cache
    nonneg = (slice(kmax, None), slice(None, kmax + 1))
    neg = (slice(None, kmax), slice(grid_n - kmax, None))
    blocks = tuple(
        ((..., *(a[0] for a in pattern), slice(None)),
         (..., *(a[1] for a in pattern), slice(None, kmax + 1)))
        for pattern in product((nonneg, neg), repeat=d - 1))
    zeros = [(kmax,) * (d - 1 - j) for j in range(d)]
    mirrors = tuple(
        ((..., *(slice(None),) * j, slice(None, kmax), *zeros[j]),
         (..., *(slice(None, None, -1),) * j, slice(None, kmax, -1), *zeros[j]))
        for j in reversed(range(d)))
    return phase, blocks, mirrors


def modes_to_grid(coeffs_by_mode, kmax, grid_n, d):
    """Synthesize the real field sum_k c_k e^{i k x} on the grid via the
    inverse real FFT over the last d axes.

    ``coeffs_by_mode`` is a Hermitian mode tensor (c_{-k} = conj c_k)
    indexed over (-kmax..kmax)^d (shape (..., (2 kmax+1)^d as a d-cube));
    leading axes are batch.  Only its half with last index >= 0 is read.
    """
    phase, blocks, _ = _half_cube(kmax, grid_n, d)
    shape = coeffs_by_mode.shape
    cube = (2 * kmax + 1,) * d
    if shape[-d:] != cube:
        raise DomainError(f"mode tensor must end with shape {cube}")
    pos = coeffs_by_mode[..., kmax:]
    work = np.zeros(shape[:-d] + (grid_n,) * (d - 1) + (grid_n // 2 + 1,),
                    dtype=complex)
    for cube_part, spectrum_part in blocks:
        np.multiply(pos[cube_part], phase[cube_part], out=work[spectrum_part])
    return np.fft.irfftn(work, s=(grid_n,) * d, axes=tuple(range(-d, 0)),
                         norm="forward")


def grid_to_modes(field, kmax, grid_n, d):
    """Inverse of :func:`modes_to_grid` for real band-limited fields: the
    real FFT gives the modes with last index >= 0, and conjugation fills
    the rest, so the returned tensor is exactly Hermitian."""
    phase, blocks, mirrors = _half_cube(kmax, grid_n, d)
    hat = np.fft.rfftn(field, axes=tuple(range(-d, 0)), norm="forward")
    out = np.empty(field.shape[:-d] + (2 * kmax + 1,) * d, dtype=complex)
    pos = out[..., kmax:]
    for cube_part, spectrum_part in blocks:
        np.multiply(hat[spectrum_part], phase[cube_part], out=pos[cube_part])
    for target, mirror in mirrors:
        out[target] = np.conj(out[mirror])
    return out


@dataclass(frozen=True)
class NoiseIncrement:
    """One space-time noise increment on the grid, with its provenance."""

    dt: float
    grid_n: int
    values: np.ndarray
    seed_state: tuple  # (seed, stream, step)
    kmax: int


class IncrementSampler:
    """Samples real noise increments with covariance dt * f_truncated.

    Precomputes the half-lattice amplitudes once; each step then costs one
    batch of standard normals plus one inverse real FFT.
    """

    def __init__(self, spec, kmax, grid_n, dt):
        if dt <= 0.0:
            raise DomainError("dt must be positive")
        if grid_n < 2 * kmax + 1:
            raise AliasingError(
                f"grid_n={grid_n} < 2*kmax+1={2 * kmax + 1}: modes alias")
        if spec.d > 2:
            raise DomainError("sampling implemented for d in {1, 2}")
        self.spec = spec
        self.kmax = kmax
        self.grid_n = grid_n
        self.dt = dt
        # the half lattice: the cube after its centre, in C order, holds
        # one k of each {k, -k} pair (its first nonzero coordinate > 0)
        cube = cube_points(np.arange(-kmax, kmax + 1), spec.d)
        self.half = cube[len(cube) // 2 + 1:]
        norm_sq = np.sum(self.half.astype(float) ** 2, axis=-1)
        d = spec.d
        self.amp_half = np.sqrt(
            dt * TWO_PI ** (-d / 2.0) * norm_sq ** (-spec.alpha) * TWO_PI ** (-d / 2.0))
        self.amp_zero = np.sqrt(dt * TWO_PI ** (-d) * spec.rho)
        self.cube = (2 * kmax + 1,) * d

    def sample_modes(self, rng, n_batch=None):
        """Hermitian mode tensor(s) of one increment; batch leading axis.

        Flattened, the cube is the mirrored half lattice, the zero mode,
        then the half lattice, so each part is written as one slice.  The
        half lattice holds amp * (g1 + i g2) / sqrt(2), written in place
        one part at a time; numpy divides a complex by a real as a product
        with the reciprocal, so scaling by 1 / sqrt(2) gives the same bits."""
        h = len(self.half)
        squeeze = n_batch is None
        nb = 1 if squeeze else n_batch
        g = rng.standard_normal((nb, 2 * h + 1))
        modes = np.empty((nb, 2 * h + 1), dtype=complex)
        xi = modes[:, h + 1:]
        for part, normals in ((xi.real, g[:, 1:h + 1]), (xi.imag, g[:, h + 1:])):
            np.multiply(normals, 1 / np.sqrt(2.0), out=part)
            np.multiply(self.amp_half, part, out=part)
        np.conjugate(modes[:, :h:-1], out=modes[:, :h])
        modes[:, h] = self.amp_zero * g[:, 0]
        modes = modes.reshape((nb,) + self.cube)
        return modes[0] if squeeze else modes

    def sample(self, seed, step, stream=0):
        """One increment field on the grid, reproducible from its key."""
        rng = step_rng(seed, step, stream)
        modes = self.sample_modes(rng)
        field = modes_to_grid(modes, self.kmax, self.grid_n, self.spec.d)
        return NoiseIncrement(dt=self.dt, grid_n=self.grid_n, values=field,
                              seed_state=(int(seed), int(stream), int(step)),
                              kmax=self.kmax)


def sample_increment(spec, kmax, dt, grid_n, seed, step=0, stream=0):
    """Convenience wrapper building a sampler for a single draw."""
    return IncrementSampler(spec, kmax, grid_n, dt).sample(seed, step, stream)


def grid_inner(field, psi, d):
    """Trapezoidal inner product <field, psi> on the periodic grid
    (the rectangle rule, spectrally accurate for periodic integrands)."""
    n = field.shape[-1]
    cell = (TWO_PI / n) ** d
    axes = tuple(range(-d, 0))
    return np.sum(field * psi, axis=axes) * cell


def wiener_functional(increments, phi):
    """sum_n <dW_n, phi> over increments sharing one grid; Gaussian with
    variance (n dt) <phi, phi>_{alpha,rho} up to mode truncation."""
    if not increments:
        return 0.0
    base = increments[0]
    total = 0.0
    for inc in increments:
        if inc.grid_n != base.grid_n or inc.dt != base.dt:
            raise DomainError("increments must share grid and dt")
        total += grid_inner(inc.values, phi, inc.values.ndim)
    return float(total)


def functional_variance(spec, phi_modes):
    """<phi, phi>_{alpha, rho} from the mode coefficients a_k of phi
    (phi = (2 pi)^{-d/2} sum a_k e^{ikx}): rho |a_0|^2 + sum |a_k|^2 |k|^{-2a}."""
    kmax = (phi_modes.shape[-1] - 1) // 2
    d = phi_modes.ndim
    vecs = lattice_vectors(d, kmax)
    norm_sq = np.sum(vecs.astype(float) ** 2, axis=-1)
    vals = np.abs(phi_modes[tuple(vecs.T + kmax)]) ** 2 * norm_sq ** (-spec.alpha)
    return float(spec.rho * np.abs(phi_modes[(kmax,) * d]) ** 2 + np.sum(vals))


def empirical_covariance(spec, dt, grid_n, n_samples, seed):
    """Monte-Carlo check that sampled increments, on every mode the grid
    carries (kmax = (grid_n - 1) // 2), have covariance dt * f_truncated;
    reports the worst deviation in standard-error units.

    d = 1 only (the verification grid is the full N x N pair matrix).
    """
    if spec.d != 1:
        raise DomainError("empirical covariance matrix check is d=1 only")
    if n_samples < 1000:
        raise DomainError("need n_samples >= 1000 for a meaningful check")
    kmax = (grid_n - 1) // 2
    sampler = IncrementSampler(spec, kmax, grid_n, dt)
    rng = step_rng(seed, 0)
    modes = sampler.sample_modes(rng, n_batch=n_samples)
    fields = modes_to_grid(modes, kmax, grid_n, 1)

    emp = fields.T @ fields / n_samples
    sq = fields * fields
    se = np.sqrt((sq.T @ sq / n_samples - emp**2) / n_samples)

    pts = grid_points(grid_n, 1)[:, 0]
    diff = pts[:, None] - pts[None, :]
    target = dt * covariance_truncated(spec, diff[..., None], kmax)
    dev = np.abs(emp - target) / np.maximum(se, 1e-300)
    return {
        "grid_n": grid_n, "dt": dt, "n_samples": n_samples, "kmax": kmax,
        "seed": seed,
        "worst_se_units": float(np.max(dev)),
        "max_abs_deviation": float(np.max(np.abs(emp - target))),
        "empirical": emp, "target": target,
    }
