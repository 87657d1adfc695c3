"""Sampling of the colored space-time noise increments on a periodic grid.

Increments over a time step dt are synthesized in the Fourier eigenbasis:
independent complex Gaussians on a half lattice (Hermitian-extended so the
field is real), weighted by sqrt(dt * (2 pi)^{-d/2} theta_k).  The law of
the sampled field then matches dt times the mode-truncated covariance
exactly, which :func:`empirical_covariance` verifies by Monte Carlo.

Randomness comes from counter-based Philox streams keyed on
(seed, stream, step), so per-step draws are reproducible independently of
scheduling or worker count; :meth:`IncrementSampler.draw` is the one
route from a key to grid noise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .covariance import covariance_truncated, mode_weight
from .errors import AliasingError, DomainError
from .heat_kernel import TWO_PI
from .lattice import cube_norm_sq, cube_points


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
    """The half of the (-kmax..kmax)^d cube with last index >= 0, shape
    (2 kmax + 1,) * (d - 1) + (kmax + 1,): the mode tensor of both mode
    maps.  Returns its phase (-1)^{|k|_1} (on x_j = -pi + 2 pi j / N,
    e^{i k x_j} = (-1)^k e^{2 pi i k j / N}) and one slice pair per sign
    pattern of the first d-1 axes, half cube to real-FFT spectrum (k < 0
    wrapped to N-kmax..N-1).  Refuses a negative cutoff and a grid too
    coarse for the cube.
    """
    if kmax < 0:
        raise DomainError(f"mode cutoff kmax = {kmax} must be >= 0")
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
    return phase, blocks


def modes_to_grid(coeffs_by_mode, kmax, grid_n, d):
    """Synthesize the real field sum_k c_k e^{i k x} on the grid via the
    inverse real FFT over the last d axes.

    ``coeffs_by_mode`` holds the modes |k|_inf <= kmax with last index
    >= 0 (the half cube of :func:`_half_cube`) of a Hermitian tensor,
    c_{-k} = conj c_k, which fixes the rest; leading axes are batch.
    """
    phase, blocks = _half_cube(kmax, grid_n, d)
    shape = coeffs_by_mode.shape
    if shape[-d:] != phase.shape:
        raise DomainError(f"mode tensor must end with shape {phase.shape}")
    work = np.zeros(shape[:-d] + (grid_n,) * (d - 1) + (grid_n // 2 + 1,),
                    dtype=complex)
    for cube_part, spectrum_part in blocks:
        np.multiply(coeffs_by_mode[cube_part], phase[cube_part],
                    out=work[spectrum_part])
    return np.fft.irfftn(work, s=(grid_n,) * d, axes=tuple(range(-d, 0)),
                         norm="forward")


def grid_to_modes(field, kmax, grid_n, d):
    """Inverse of :func:`modes_to_grid` for real band-limited fields: the
    modes with last index >= 0, read off the real FFT."""
    phase, blocks = _half_cube(kmax, grid_n, d)
    hat = np.fft.rfftn(field, axes=tuple(range(-d, 0)), norm="forward")
    out = np.empty(field.shape[:-d] + phase.shape, dtype=complex)
    for cube_part, spectrum_part in blocks:
        np.multiply(hat[spectrum_part], phase[cube_part], out=out[cube_part])
    return out


class IncrementSampler:
    """Samples real noise increments with covariance dt * f_truncated.

    Precomputes the half-lattice amplitudes once; each step then costs one
    batch of standard normals plus one inverse real FFT.
    """

    def __init__(self, spec, kmax, grid_n, dt):
        if not 0.0 < dt < np.inf:
            raise DomainError(f"dt = {dt:g} must be positive and finite")
        if spec.d > 2:
            raise DomainError("sampling implemented for d in {1, 2}")
        _half_cube(kmax, grid_n, spec.d)  # refuses kmax < 0 or too coarse a grid
        self.spec = spec
        self.kmax = kmax
        self.grid_n = grid_n
        # the half lattice: the cube after its centre, in C order, holds
        # one k of each {k, -k} pair (its first nonzero coordinate > 0)
        d = spec.d
        norm_sq = cube_norm_sq(d, kmax)[(2 * kmax + 1) ** d // 2 + 1:]
        self.amp_half = np.sqrt(dt * TWO_PI ** (-d / 2.0)
                                * mode_weight(spec, norm_sq) * TWO_PI ** (-d / 2.0))
        self.amp_zero = np.sqrt(dt * TWO_PI ** (-d) * mode_weight(spec, 0.0))
        self.cube = (2 * kmax + 1,) * d

    def sample_modes(self, rng, n_batch=None):
        """Hermitian mode tensor(s) of one increment; batch leading axis.

        Flattened, the cube is the mirrored half lattice, the zero mode,
        then the half lattice, so each part is written as one slice.  The
        half lattice holds amp * (g1 + i g2) / sqrt(2), written in place
        one part at a time; numpy divides a complex by a real as a product
        with the reciprocal, so scaling by 1 / sqrt(2) gives the same bits."""
        h = len(self.amp_half)
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

    def draw(self, seed, step, stream=0, n_batch=None):
        """The increment field(s) of one step on the grid, drawn from the
        step's own (seed, stream, step) Philox key: the one route from a
        key to grid noise.  Synthesis reads the cube's half with last
        index >= 0."""
        modes = self.sample_modes(step_rng(seed, step, stream), n_batch)
        return modes_to_grid(modes[..., self.kmax:], self.kmax, self.grid_n,
                             self.spec.d)


def grid_inner(field, psi, d):
    """Trapezoidal inner product <field, psi> on the periodic grid
    (the rectangle rule, spectrally accurate for periodic integrands)."""
    n = field.shape[-1]
    cell = (TWO_PI / n) ** d
    axes = tuple(range(-d, 0))
    return np.sum(field * psi, axis=axes) * cell


def functional_variance(spec, phi_modes):
    """<phi, phi>_{alpha, rho} = sum_k |a_k|^2 theta~_k from the d-cube of mode
    coefficients a_k, |k|_inf <= kmax, of phi = (2 pi)^{-d/2} sum a_k e^{ikx}."""
    shape = phi_modes.shape
    if len(shape) != spec.d or len(set(shape)) != 1 or shape[0] % 2 == 0:
        raise DomainError(f"mode tensor {shape} is not a d = {spec.d} cube of odd side")
    norm_sq = cube_norm_sq(spec.d, shape[0] // 2)
    return float(np.sum(np.abs(phi_modes.ravel()) ** 2 * mode_weight(spec, norm_sq)))


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
    fields = IncrementSampler(spec, kmax, grid_n, dt).draw(seed, 0,
                                                            n_batch=n_samples)

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
