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

import struct
from dataclasses import dataclass

import numpy as np

from .covariance import covariance_truncated
from .errors import AliasingError, DomainError
from .heat_kernel import TWO_PI

BINARY_MAGIC = b"TPNF"


def step_rng(seed, step, stream=0):
    """Philox generator for one (seed, stream, step) triple."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(stream), int(step)))
    return np.random.Generator(np.random.Philox(ss))


def grid_points(grid_n, d):
    """Uniform grid x_j = -pi + 2 pi j / N per axis; shape (N^d, d)."""
    axis = -np.pi + TWO_PI * np.arange(grid_n) / grid_n
    if d == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def half_lattice(kmax, d):
    """Lattice points with 0 < |k|_inf <= kmax whose first nonzero
    coordinate is positive (one representative per {k, -k} pair)."""
    from .lattice import lattice_vectors

    vecs = lattice_vectors(d, kmax)
    keep = np.zeros(len(vecs), dtype=bool)
    for i, k in enumerate(vecs):
        nz = np.nonzero(k)[0]
        keep[i] = k[nz[0]] > 0
    return vecs[keep]


def modes_to_grid(coeffs_by_mode, kmax, grid_n, d):
    """Synthesize sum_k c_k e^{i k x} on the grid via the inverse FFT.

    ``coeffs_by_mode`` maps the full mode tensor indexed over
    (-kmax..kmax)^d (shape (..., (2 kmax+1)^d as a d-cube)); leading axes
    are batch.  On the grid x_j = -pi + 2 pi j / N the synthesis picks up
    per-axis phases (-1)^k.
    """
    if grid_n < 2 * kmax + 1:
        raise AliasingError(f"grid_n={grid_n} cannot carry modes to |k|={kmax}")
    shape = coeffs_by_mode.shape
    cube = (2 * kmax + 1,) * d
    if shape[-d:] != cube:
        raise DomainError(f"mode tensor must end with shape {cube}")
    batch = shape[:-d]
    work = np.zeros(batch + (grid_n,) * d, dtype=complex)
    ks = np.arange(-kmax, kmax + 1)
    phase = (-1.0) ** np.abs(ks)
    if d == 1:
        work[..., ks % grid_n] = coeffs_by_mode * phase
        return grid_n * np.fft.ifft(work, axis=-1)
    if d == 2:
        ph2 = phase[:, None] * phase[None, :]
        idx = ks % grid_n
        work[..., idx[:, None], idx[None, :]] = coeffs_by_mode * ph2
        return grid_n**d * np.fft.ifft2(work, axes=(-2, -1))
    raise DomainError("mode synthesis implemented for d in {1, 2}")


def grid_to_modes(field, kmax, grid_n, d):
    """Inverse of :func:`modes_to_grid` for band-limited fields."""
    ks = np.arange(-kmax, kmax + 1)
    phase = (-1.0) ** np.abs(ks)
    if d == 1:
        hat = np.fft.fft(field, axis=-1) / grid_n
        return hat[..., ks % grid_n] * phase
    if d == 2:
        hat = np.fft.fft2(field, axes=(-2, -1)) / grid_n**d
        idx = ks % grid_n
        ph2 = phase[:, None] * phase[None, :]
        return hat[..., idx[:, None], idx[None, :]] * ph2
    raise DomainError("mode analysis implemented for d in {1, 2}")


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

    Precomputes the half-lattice index maps once, then each step costs one
    batch of standard normals plus one inverse FFT.
    """

    def __init__(self, spec, kmax, grid_n, dt):
        if dt <= 0.0:
            raise DomainError("dt must be positive")
        if grid_n < 2 * kmax + 1:
            raise AliasingError(
                f"grid_n={grid_n} < 2*kmax+1={2 * kmax + 1}: modes alias")
        if spec.d not in (1, 2):
            raise DomainError("sampling implemented for d in {1, 2}")
        self.spec = spec
        self.kmax = kmax
        self.grid_n = grid_n
        self.dt = dt
        self.half = half_lattice(kmax, spec.d)
        norm_sq = np.sum(self.half.astype(float) ** 2, axis=-1)
        d = spec.d
        self.amp_half = np.sqrt(
            dt * TWO_PI ** (-d / 2.0) * norm_sq ** (-spec.alpha) * TWO_PI ** (-d / 2.0))
        self.amp_zero = np.sqrt(dt * TWO_PI ** (-d) * spec.rho)
        side = 2 * kmax + 1
        if d == 1:
            self.idx_pos = (self.half[:, 0] + kmax,)
            self.idx_neg = (-self.half[:, 0] + kmax,)
            self.idx_zero = (kmax,)
            self.cube = (side,)
        else:
            self.idx_pos = (self.half[:, 0] + kmax, self.half[:, 1] + kmax)
            self.idx_neg = (-self.half[:, 0] + kmax, -self.half[:, 1] + kmax)
            self.idx_zero = (kmax, kmax)
            self.cube = (side, side)

    def sample_modes(self, rng, n_batch=None):
        """Hermitian mode tensor(s) of one increment; batch leading axis."""
        h = len(self.half)
        squeeze = n_batch is None
        nb = 1 if squeeze else n_batch
        g = rng.standard_normal((nb, 2 * h + 1))
        modes = np.zeros((nb,) + self.cube, dtype=complex)
        xi = (g[:, 1:h + 1] + 1j * g[:, h + 1:]) / np.sqrt(2.0)
        modes[(slice(None),) + self.idx_pos] = self.amp_half * xi
        modes[(slice(None),) + self.idx_neg] = self.amp_half * np.conj(xi)
        modes[(slice(None),) + self.idx_zero] = self.amp_zero * g[:, 0]
        return modes[0] if squeeze else modes

    def sample(self, seed, step, stream=0):
        """One increment field on the grid, reproducible from its key."""
        rng = step_rng(seed, step, stream)
        modes = self.sample_modes(rng)
        field = modes_to_grid(modes, self.kmax, self.grid_n, self.spec.d)
        return NoiseIncrement(dt=self.dt, grid_n=self.grid_n,
                              values=np.real(field),
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
        total += grid_inner(inc.values, phi, _dim_of(inc))
    return float(total)


def _dim_of(inc):
    return inc.values.ndim


def functional_variance(spec, phi_modes):
    """<phi, phi>_{alpha, rho} from the mode coefficients a_k of phi
    (phi = (2 pi)^{-d/2} sum a_k e^{ikx}): rho |a_0|^2 + sum |a_k|^2 |k|^{-2a}."""
    kmax = (phi_modes.shape[-1] - 1) // 2
    d = phi_modes.ndim
    from .lattice import lattice_vectors

    vecs = lattice_vectors(d, kmax)
    if d == 1:
        idx = (vecs[:, 0] + kmax,)
        zero = (kmax,)
    else:
        idx = (vecs[:, 0] + kmax, vecs[:, 1] + kmax)
        zero = (kmax, kmax)
    norm_sq = np.sum(vecs.astype(float) ** 2, axis=-1)
    vals = np.abs(phi_modes[idx]) ** 2 * norm_sq ** (-spec.alpha)
    return float(spec.rho * np.abs(phi_modes[zero]) ** 2 + np.sum(vals))


def empirical_covariance(spec, dt, grid_n, n_samples, seed, kmax=None):
    """Monte-Carlo check that sampled increments have covariance
    dt * f_truncated; reports the worst deviation in standard-error units.

    d = 1 only (the verification grid is the full N x N pair matrix).
    """
    if spec.d != 1:
        raise DomainError("empirical covariance matrix check is d=1 only")
    if n_samples < 1000:
        raise DomainError("need n_samples >= 1000 for a meaningful check")
    if kmax is None:
        kmax = (grid_n - 1) // 2
    sampler = IncrementSampler(spec, kmax, grid_n, dt)
    rng = step_rng(seed, 0)
    modes = sampler.sample_modes(rng, n_batch=n_samples)
    fields = np.real(modes_to_grid(modes, kmax, grid_n, 1))

    emp = fields.T @ fields / n_samples
    prods_sq = (fields[:, :, None] * fields[:, None, :]) ** 2
    se = np.sqrt((prods_sq.mean(axis=0) - emp**2) / n_samples)

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


# ---------------------------------------------------------------------------
# field export: CSV (row-major) and a small binary format
# header: magic, version u16, d u16, N u32, dt f64, seed u64; payload f64 LE


def write_field_binary(path, field, dt, seed):
    field = np.asarray(field, dtype="<f8")
    d = field.ndim
    n = field.shape[0]
    if field.shape != (n,) * d:
        raise DomainError("field must be a square N^d array")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<HHId Q", 1, d, n, float(dt), int(seed)))
        fh.write(field.tobytes(order="C"))


def _read_exact(fh, n_bytes, what):
    data = fh.read(n_bytes)
    if len(data) != n_bytes:
        raise DomainError(f"truncated field file: {what} needs {n_bytes} "
                          f"bytes, found {len(data)}")
    return data


def read_field_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise DomainError(f"bad magic {magic!r}")
        header = _read_exact(fh, struct.calcsize("<HHId Q"), "header")
        version, d, n, dt, seed = struct.unpack("<HHId Q", header)
        if version != 1:
            raise DomainError(f"unsupported version {version}")
        payload = np.frombuffer(_read_exact(fh, 8 * n**d, "payload"),
                                dtype="<f8").reshape((n,) * d)
    return payload.copy(), {"d": d, "grid_n": n, "dt": dt, "seed": seed}


def write_field_csv(path, field):
    arr = np.asarray(field)
    np.savetxt(path, arr.reshape(arr.shape[0], -1), delimiter=",", fmt="%.17g")
