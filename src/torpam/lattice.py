"""Integer-lattice enumeration helpers shared by the spectral modules."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError


def cube_points(axis, d):
    """The d-fold product of ``axis`` as a (len(axis)^d, d) array in C
    order: the last coordinate varies fastest."""
    mesh = np.meshgrid(*[axis] * d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def cube_norm_sq(d, kmax):
    """|k|^2 on the cube |k|_inf <= kmax in C order; kmax >= 0."""
    if kmax < 0:
        raise DomainError(f"lattice cutoff kmax = {kmax} must be >= 0")
    return np.sum(cube_points(np.arange(-kmax, kmax + 1), d) ** 2, axis=-1)


@lru_cache(maxsize=64)
def lattice_r2(d, kmax):
    """Multiplicities of squared norms on {k in Z^d, 0 < |k|_inf <= kmax}.

    Returns ``(r2, counts)`` where ``r2`` is the sorted array of distinct
    squared norms and ``counts[i]`` the number of lattice points realizing
    ``r2[i]``.  Radially symmetric sums collapse to a histogram contraction,
    which keeps d = 2 and d = 3 sums cheap.  The histogram is built one
    axis at a time, so it never holds the (2 kmax + 1)^d cube.
    """
    if kmax < 0:
        raise DomainError(f"lattice cutoff kmax = {kmax} must be >= 0")
    r2 = k2 = np.arange(kmax + 1) ** 2
    counts = weight = np.where(k2 > 0, 2, 1)  # +-k: 1 point at k = 0, else 2
    for _ in range(d - 1):
        dense = np.zeros(r2[-1] + k2[-1] + 1, dtype=np.int64)
        for sq, w in zip(k2, weight):
            np.add.at(dense, r2 + sq, w * counts)
        r2 = np.flatnonzero(dense)
        counts = dense[r2]
    return r2[1:].astype(float), counts[1:].astype(float)


@lru_cache(maxsize=64)
def lattice_vectors(d, kmax):
    """All lattice points with 0 < |k|_inf <= kmax, as an (n, d) int array."""
    pts = cube_points(np.arange(-kmax, kmax + 1), d)
    return pts[cube_norm_sq(d, kmax) > 0]


def sphere_area(d):
    """Surface area 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def zeta_lattice(d, exponent, kmax=128):
    """sum over k != 0 of |k|^(-exponent), with an integral tail estimate.

    Requires ``exponent > d`` for convergence; the tail beyond ``kmax`` is
    approximated by the radial integral plus half the boundary shell, which
    leaves a relative error far below 1e-10 at the default cutoff.
    """
    if exponent <= d:
        raise ValueError("lattice zeta sum requires exponent > d")
    r2, counts = lattice_r2(d, kmax)
    main = float(np.sum(counts * r2 ** (-exponent / 2.0)))
    omega = sphere_area(d)
    tail = omega * kmax ** (d - exponent) / (exponent - d)
    tail += 0.5 * omega * kmax ** (d - 1) * kmax ** (-exponent)
    return main + tail
