"""Heat kernel on the flat torus [-pi, pi)^d and its Euclidean comparison.

The one-dimensional kernel has two rapidly convergent series: a Fourier
cosine series, efficient for large diffusion time, and a sum of Gaussian
images, efficient for small time.  The d-dimensional kernel is the product
of one-dimensional factors.  The module also evaluates the theta-function
constant ``C_t`` controlling the kernel/Gaussian ratio, the long-time
flattening constant ``Theta_{eps,d}``, and pointwise checks of the
sandwich and Hoelder-increment inequalities.

All evaluators are pure functions of their arguments and broadcast over
numpy arrays.  In ``heat_kernel``, the two 1-d series and ``theta_c`` a
single point at a single time takes a point route, one ``np.exp`` call per
evaluation, that gives the same bits as the array route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .lattice import cube_points

TWO_PI = 2.0 * math.pi

# series truncation: hard cap on the number of terms of either expansion;
# a time whose tail tolerance needs more terms is refused
MAX_TERMS = 64


@dataclass(frozen=True)
class KernelConfig:
    """Truncation and regime-switch parameters for kernel evaluation.

    tail_tol : relative tail tolerance; it fixes the term count of either
        series in advance.
    t_switch : diffusion time at which evaluation switches from the
        Gaussian-image sum to the Fourier cosine series.  At ``2*pi`` both
        series need under ten terms for a 1e-15 relative tail.
    """

    tail_tol: float = 1e-15
    t_switch: float = TWO_PI


DEFAULT_CONFIG = KernelConfig()
_LOG_TAIL = math.log(1.0 / DEFAULT_CONFIG.tail_tol)  # fixes the term counts


@dataclass(frozen=True)
class TorusPoint:
    """A point of the torus; coordinates normalized into [-pi, pi)."""

    coords: tuple

    def __init__(self, coords):
        arr = np.atleast_1d(np.asarray(coords, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("a torus point is a 1-d sequence of coordinates")
        if not np.all(np.isfinite(arr)):
            raise DomainError("torus point coordinates must be finite")
        object.__setattr__(self, "coords", tuple(signed_mod(arr)))

    @property
    def d(self):
        return len(self.coords)

    def as_array(self):
        return np.asarray(self.coords, dtype=float)


def as_coords(x):
    """Coerce a TorusPoint / scalar / sequence to a coordinate array."""
    if isinstance(x, TorusPoint):
        return x.as_array()
    return np.atleast_1d(np.asarray(x, dtype=float))


def signed_mod(x):
    """Signed remainder of x modulo 2*pi, in [-pi, pi).

    Follows the positive-remainder convention, so ``signed_mod(pi) == -pi``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("signed_mod requires finite input")
    return np.mod(x + math.pi, TWO_PI) - math.pi


def torus_distance(x, y):
    """Geodesic distance on the torus: |signed_mod(x - y)| (Euclidean norm)."""
    xa, ya = as_coords(x), as_coords(y)
    if xa.shape[-1] != ya.shape[-1]:
        raise DomainError(f"dimension mismatch: {xa.shape[-1]} vs {ya.shape[-1]}")
    return np.sqrt(np.sum(signed_mod(xa - ya) ** 2, axis=-1))


def gauss_kernel(t, x):
    """Euclidean heat kernel p_d(t, x) = (2*pi*t)^(-d/2) exp(-|x|^2 / (2t)),
    d the length of the last axis of ``x``."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("gauss_kernel requires t > 0")
    xa = as_coords(x)
    sq = np.sum(xa * xa, axis=-1)
    return (TWO_PI * t) ** (-xa.shape[-1] / 2.0) * np.exp(-sq / (2.0 * t))


# Route choice.  In heat_kernel and the two 1-d series, a 0-d t and a
# single point (a float, a length-d sequence or array, a TorusPoint) take
# the point route, as does a 0-d t in theta_c: on Python floats, one np.exp
# call for every term and Gaussian factor of all coordinates (the cosine
# series adds one np.cos), the terms added one by one in the order of the
# array route (sum() compensates from Python 3.12 on).  Anything else takes
# the array route, which adds one term array at a time to bound the memory
# of large batches.  np.exp, np.cos and np.log give the same bits on a list
# as on an array, so the two routes agree bitwise.  log_heat_kernel and
# kernel_ratio run the array route on a 0-d t too.
def _time(name, t):
    """``t`` refused unless positive; a Python float when 0-d."""
    if isinstance(t, float) and t > 0.0:
        return float(t)
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        ok = t > 0.0
    else:
        ok = np.all(t > 0.0)
    if not ok:
        if np.any(np.isnan(t)):
            raise DomainError(f"{name} requires a finite t, got nan")
        raise DomainError(f"{name} requires t > 0")
    return t


def _route(name, t, x):
    """Validated ``(t, cols)``, one entry of ``cols`` per axis of ``x``: floats
    on the point route, arrays on the array route.  A float t with a float or
    1-d float array x, as the covariance quadratures pass, is not converted."""
    if isinstance(t, float) and (isinstance(x, float) or isinstance(
            x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64):
        cols = [float(x)] if isinstance(x, float) else x.tolist()
        if t > 0.0 and cols and all(map(math.isfinite, cols)):
            return float(t), cols
    t, xa = _time(name, t), as_coords(x)
    if xa.shape[-1] == 0:
        raise DomainError(f"{name} requires at least one coordinate")
    if not np.all(np.isfinite(xa)):
        raise DomainError(f"{name} requires finite x")
    if isinstance(t, float) and xa.ndim == 1:
        return t, xa.tolist()
    return np.asarray(t), [xa[..., i] for i in range(xa.shape[-1])]


def _reduce(x):
    """signed_mod of a validated coordinate; float % matches np.mod bitwise."""
    if isinstance(x, float):
        return (x + math.pi) % TWO_PI - math.pi
    return signed_mod(x)


def _product(one_d, t, cols):
    """prod_i one_d(t, cols[i])."""
    out = one_d(t, cols[0])
    for xi in cols[1:]:
        out = out * one_d(t, xi)
    return out


# Both series take a term count fixed in advance from the largest (image) or
# smallest (cosine) time: a stop test would cost a reduction per term.
def _term_count(last, series, t):
    """ceil(last) + 1 terms, refused above MAX_TERMS: a capped series would
    be silently wrong."""
    if not last <= MAX_TERMS - 1:
        raise DomainError(f"the {series} series does not converge within "
                          f"MAX_TERMS = {MAX_TERMS} terms at t = {t:g}")
    return math.ceil(last) + 1


def _image_terms(t_max):
    """Image-series term count at largest time ``t_max``: the images at
    2 pi k weigh exp(-(2 pi k - pi)^2 / 2t) at most, below tail_tol from
    k = (width + pi) / 2 pi on; one more term for margin.  Refused above
    t ~ 2230."""
    width = math.sqrt(2.0 * t_max * _LOG_TAIL)
    return _term_count((width + math.pi) / TWO_PI, "image", t_max)


def _cosine_terms(t_min):
    """Cosine-series term count at smallest time ``t_min``: terms fall below
    tail_tol from n^2 t / 2 = log(1 / tail_tol) on.  Refused below
    t ~ 0.0174."""
    n_cut = math.sqrt(2.0 * _LOG_TAIL / t_min)
    return _term_count(n_cut, "cosine", t_min)


def _image_ratio(t, x):
    """G_1(t, x) / p_1(t, x) = 1 + sum_{k>=1} [exp(-2 pi k (pi k - x) / t)
    + exp(-2 pi k (pi k + x) / t)] for x in [-pi, pi): every exponent is
    nonpositive, so no term overflows."""
    acc = 1.0  # an array from the first of at least two terms on
    for k in range(1, _image_terms(float(np.max(t))) + 1):
        c, shift = TWO_PI * k / t, math.pi * k
        # one statement per image: the old sum is freed before the next term
        acc = acc + np.exp(c * (x - shift))
        acc = acc + np.exp(c * (-shift - x))
    return acc


def _cosine_tail(t, x):
    """2 sum_{n>=1} exp(-n^2 t / 2) cos(n x), so that
    G_1(t, x) = (1 + _cosine_tail(t, x)) / (2 pi)."""
    acc = 0.0  # an array from the first of at least two terms on
    for n in range(1, _cosine_terms(float(np.min(t))) + 1):
        acc = acc + np.exp(-n * n * t / 2.0) * np.cos(n * x)
    return 2.0 * acc


def _image_1d(t, x):
    x = _reduce(x)
    return _image_ratio(t, x) * (np.exp(-x * x / (2.0 * t)) / np.sqrt(TWO_PI * t))


def _cosine_1d(t, x):
    return (1.0 + _cosine_tail(t, x)) / TWO_PI


_image_nd = partial(_product, _image_1d)
_cosine_nd = partial(_product, _cosine_1d)


def _by_series(image, cosine, t, cols):
    """image(t, cols) where t <= t_switch, cosine(t, cols) above: a batch
    that straddles the switch is split, so each entry gets its own series."""
    low = t <= DEFAULT_CONFIG.t_switch
    if low.all():
        return image(t, cols)
    if not low.any():
        return cosine(t, cols)
    t, *cols = np.broadcast_arrays(t, *cols)
    low = t <= DEFAULT_CONFIG.t_switch
    out = np.empty(t.shape)
    out[low] = image(t[low], [xi[low] for xi in cols])
    out[~low] = cosine(t[~low], [xi[~low] for xi in cols])
    return out


def _image_point(t, cols):
    """[(G_1 / p_1, exp(-x^2 / 2t)) at x = _reduce(xi) for xi in cols], one
    np.exp call for all of them."""
    n = _image_terms(t)
    exponents = []
    for x in cols:
        x = (x + math.pi) % TWO_PI - math.pi  # _reduce without its call
        exponents.append(-x * x / (2.0 * t))
        for k in range(1, n + 1):
            c = TWO_PI * k / t
            exponents += (c * (x - math.pi * k), c * (-math.pi * k - x))
    terms = np.exp(exponents).tolist()
    out = []
    for i in range(0, len(terms), 2 * n + 1):
        acc = 1.0
        for term in terms[i + 1:i + 2 * n + 1]:
            acc += term
        out.append((acc, terms[i]))
    return out


def _cosine_point(t, cols):
    """[1 + _cosine_tail(t, x) for x in cols], one np.exp and one np.cos
    call for all of them."""
    ns = range(1, _cosine_terms(t) + 1)
    decays = np.exp([-n * n * t / 2.0 for n in ns]).tolist()
    waves = iter(np.cos([n * x for x in cols for n in ns]).tolist())
    out = []
    for _ in cols:
        acc = 0.0
        for decay in decays:
            acc += decay * next(waves)
        out.append(1.0 + 2.0 * acc)
    return out


def _point_kernel(t, cols, image):
    """G_d(t, cols) at one point, by the image sum (``image``) or cosines."""
    out = 1.0
    if image:
        root = math.sqrt(TWO_PI * t)
        for ratio, gauss in _image_point(t, cols):
            out *= ratio * (gauss / root)
    else:
        for c in _cosine_point(t, cols):
            out *= c / TWO_PI
    return np.float64(out)


def heat_kernel_1d_image(t, x):
    """G_1(t, x) by the Gaussian image sum, efficient for small t."""
    t, [x] = _route("heat_kernel_1d_image", t,
                    np.asarray(x, dtype=float)[..., None])
    if isinstance(t, float):
        return _point_kernel(t, [x], True)
    return _image_1d(t, x)


def heat_kernel_1d_spectral(t, x):
    """G_1(t, x) by the Fourier cosine series, efficient for large t."""
    t, [x] = _route("heat_kernel_1d_spectral", t,
                    np.asarray(x, dtype=float)[..., None])
    if isinstance(t, float):
        return _point_kernel(t, [x], False)
    return _cosine_1d(t, x)


def heat_kernel(t, x):
    """Torus heat kernel G_d(t, x) = prod_i G_1(t, x_i).

    Each entry takes the image sum if its ``t <= DEFAULT_CONFIG.t_switch``
    and the cosine series otherwise; both agree to ~1e-12 on a band around
    the switch.  ``x`` may be a scalar (d = 1), a length-d sequence, or an
    array whose last axis is the coordinate axis; leading axes broadcast.
    """
    t, cols = _route("heat_kernel", t, x)
    if isinstance(t, float):
        return _point_kernel(t, cols, t <= DEFAULT_CONFIG.t_switch)
    return _by_series(_image_nd, _cosine_nd, t, cols)


def theta_c(t):
    """Theta-constant C_t relating torus and Euclidean kernels.

    Per entry, the direct sum ``sum_n exp(-2 n^2 pi^2 / t)`` (the image
    series at x = 0, fast for small t) up to ``t = 2*pi``, and above it the
    rescaled sum ``sqrt(t/2pi) * sum_n exp(-n^2 t / 2)`` (the cosine series
    at x = 0, fast for large t).
    """
    t = _time("theta_c", t)
    if isinstance(t, float):
        if t <= DEFAULT_CONFIG.t_switch:
            return np.float64(_image_point(t, [0.0])[0][0])
        return np.float64(math.sqrt(t / TWO_PI) * _cosine_point(t, [0.0])[0])
    return _by_series(lambda t, _: _image_ratio(t, 0.0),
                      lambda t, _: np.sqrt(t / TWO_PI) * (1.0 + _cosine_tail(t, 0.0)),
                      t, [])


def log_heat_kernel(t, x):
    """log G_d(t, x), stable where G underflows (small t, |x| near pi)."""
    t, cols = _route("log_heat_kernel", t, x)
    return _by_series(_log_image, lambda t, xs: np.log(_cosine_nd(t, xs)),
                      np.asarray(t), [_reduce(xi) for xi in cols])


def _log_image(t, cols):
    """sum_i log G_1(t, cols[i]) from the image series in log form."""
    out = 0.0
    for xi in cols:
        out = out + (-0.5 * np.log(TWO_PI * t) - xi * xi / (2.0 * t)
                     + np.log(_image_ratio(t, xi)))
    return out


def kernel_ratio(t, x):
    """G_d(t, x) / p_d(t, signed_mod(x)) evaluated without under/overflow."""
    t, cols = _route("kernel_ratio", t, x)
    return _product(_image_ratio, t, [_reduce(xi) for xi in cols])


def kernel_sandwich_check(t, x):
    """Check C_t^d <= G/p <= (2 C_t)^d at (t, x).

    Returns a dict with the ratio, the two bounds, and a ``pass`` flag; the
    comparison carries a slack of ``10 * tail_tol * ratio`` for truncation
    noise.
    """
    xa = as_coords(x)
    d = xa.shape[-1]
    ratio = kernel_ratio(t, xa)
    ct = theta_c(t)
    lower = ct**d
    upper = (2.0 * ct) ** d
    slack = 10.0 * DEFAULT_CONFIG.tail_tol * ratio
    ok = bool(np.all(lower - slack <= ratio) and np.all(ratio <= upper + slack))
    return {
        "t": float(np.max(t)) if np.ndim(t) else float(t),
        "ratio": ratio,
        "lower": lower,
        "upper": upper,
        "pass": ok,
    }


def flatness_sup_error(t, d, n_grid=2001):
    """sup_x |G_d(t, x) - (2 pi)^{-d}| over a fine grid (d <= 2)."""
    if d > 2:
        raise DomainError("flatness scan implemented for d in {1, 2}")
    xs = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
    vals = heat_kernel(t, cube_points(xs, d))
    return float(np.max(np.abs(vals - TWO_PI ** (-d))))


def theta_eps(eps, d=1):
    """Flattening constant Theta_{eps,d} for the bound
    sup_x |G(t,x) - (2 pi)^{-d}| <= Theta_{eps,d} exp(-t/2), t >= eps.

    Constructive recipe: Lambda_eps bounds exp(t/2) * log(sqrt(2 pi/t) C_t)
    on [eps, infinity); that function tends to 2 monotonically from some
    point on, so Lambda_eps = max(2, maximum over 4000 geometric nodes of
    [eps, max(80, 2 eps)]).  Then Theta_{eps,1} = Lambda_eps *
    exp(Lambda_eps) and the d-dimensional constant follows by the
    telescoping product bound.
    """
    if eps <= 0.0:
        raise DomainError("theta_eps requires eps > 0")
    ts = np.geomspace(eps, max(80.0, 2.0 * eps), 4000)
    # sqrt(2 pi / t) * C_t == 1 + cosine tail, kept apart to keep precision
    # at large t
    phi = np.exp(ts / 2.0) * np.log1p(_cosine_tail(ts, 0.0))
    lam = max(2.0, float(np.max(phi)))
    theta1 = lam * math.exp(lam)
    scale = sum(
        TWO_PI ** (-(i - 1)) * (1.0 + math.sqrt(TWO_PI / eps)) ** (d - i)
        for i in range(1, d + 1)
    )
    return theta1 * scale


def kernel_increment_bounds(t, t_prime, x, y, beta):
    """Smallest constants for the kernel increment inequalities.

    Time:  |G(t,x) - G(t',x)|  <= C * t^{-b/2} G(2t', x) (t'-t)^{b/2}
    Space: |G(t,x) - G(t,y)|   <= C * t^{-b/2} [G(2t,x) + G(2t,y)] dist^b

    Returns both sides at the given points and the smallest C making each
    hold (0/0 cases report C = 0).
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError("beta must lie in (0, 1]")
    if not (0.0 < t <= t_prime):
        raise DomainError("need 0 < t <= t_prime")
    xa, ya = as_coords(x), as_coords(y)

    lhs_t = abs(float(heat_kernel(t, xa)) - float(heat_kernel(t_prime, xa)))
    envelope_t = t ** (-beta / 2.0) * float(heat_kernel(2.0 * t_prime, xa)) * (
        (t_prime - t) ** (beta / 2.0)
    )
    c_time = lhs_t / envelope_t if envelope_t > 0.0 else 0.0

    lhs_s = abs(float(heat_kernel(t, xa)) - float(heat_kernel(t, ya)))
    dist = float(torus_distance(xa, ya))
    envelope_s = t ** (-beta / 2.0) * (
        float(heat_kernel(2.0 * t, xa)) + float(heat_kernel(2.0 * t, ya))
    ) * dist**beta
    c_space = lhs_s / envelope_s if envelope_s > 0.0 else 0.0

    return {
        "time_lhs": lhs_t,
        "time_envelope": envelope_t,
        "c_time": c_time,
        "space_lhs": lhs_s,
        "space_envelope": envelope_s,
        "c_space": c_space,
    }
