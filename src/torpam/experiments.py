"""Monte-Carlo and quadrature experiments confronting the moment theory.

Estimators here are deliberately redundant: the same second moment is
reachable through the spectral solver ensemble, the Feynman-Kac pair
functional, and (in d = 1) the resolvent-series quadrature, and the
closed form is known when the noise keeps only its constant mode.  The
acceptance suite plays these routes against each other and against the
upper/lower bounds from the moment calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moment_calculus as mc
from .covariance import NoiseSpec, covariance_truncated, grid_minimum, mode_weight
from .errors import DomainError
from .heat_kernel import TWO_PI, heat_kernel, signed_mod
from .lattice import lattice_vectors
from .noise_field import grid_points, step_rng
from .pam_solver import drawn_ahead, j0, solve_ensemble, whole_steps


def jackknife_se(values):
    """Standard error s / sqrt(n) of the sample mean, which is exactly its
    leave-one-out jackknife estimate."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise DomainError("jackknife needs at least two samples")
    return float(np.std(v, ddof=1) / math.sqrt(v.size))


@dataclass(frozen=True)
class MomentEstimate:
    """One Monte-Carlo moment estimate with its standard error; ``x`` is
    the requested point and ``x_grid`` the point the value was read at."""

    t: float
    x: tuple
    x_grid: tuple
    p: float
    value: float
    std_err: float
    n_samples: int


def mc_moments(config, mu, p, n_samples, t_list, x_list, seed=0,
               n_chunks=1, threads=1):
    """Ensemble moment estimates E[u(t,x)^p] for an even integer p, and
    E|u(t,x)|^p otherwise (the field can go negative), at the grid points
    nearest to the requested x (reported as ``x_grid``), with jackknife
    standard errors.

    The ensemble splits into ``n_chunks`` fixed chunks on the noise
    streams 0..n_chunks-1, mapped over a pool of ``threads`` threads; the
    result is bit-identical for any thread count because the chunk layout and
    the reduction order are fixed.  Each chunk is reduced to the requested
    (t, x) columns in its worker, so only those columns are joined.
    """
    if p < 1:
        raise DomainError("moment order p must be >= 1")
    if n_chunks < 1 or n_samples % n_chunks:
        raise DomainError("n_chunks must divide n_samples")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    per = n_samples // n_chunks
    pts = grid_points(config.grid_n, config.spec.d)
    x_req = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x_list]
    x_idx = [int(np.argmin(np.sum(signed_mod(pts - xa) ** 2, axis=-1)))
             for xa in x_req]

    def run(chunk):
        # only the requested (t, x) columns of a chunk's stack leave it
        times, fields = solve_ensemble(config, mu, seed, per, t_list,
                                       stream=chunk)
        t_idx = [int(np.argmin(np.abs(times - t)))
                 for t in np.atleast_1d(t_list)]
        cols = fields.reshape(len(times), per, -1)[:, :, x_idx]
        return times[t_idx], cols[t_idx]

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, range(n_chunks)))
    times = parts[0][0]
    cols = np.concatenate([pr[1] for pr in parts], axis=1)  # (t, sample, x)
    out = []
    for ti, t in enumerate(times):
        for xi, xa in enumerate(x_req):
            flat = cols[ti, :, xi]
            powers = flat**p if p == int(p) and int(p) % 2 == 0 \
                else np.abs(flat) ** p
            out.append(MomentEstimate(
                t=float(t), x=tuple(xa), x_grid=tuple(pts[x_idx[xi]].tolist()),
                p=float(p), value=float(np.mean(powers)),
                std_err=jackknife_se(powers), n_samples=n_samples))
    return out


def covariance_infimum(spec, n_grid=2048):
    """Grid infimum of the covariance (d = 1); the level C_f of the
    second-moment lower bound when it is positive."""
    if spec.d != 1:
        raise DomainError(f"covariance_infimum scans d = 1 only, got d = {spec.d}")
    return grid_minimum(spec, n_grid)


def moment_bound_report(config, mu, n_samples, t_list, x, seed=0,
                        rho_suff=None, n_chunks=1, threads=1):
    """Second-moment estimates against the p = 2 upper bound and, when
    rho >= ``rho_suff`` and the covariance infimum C_f is positive, the
    exponential lower bound with eps = t.  Both bounds are evaluated at
    ``x_grid``, the grid point the estimate was read at."""
    spec = config.spec
    ests = mc_moments(config, mu, 2, n_samples, t_list, [x], seed=seed,
                      n_chunks=n_chunks, threads=threads)
    rows = []
    for est in ests:
        x_grid = np.asarray(est.x_grid)
        upper = mc.p_moment_upper(est.t, x_grid, 2.0, mu, spec) ** 2
        row = {
            "t": est.t, "x": est.x, "x_grid": est.x_grid, "value": est.value,
            "std_err": est.std_err, "upper": upper,
            "upper_ok": est.value - 3.0 * est.std_err <= upper,
        }
        if (rho_suff is not None and spec.rho >= rho_suff
                and (c_f := covariance_infimum(spec)) > 0.0):
            j0v = float(j0(est.t, x_grid, mu, d=spec.d))
            lower = mc.lower_bound_second_moment(
                est.t, est.t, c_f, mu.total_mass(spec.d), spec.lam, spec.d,
                j0_val=j0v)
            row["lower"] = lower
            row["lower_ok"] = est.value + 3.0 * est.std_err >= lower
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# resolvent recursion (d = 1)


@dataclass(frozen=True)
class ResolventTable:
    """Iterated space-time convolutions L_0..L_{n_max} on product grids.

    ``values[n][i, a, q, b, q']`` samples L_n(t_i, x0_a, x_q, x0'_b, x'_q)
    with x0 on the coarse ``a_grid`` and the movable slots on ``q_grid``.
    """

    spec: NoiseSpec
    t_grid: np.ndarray
    a_grid: np.ndarray
    q_grid: np.ndarray
    values: list


def _kernel_matrix(t, rows, cols):
    """G(t, rows_i - cols_j) as an (n_rows, n_cols) matrix, d = 1."""
    return np.asarray(heat_kernel(t, (rows[:, None] - cols[None, :])[..., None]))


def _capped_f_values(spec, diffs, kmax, cap_dist):
    """Truncated covariance with the near-diagonal entries frozen at the
    one-cell value (the integrable singularity is not grid-resolvable)."""
    diffs = signed_mod(diffs)
    safe = np.where(np.abs(diffs) < cap_dist, cap_dist, diffs)
    return covariance_truncated(spec, safe[..., None], kmax)


def _volterra_level(prev, weight, gq, dt, cell, propagate, end_lo):
    """cur(t_i) = int_0^{t_i} propagate(G(t_i - s), weight * prev(s)) ds
    by the trapezoid rule in s on uniform nodes, prev[j - 1] and gq[j]
    sampling t_j; the analytic endpoints are G(0) = identity on the q grid
    at s = t_i and ``end_lo(i)`` (None: zero) at s = 0.  Each source node
    ``prev[j - 1] * weight`` is formed once (the whole level's would copy it)
    and added into every later t_i in ascending j, as a sum over s."""
    cur = np.zeros_like(prev)
    for j in range(1, len(prev) + 1):
        source = prev[j - 1] * weight
        lo = 0.0 if end_lo is None else end_lo(j)
        cur[j - 1] = dt * cur[j - 1] * cell**2 + 0.5 * dt * (lo + source)
        for i in range(j + 1, len(prev) + 1):
            cur[i - 1] += propagate(gq[i - j], source)
    return cur


def _propagate_pairs(gz, inner):
    """einsum("xz,yw,azbw->axby", gz, gz, inner) as two matmuls."""
    return np.matmul(gz, np.matmul(inner, gz.T).transpose(0, 2, 1, 3)
                     ).transpose(0, 2, 1, 3)


def resolvent_Ln(spec, n_max, t_grid, a_grid_n=9, q_grid_n=33,
                 f_override=None, cap_dist=None):
    """Space-time quadrature of the resolvent recursion
    L_n = L_0 (convolved against) L_{n-1} with weight f, in d = 1.

    ``t_grid`` must be uniform starting at 0; endpoint values of the time
    integral use the analytic s -> 0 and s -> t limits.  f is the
    covariance truncated to |k| <= 16; ``f_override`` replaces it by an
    arbitrary function of the separation (the constant-f oracle of the
    acceptance suite).  ``cap_dist`` freezes the near-diagonal covariance
    regularization (default: one q-cell); refinement studies must hold it
    fixed, otherwise they confound grid convergence with the sharpening of
    the capped singularity.
    """
    if spec.d != 1:
        raise DomainError("resolvent quadrature is restricted to d = 1")
    if n_max > 3:
        raise DomainError("n_max > 3 exceeds the intended quadrature cost")
    t, dt = mc.uniform_time_grid(t_grid, 3)

    a_grid = grid_points(a_grid_n, 1)[:, 0]
    q_grid = grid_points(q_grid_n, 1)[:, 0]
    cell = TWO_PI / q_grid_n
    if cap_dist is None:
        cap_dist = cell
    if f_override is None:
        fq = _capped_f_values(spec, q_grid[:, None] - q_grid[None, :], 16, cap_dist)
        f_pairs_aa = _capped_f_values(spec, a_grid[:, None] - a_grid[None, :], 16, cap_dist)
    else:
        fq = np.asarray(f_override(q_grid[:, None] - q_grid[None, :]), dtype=float)
        f_pairs_aa = np.asarray(f_override(a_grid[:, None] - a_grid[None, :]), dtype=float)

    n_t = t.size
    # L_0 tables: G(t_i, a - q) outer G(t_i, b - q')
    g_aq = np.asarray([_kernel_matrix(t[i], a_grid, q_grid)
                       for i in range(1, n_t)])
    levels = []
    l0 = np.einsum("iaq,ibr->iaqbr", g_aq, g_aq)
    levels.append(l0)

    gq = [None] + [  # G(t_j, q - q') for j >= 1
        _kernel_matrix(t[j], q_grid, q_grid) for j in range(1, n_t)]

    def end_lo(i):  # L_0 collapses to point masses at (a, b)
        return np.einsum("aq,br,ab->aqbr", g_aq[i - 1], g_aq[i - 1],
                         f_pairs_aa)

    for n in range(1, n_max + 1):
        levels.append(_volterra_level(
            levels[n - 1], fq[None, :, None, :], gq, dt, cell, _propagate_pairs,
            end_lo if n == 1 else None))
    return ResolventTable(spec=spec, t_grid=t, a_grid=a_grid, q_grid=q_grid,
                          values=levels)


def resolvent_bound_fit(table):
    """Fitted constants C_n = max (|L_n| / (G G h_n))^{1/n} of the
    resolvent domination, per level and overall, over the times t >= 0.2.

    Entries where the comparison scale G G h_n sits more than a factor
    1e-4 below its maximum are excluded: there the kernel product
    underflows the absolute resolution of the space-time quadrature and
    the ratio measures noise, not the bound.
    """
    spec = table.spec
    t = table.t_grid
    htab = mc.hn_table(spec, len(table.values) - 1, t)
    sel = np.nonzero(t >= 0.2)[0]
    sel = sel[sel >= 1]
    fits = {}
    g_aq = {i: _kernel_matrix(t[i], table.a_grid, table.q_grid) for i in sel}
    for n in range(1, len(table.values)):
        worst = 0.0
        for i in sel:
            gg = np.einsum("aq,br->aqbr", g_aq[i], g_aq[i])
            scale = gg * htab.values[n][i]
            mask = scale >= 1e-4 * np.max(scale)
            ratio = np.abs(table.values[n][i - 1][mask]) / scale[mask]
            worst = max(worst, float(np.max(ratio)) ** (1.0 / n))
        fits[n] = worst
    return fits


def two_point(spec, mu, t, x, x_prime, n_max=3, kmax=16):
    """Two-point function E[u(t,x) u(t,x')] by the mu-contracted resolvent
    series sum_n lambda^{2n} M_n, truncated at n_max (d = 1), on 21 time
    nodes and a 33-point space grid.

    The n = 0 term is exactly J_0(t,x) J_0(t,x').  Returns a dict with the
    value, the last-term truncation ratio (a warning flag when above 0.1),
    and the per-order contributions.
    """
    if spec.d != 1:
        raise DomainError("two_point quadrature is restricted to d = 1")
    if n_max > 3:
        raise DomainError("n_max > 3 exceeds the intended quadrature cost")
    for name, point in (("x", x), ("x_prime", x_prime)):
        if np.size(point) != 1:
            raise DomainError(f"two_point takes one coordinate for {name}, "
                              f"got {point}")
    t_nodes, q_grid_n = 21, 33
    q = grid_points(q_grid_n, 1)[:, 0]
    mu_vals = mu.density_at(q)
    tg = np.linspace(0.0, t, t_nodes)
    dt = tg[1] - tg[0]
    cell = TWO_PI / q_grid_n
    fq = _capped_f_values(spec, q[:, None] - q[None, :], kmax, cell)

    gq = [None] + [_kernel_matrix(tg[j], q, q) for j in range(1, t_nodes)]
    # M_0[j, z, z'] = J0(t_j, z) J0(t_j, z')
    j0_rows = np.asarray([gq[j] @ mu_vals * cell for j in range(1, t_nodes)])
    m_prev = np.einsum("jz,jw->jzw", j0_rows, j0_rows)
    m0_target = m_prev[-1]

    contributions = [float(_interp_pair(m0_target, q, x, x_prime))]

    def propagate(gz, inner):
        return gz @ inner @ gz.T

    def end_lo(i):  # M_0 collapses to mu x mu
        w = gq[i] * mu_vals[None, :]
        return w @ fq @ w.T * cell**2

    for n in range(1, n_max + 1):
        m_prev = _volterra_level(m_prev, fq, gq, dt, cell, propagate,
                                 end_lo if n == 1 else None)
        contributions.append(
            spec.lam ** (2 * n) * float(_interp_pair(m_prev[-1], q, x, x_prime)))
    value = float(np.sum(contributions))
    ratio = abs(contributions[-1]) / max(abs(value), 1e-300)
    return {
        "value": value, "contributions": contributions,
        "truncation_ratio": ratio, "truncation_warning": ratio > 0.1,
        "n_max": n_max,
    }


def _interp_pair(matrix, q, x, x_prime):
    ix = int(np.argmin(np.abs(signed_mod(q - float(np.atleast_1d(x)[0])))))
    iy = int(np.argmin(np.abs(signed_mod(q - float(np.atleast_1d(x_prime)[0])))))
    return matrix[ix, iy]


# ---------------------------------------------------------------------------
# Feynman-Kac and ergodic functionals (d = 1)


def _f_table(spec, kmax):
    """f on the n = 8192 nodes -pi + 2 pi j / n, and f_{j+1} - f_j mod n."""
    f = covariance_truncated(spec, grid_points(8192, 1), kmax)
    return f, np.roll(f, -1) - f


def _table_lookup(f, df, x):
    """Periodic linear interpolation of the table at x, by indexing: x
    lies in cell j = floor(s) at offset s - j, s = (x + pi) n / (2 pi)."""
    if not np.all(np.abs(x) < 1e15):  # so that j fits an int64
        raise DomainError("the covariance table needs finite |x| < 1e15")
    s = (x + math.pi) * (f.size / TWO_PI)
    j = np.floor(s)
    s -= j
    j = j.astype(np.intp) & (f.size - 1)  # n is a power of 2
    return np.take(f, j) + s * np.take(df, j)


# Normals per block of the pair walk, both walkers together: 2^16 doubles
# (512 KB) spread the per-call costs over many steps.  Two blocks are
# alive, 1 MB together, one summed while the next is drawn; blocks of 2^18
# add about 9 MB to the peak RSS.
_PAIR_BLOCK = 2**16


def _pair_walk(spec, kmax, x0, n_paths, stops, dt_bm, rng):
    """n_paths pairs of independent torus Brownian motions B, B' from x0;
    returns the rows ``(step, B, B', acc)`` at each of the sorted step
    counts ``stops``, ``acc`` the left-point sum of the tabulated
    f(B_s - B'_s) over the steps taken.

    The walk advances m = _PAIR_BLOCK // (2 n_paths) steps per block: one
    (m, 2, n_paths) draw (the same normals, in the same order, as m
    (2, n_paths) draws), unwrapped positions by a cumsum from the wrapped
    block start, one table lookup, and the running sum by a cumsum seeded
    with ``acc``, which adds in step order.  Blocks are cut at multiples of
    m and at the last stop only, so a stop's values do not depend on which
    other stops were asked for.

    With more than one block, block i + 1 is drawn ahead (``drawn_ahead``)
    into the other of two reused buffers while block i is summed; no row is
    a view into them, and the draws, and so the rows, are the same bits.
    """
    if n_paths < 2:
        raise DomainError(f"a standard error needs n_paths >= 2, got {n_paths}")
    f_tab, df_tab = _f_table(spec, kmax)
    m = max(1, _PAIR_BLOCK // (2 * n_paths))
    root = math.sqrt(dt_bm)
    stops, last = list(stops), stops[-1]
    starts = range(0, last, m)  # the steps done before each block
    buffers = np.empty((2, m + 1, 2, n_paths))

    def draw(i):  # block i's scaled steps, after a row for its start
        pos = buffers[i % 2, :min(m, last - starts[i]) + 1]
        rng.standard_normal(out=pos[1:])
        pos[1:] *= root
        return pos

    ends = np.full((2, n_paths), x0)  # B, B' at the block start
    acc = np.zeros(n_paths)
    rows = []
    with drawn_ahead(draw, len(starts), len(starts) > 1) as blocks:
        for done in starts:
            pos = next(blocks)
            k = len(pos) - 1
            pos[0] = ends
            np.cumsum(pos, axis=0, out=pos)
            sums = _table_lookup(f_tab, df_tab, pos[:-1, 0] - pos[:-1, 1])
            sums[0] += acc
            np.cumsum(sums, axis=0, out=sums)
            ends, acc = signed_mod(pos[-1]), sums[-1]
            while stops and stops[0] <= done + k:
                j = stops.pop(0) - done
                b = ends if j == k else signed_mod(pos[j])
                rows.append((done + j, b[0], b[1], sums[j - 1]))
    return rows


def feynman_kac_second_moment(spec, mu, t, x, n_paths, dt_bm, seed=0,
                              kmax=16):
    """Pair-of-Brownian-motions estimator of E[u(t,x)^2] for bounded
    density initial data:

        E[ mu(B_t) mu(B'_t) exp(lambda^2 int_0^t f(B_s - B'_s) ds) ]

    with independent torus Brownian motions from x and left-point time
    quadrature of f truncated to |k| <= kmax.  That f is bounded, so it is
    tabulated as it is, with no cap near the diagonal.  A horizon that is
    not a whole number of steps ``dt_bm`` is refused, not rounded.
    """
    if spec.d != 1:
        raise DomainError("the pair estimator is implemented for d = 1")
    if np.size(x) != 1:
        raise DomainError(f"the pair estimator takes one point, got {x}")
    x0 = float(np.atleast_1d(x)[0])
    mu.density_at(x0)  # refuses atoms before the walk
    n_steps = whole_steps(t, dt_bm, "horizon t", "dt_bm")
    if n_steps < 1:
        raise DomainError("dt_bm larger than the horizon")
    [(_, b1, b2, acc)] = _pair_walk(spec, kmax, x0, n_paths, [n_steps],
                                    dt_bm, step_rng(seed, 0, stream=1))
    end_w = mu.density_at(b1) * mu.density_at(b2)
    vals = end_w * np.exp(spec.lam**2 * acc * dt_bm)
    return MomentEstimate(t=float(t), x=(x0,), x_grid=(x0,), p=2.0,
                          value=float(np.mean(vals)),
                          std_err=jackknife_se(vals), n_samples=n_paths)


def fk_jensen_floor(spec, t, kmax=16):
    """exp(lambda^2 int_0^t E f(B_s - B'_s) ds) over the truncated modes:
    the Jensen lower bound for the pair functional started at any x."""
    sq = lattice_vectors(1, kmax).astype(float)[:, 0] ** 2
    mean_int = spec.rho * t * TWO_PI ** (-1) + TWO_PI ** (-1) * float(
        np.sum(mode_weight(spec, sq) / sq * (1.0 - np.exp(-sq * t))))
    return math.exp(spec.lam**2 * mean_int)


def ergodic_average_check(spec, t_list, n_paths, dt_bm=0.01, seed=0):
    """Time averages (1/t) int_0^t f(B_s - B'_s) ds of pairs started
    together, by the left-point sum over n = t / dt_bm steps, f truncated
    to |k| <= 16.

    Each row reports the mean, standard error, variance and
    ``exact_mean``, the expectation of that sum over the truncated modes,

        (dt_bm / t) (2 pi)^{-1} sum_{i<n} [rho + sum_{0<|k|<=16}
                                           |k|^{-2 alpha} e^{-k^2 i dt_bm}],

    which tends to the space average ``limit`` = rho (2 pi)^{-1} as t grows.
    ``pass`` is |mean - exact_mean| <= 3 SE at the largest horizon.  Each
    horizon must be at least half a step, round to its own step of
    ``dt_bm``, and be a whole number of steps: a rounded horizon is
    refused, as in :func:`feynman_kac_second_moment`."""
    if spec.d != 1:
        raise DomainError("implemented for d = 1")
    if not np.all(np.isfinite(t_list)):
        raise DomainError(f"horizons must be finite, got {t_list}")
    if not dt_bm > 0:
        raise DomainError(f"dt_bm = {dt_bm:g} must be positive")
    t_list = sorted(float(t) for t in np.atleast_1d(t_list))
    steps = [int(round(t / dt_bm)) for t in t_list]
    if steps[0] < 1:
        raise DomainError(f"horizon {t_list[0]:g} is shorter than half a "
                          f"step dt_bm = {dt_bm:g}")
    if len(set(steps)) < len(steps):
        raise DomainError(f"horizons {t_list} round to the same step of "
                          f"dt_bm = {dt_bm:g}")
    for t in t_list:
        whole_steps(t, dt_bm, "horizon t", "dt_bm")
    targets = dict(zip(steps, t_list))
    sq = lattice_vectors(1, 16).astype(float)[:, 0] ** 2
    weights = mode_weight(spec, sq)
    rows = []
    for step_i, _, _, acc in _pair_walk(spec, 16, 0.0, n_paths, steps, dt_bm,
                                        step_rng(seed, 0, stream=2)):
        t_now = targets[step_i]
        avg = acc * dt_bm / t_now
        # sum_{i<n} e^{-k^2 i dt_bm} as a geometric series
        decay = np.expm1(-sq * step_i * dt_bm) / np.expm1(-sq * dt_bm)
        variance = float(np.var(avg, ddof=1))
        rows.append({
            "t": t_now, "mean": float(np.mean(avg)),
            "std_err": math.sqrt(variance / n_paths), "variance": variance,
            "exact_mean": dt_bm / t_now * TWO_PI ** (-1) * (
                spec.rho * step_i + float(np.sum(weights * decay))),
        })
    last = rows[-1]
    return {
        "limit": spec.rho * TWO_PI ** (-1), "rows": rows,
        "pass": abs(last["mean"] - last["exact_mean"]) <= 3.0 * last["std_err"],
    }


# ---------------------------------------------------------------------------
# empirical Hoelder exponents


def _structure_slopes(lags, s2):
    """Slopes of log sqrt(S2) on log lag, one per column of the
    (lag, column) table ``s2``: the pooled S2 first, then each path's."""
    y = 0.5 * np.log(np.column_stack([s2.mean(axis=1), s2]))
    return np.polyfit(np.log(lags), y, 1)[0]


def _mean_square(diff):
    """Mean of ``diff**2`` over a (time, x...) slab, squared in place.  The
    sum runs as numpy's over all but the path axis of a (time, path, x...)
    stack does, pairwise within each time row and then row by row in time
    order, so a per-path S2 equals the whole-stack mean bit for bit."""
    diff *= diff
    rows = np.add.reduce(diff.reshape(diff.shape[0], -1), axis=1)
    return np.cumsum(rows)[-1] / diff.size


def empirical_holder(config, mu, seed, n_paths=24, t_window=(0.5, 1.0),
                     save_every=4, time_lags=(1, 2, 4, 8, 16, 32),
                     space_lags=(1, 2, 4, 8)):
    """Structure-function estimates of the time/space Hoelder exponents.

    Simulates an ensemble on ``t_window``, records the field every
    ``save_every`` steps, and regresses log sqrt(S2) on log lag, where S2
    is the mean squared increment over paths, positions and offsets: the
    mean over paths of one per-path table.  Lags are dyadic multiples of
    the storage stride (time) and of the grid cell (space).  Per-path
    slope scatter gives the confidence width.

    The tables are filled one path at a time: the path's (time, x...) slab
    is copied out of the stored stack and differenced in a second slab, so
    the call holds about one stack (18 MB at the CLI defaults) and no
    temporary of its size.
    """
    if len(time_lags) < 4 or len(space_lags) < 4:
        raise DomainError("need at least 4 lags per direction")
    t0, t1 = t_window
    out_times = np.arange(t0, t1 + 1e-12, config.dt * save_every)
    for name, lags, bound in (("time", time_lags, len(out_times)),
                              ("space", space_lags, config.grid_n)):
        if not 1 <= min(lags) <= max(lags) < bound:
            raise DomainError(f"{name} lags {tuple(lags)} must lie in "
                              f"[1, {bound - 1}]")
    times, fields = solve_ensemble(config, mu, seed, n_paths, out_times)
    dt_out = float(times[1] - times[0])
    s2_t = np.empty((len(time_lags), n_paths))
    s2_s = np.empty((len(space_lags), n_paths))
    slab = np.empty_like(fields[:, 0])  # one path's (time, x...) fields
    diff = np.empty_like(slab)
    for path in range(n_paths):
        np.copyto(slab, fields[:, path])
        for i, lag in enumerate(time_lags):
            d = np.subtract(slab[lag:], slab[:-lag], out=diff[:-lag])
            s2_t[i, path] = _mean_square(d)
        for i, lag in enumerate(space_lags):
            # np.roll(slab, -lag, axis=-1) - slab, written piece by piece
            np.subtract(slab[..., lag:], slab[..., :-lag],
                        out=diff[..., :-lag])
            np.subtract(slab[..., :lag], slab[..., -lag:],
                        out=diff[..., -lag:])
            s2_s[i, path] = _mean_square(diff)
    b1 = _structure_slopes(np.array(time_lags) * dt_out, s2_t)
    b2 = _structure_slopes(np.array(space_lags) * (TWO_PI / config.grid_n), s2_s)
    return {
        "beta1_hat": float(b1[0]), "beta2_hat": float(b2[0]),
        "beta1_ci": 2.0 * jackknife_se(b1[1:]),
        "beta2_ci": 2.0 * jackknife_se(b2[1:]),
        "dt": config.dt, "dt_out": dt_out, "n_paths": n_paths,
        "time_lags": tuple(time_lags), "space_lags": tuple(space_lags),
    }
