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
from .covariance import NoiseSpec, covariance_truncated
from .errors import DomainError
from .heat_kernel import TWO_PI, heat_kernel, signed_mod
from .noise_field import grid_points, step_rng
from .pam_solver import j0, solve_ensemble


def jackknife_se(values):
    """Leave-one-out standard error of the sample mean."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise DomainError("jackknife needs at least two samples")
    loo = (np.sum(v) - v) / (n - 1)
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


@dataclass(frozen=True)
class MomentEstimate:
    """One Monte-Carlo moment estimate with its standard error."""

    t: float
    x: tuple
    p: float
    value: float
    std_err: float
    n_samples: int

    def within(self, target, n_se=3.0):
        return abs(self.value - target) <= n_se * max(self.std_err, 1e-300)


def mc_moments(config, mu, p, n_samples, t_list, x_list, seed=0,
               n_chunks=1, threads=1):
    """Ensemble moment estimates E[u(t,x)^p] at grid points nearest to
    the requested x, with jackknife standard errors.

    With ``n_chunks > 1`` the ensemble splits into fixed chunks on
    disjoint noise streams, optionally run on a thread pool; the result
    is bit-identical for any thread count because the chunk layout and
    the reduction order are fixed.
    """
    if p < 1:
        raise DomainError("moment order p must be >= 1")
    if n_chunks < 1 or n_samples % n_chunks:
        raise DomainError("n_chunks must divide n_samples")
    per = n_samples // n_chunks
    if n_chunks == 1:
        times, fields = solve_ensemble(config, mu, seed, n_samples, t_list)
    else:
        from concurrent.futures import ThreadPoolExecutor

        def run(chunk):
            return solve_ensemble(config, mu, seed, per, t_list, stream=chunk)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(run, range(n_chunks)))
        else:
            parts = [run(c) for c in range(n_chunks)]
        times = parts[0][0]
        fields = np.concatenate([pr[1] for pr in parts], axis=1)
    pts = grid_points(config.grid_n, config.spec.d)
    out = []
    for t_req in np.atleast_1d(t_list):
        ti = int(np.argmin(np.abs(times - t_req)))
        for x_req in x_list:
            xa = np.atleast_1d(np.asarray(x_req, dtype=float))
            xi = int(np.argmin(np.sum(signed_mod(pts - xa) ** 2, axis=-1)))
            flat = fields[ti].reshape(fields.shape[1], -1)[:, xi]
            powers = flat**p if p == int(p) and int(p) % 2 == 0 \
                else np.abs(flat) ** p
            out.append(MomentEstimate(
                t=float(times[ti]), x=tuple(xa), p=float(p),
                value=float(np.mean(powers)), std_err=jackknife_se(powers),
                n_samples=n_samples))
    return out


def covariance_infimum(spec, n_grid=2048):
    """Grid infimum of the covariance (d = 1); the level C_f of the
    second-moment lower bound when it is positive."""
    from .covariance import covariance_eval_batch

    xs = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
    xs = xs[xs != 0.0][:, None]
    return float(np.min(covariance_eval_batch(spec, xs)))


def moment_bound_report(config, mu, n_samples, t_list, x, seed=0,
                        rho_suff=None, n_chunks=1, threads=1):
    """Second-moment estimates against the p = 2 upper bound and, when the
    noise level makes the covariance nonnegative (rho >= rho_sufficient*),
    the exponential lower bound with eps = t."""
    spec = config.spec
    ests = mc_moments(config, mu, 2, n_samples, t_list, [x], seed=seed,
                      n_chunks=n_chunks, threads=threads)
    rows = []
    for est in ests:
        upper = mc.p_moment_upper(est.t, np.asarray(est.x), 2.0, mu, spec) ** 2
        row = {
            "t": est.t, "x": est.x, "value": est.value,
            "std_err": est.std_err, "upper": upper,
            "upper_ok": est.value - 3.0 * est.std_err <= upper,
        }
        if rho_suff is not None and spec.rho >= rho_suff:
            c_f = covariance_infimum(spec)
            j0v = float(j0(est.t, np.asarray(est.x), mu, d=spec.d))
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
    f_matrix: np.ndarray

    @property
    def n_max(self):
        return len(self.values) - 1

    def partial_kappa(self, lam=None):
        """Truncated resolvent sum_{n <= n_max} lambda^{2n} L_n on the grid."""
        if lam is None:
            lam = self.spec.lam
        out = np.zeros_like(self.values[0])
        for n, level in enumerate(self.values):
            out += float(lam) ** (2 * n) * level
        return out


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
    at s = t_i and ``end_lo(i)`` (None: zero) at s = 0."""
    cur = np.zeros_like(prev)
    for i in range(1, len(prev) + 1):
        acc = np.zeros_like(prev[0])
        for jj in range(1, i):
            acc += propagate(gq[i - jj], prev[jj - 1] * weight)
        total = dt * acc * cell**2
        lo = 0.0 if end_lo is None else end_lo(i)
        total += 0.5 * dt * (lo + prev[i - 1] * weight)
        cur[i - 1] = total
    return cur


def resolvent_Ln(spec, n_max, t_grid, a_grid_n=9, q_grid_n=33, kmax=16,
                 f_override=None, cap_dist=None):
    """Space-time quadrature of the resolvent recursion
    L_n = L_0 (convolved against) L_{n-1} with weight f, in d = 1.

    ``t_grid`` must be uniform starting at 0; endpoint values of the time
    integral use the analytic s -> 0 and s -> t limits.  ``f_override``
    replaces the covariance by an arbitrary function of the separation
    (the constant-f oracle of the acceptance suite).  ``cap_dist`` freezes
    the near-diagonal covariance regularization (default: one q-cell);
    refinement studies must hold it fixed, otherwise they confound grid
    convergence with the sharpening of the capped singularity.
    """
    if spec.d != 1:
        raise DomainError("resolvent quadrature is restricted to d = 1")
    if n_max > 3:
        raise DomainError("n_max > 3 exceeds the intended quadrature cost")
    t = np.asarray(t_grid, dtype=float)
    if t[0] != 0.0 or t.size < 3:
        raise DomainError("t_grid must start at 0 with at least 3 nodes")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-12):
        raise DomainError("t_grid must be uniform")

    a_grid = grid_points(a_grid_n, 1)[:, 0]
    q_grid = grid_points(q_grid_n, 1)[:, 0]
    cell = TWO_PI / q_grid_n
    if cap_dist is None:
        cap_dist = cell
    if f_override is None:
        fq = _capped_f_values(spec, q_grid[:, None] - q_grid[None, :], kmax, cap_dist)
        f_pairs_aa = _capped_f_values(spec, a_grid[:, None] - a_grid[None, :], kmax, cap_dist)
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

    def propagate(gz, inner):
        return np.einsum("xz,yw,azbw->axby", gz, gz, inner, optimize=True)

    def end_lo(i):  # L_0 collapses to point masses at (a, b)
        return np.einsum("aq,br,ab->aqbr", g_aq[i - 1], g_aq[i - 1],
                         f_pairs_aa)

    for n in range(1, n_max + 1):
        levels.append(_volterra_level(
            levels[n - 1], fq[None, :, None, :], gq, dt, cell, propagate,
            end_lo if n == 1 else None))
    return ResolventTable(spec=spec, t_grid=t, a_grid=a_grid, q_grid=q_grid,
                          values=levels, f_matrix=fq)


def resolvent_bound_fit(table, t_min=0.2, floor_rel=1e-4):
    """Fitted constants C_n = max (|L_n| / (G G h_n))^{1/n} of the
    resolvent domination, per level and overall.

    Entries where the comparison scale G G h_n sits more than
    ``floor_rel`` below its maximum are excluded: there the kernel product
    underflows the absolute resolution of the space-time quadrature and
    the ratio measures noise, not the bound.
    """
    spec = table.spec
    t = table.t_grid
    htab = mc.hn_table(spec, len(table.values) - 1, t)
    sel = np.nonzero(t >= t_min)[0]
    sel = sel[sel >= 1]
    fits = {}
    g_aq = {i: _kernel_matrix(t[i], table.a_grid, table.q_grid) for i in sel}
    for n in range(1, len(table.values)):
        worst = 0.0
        for i in sel:
            gg = np.einsum("aq,br->aqbr", g_aq[i], g_aq[i])
            scale = gg * htab.values[n][i]
            mask = scale >= floor_rel * np.max(scale)
            ratio = np.abs(table.values[n][i - 1][mask]) / scale[mask]
            worst = max(worst, float(np.max(ratio)) ** (1.0 / n))
        fits[n] = worst
    return fits


def two_point(spec, mu, t, x, x_prime, n_max=3, t_nodes=21, q_grid_n=33,
              kmax=16, warn_ratio=0.1):
    """Two-point function E[u(t,x) u(t,x')] by the mu-contracted resolvent
    series sum_n lambda^{2n} M_n, truncated at n_max (d = 1).

    The n = 0 term is exactly J_0(t,x) J_0(t,x').  Returns a dict with the
    value, the last-term truncation ratio (a warning flag when above
    ``warn_ratio``), and the per-order contributions.
    """
    if spec.d != 1:
        raise DomainError("two_point quadrature is restricted to d = 1")
    if n_max > 3:
        raise DomainError("n_max > 3 exceeds the intended quadrature cost")
    if mu.variant not in ("uniform", "density"):
        raise DomainError("two_point needs an absolutely continuous mu")
    tg = np.linspace(0.0, t, t_nodes)
    dt = tg[1] - tg[0]
    q = grid_points(q_grid_n, 1)[:, 0]
    cell = TWO_PI / q_grid_n
    fq = _capped_f_values(spec, q[:, None] - q[None, :], kmax, cell)
    if mu.variant == "uniform":
        mu_vals = np.full(q_grid_n, mu.mass * TWO_PI ** (-1))
    else:
        if mu.density.shape[0] != q_grid_n:
            raise DomainError("density grid must match q_grid_n")
        mu_vals = mu.density.astype(float)

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
        "truncation_ratio": ratio, "truncation_warning": ratio > warn_ratio,
        "n_max": n_max,
    }


def _interp_pair(matrix, q, x, x_prime):
    ix = int(np.argmin(np.abs(signed_mod(q - float(np.atleast_1d(x)[0])))))
    iy = int(np.argmin(np.abs(signed_mod(q - float(np.atleast_1d(x_prime)[0])))))
    return matrix[ix, iy]


# ---------------------------------------------------------------------------
# Feynman-Kac and ergodic functionals (d = 1)


def _f_table(spec, kmax, n_tab=8192, cap_dist=None):
    xs = grid_points(n_tab, 1)[:, 0]
    vals = covariance_truncated(spec, xs[:, None], kmax)
    if cap_dist is not None:
        cap_val = covariance_truncated(spec, np.array([cap_dist]), kmax)
        vals = np.where(np.abs(xs) < cap_dist, float(cap_val), vals)
    order = np.argsort(xs)
    return xs[order], vals[order]


def _table_lookup(xs, vals, x):
    return np.interp(signed_mod(x), xs, vals, period=TWO_PI)


def _pair_walk(spec, kmax, cap_dist, x0, n_paths, n_steps, dt_bm, rng):
    """n_paths pairs of independent torus Brownian motions B, B' from x0;
    yields ``(step, B, B', acc)`` after each step, ``acc`` (updated in
    place) the left-point sum of the tabulated f(B_s - B'_s) so far."""
    xs_tab, f_tab = _f_table(spec, kmax, cap_dist=cap_dist)
    b1 = np.full(n_paths, x0)
    b2 = b1.copy()
    acc = np.zeros(n_paths)
    root = math.sqrt(dt_bm)
    for step_i in range(1, n_steps + 1):
        acc += _table_lookup(xs_tab, f_tab, b1 - b2)
        steps = rng.standard_normal((2, n_paths)) * root
        b1 = signed_mod(b1 + steps[0])
        b2 = signed_mod(b2 + steps[1])
        yield step_i, b1, b2, acc


def feynman_kac_second_moment(spec, mu, t, x, n_paths, dt_bm, seed=0,
                              kmax=16, cap_dist=None):
    """Pair-of-Brownian-motions estimator of E[u(t,x)^2] for bounded
    density initial data:

        E[ mu(B_t) mu(B'_t) exp(lambda^2 int_0^t f(B_s - B'_s) ds) ]

    with independent torus Brownian motions from x, left-point time
    quadrature, and the covariance capped within ``cap_dist`` of the
    diagonal (default: one table cell; the mode-truncated f is bounded, so
    the cap only matters for large mode cutoffs).
    """
    if spec.d != 1:
        raise DomainError("the pair estimator is implemented for d = 1")
    if mu.variant not in ("uniform", "density"):
        raise DomainError("Feynman-Kac needs bounded density initial data")
    n_steps = int(round(t / dt_bm))
    if n_steps < 1:
        raise DomainError("dt_bm larger than the horizon")
    x0 = float(np.atleast_1d(x)[0])
    walk = _pair_walk(spec, kmax, cap_dist, x0, n_paths, n_steps, dt_bm,
                      step_rng(seed, 0, stream=1))
    for _, b1, b2, acc in walk:  # the estimator reads only the end state
        pass
    if mu.variant == "uniform":
        end_w = np.full(n_paths, mu.mass * TWO_PI ** (-1)) ** 2
    else:
        n = mu.density.shape[0]
        xs_mu = grid_points(n, 1)[:, 0]
        end_w = (np.interp(b1, xs_mu, mu.density, period=TWO_PI)
                 * np.interp(b2, xs_mu, mu.density, period=TWO_PI))
    vals = end_w * np.exp(spec.lam**2 * acc * dt_bm)
    return MomentEstimate(t=float(t), x=(x0,), p=2.0,
                          value=float(np.mean(vals)),
                          std_err=jackknife_se(vals), n_samples=n_paths)


def fk_jensen_floor(spec, t, kmax=16):
    """exp(lambda^2 int_0^t E f(B_s - B'_s) ds) over the truncated modes:
    the Jensen lower bound for the pair functional started at any x."""
    from .lattice import lattice_vectors

    vecs = lattice_vectors(1, kmax).astype(float)[:, 0]
    sq = vecs**2
    mean_int = spec.rho * t * TWO_PI ** (-1) + TWO_PI ** (-1) * float(
        np.sum(sq ** (-spec.alpha - 1.0) * (1.0 - np.exp(-sq * t))))
    return math.exp(spec.lam**2 * mean_int)


def ergodic_average_check(spec, t_list, n_paths, dt_bm=0.01, seed=0, kmax=16):
    """Time averages (1/t) int_0^t f(B_s - B'_s) ds against the space
    average rho (2 pi)^{-d}; reports mean, standard error and a pass flag
    (|mean - limit| <= 3 SE at the largest horizon).  Each horizon must
    round to its own step of ``dt_bm``, and to at least one step."""
    if spec.d != 1:
        raise DomainError("implemented for d = 1")
    t_list = sorted(float(t) for t in np.atleast_1d(t_list))
    steps = [int(round(t / dt_bm)) for t in t_list]
    if steps[0] < 1:
        raise DomainError(f"horizon {t_list[0]:g} is shorter than half a "
                          f"step dt_bm = {dt_bm:g}")
    if len(set(steps)) < len(steps):
        raise DomainError(f"horizons {t_list} round to the same step of "
                          f"dt_bm = {dt_bm:g}")
    targets = dict(zip(steps, t_list))
    rows = []
    walk = _pair_walk(spec, kmax, None, 0.0, n_paths, steps[-1], dt_bm,
                      step_rng(seed, 0, stream=2))
    for step_i, _, _, acc in walk:
        if step_i in targets:
            t_now = targets[step_i]
            avg = acc * dt_bm / t_now
            rows.append({
                "t": t_now, "mean": float(np.mean(avg)),
                "std_err": jackknife_se(avg),
                "variance": float(np.var(avg, ddof=1)),
            })
    limit = spec.rho * TWO_PI ** (-1)
    last = rows[-1]
    return {
        "limit": limit, "rows": rows,
        "pass": abs(last["mean"] - limit) <= 3.0 * last["std_err"],
    }


# ---------------------------------------------------------------------------
# empirical Hoelder exponents


def _structure_slope(lags, s2):
    x = np.log(np.asarray(lags, dtype=float))
    y = 0.5 * np.log(np.asarray(s2, dtype=float))
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


def empirical_holder(config, mu, seed, n_paths=24, t_window=(0.5, 1.0),
                     save_every=4, time_lags=(1, 2, 4, 8, 16, 32),
                     space_lags=(2, 4, 8, 16)):
    """Structure-function estimates of the time/space Hoelder exponents.

    Simulates an ensemble on ``t_window``, records the field every
    ``save_every`` steps, and regresses log sqrt(S2) on log lag, where S2
    is the mean squared increment over paths, positions and offsets.  Lags
    are dyadic multiples of the storage stride (time) and of the grid cell
    (space).  Per-path slope scatter gives the confidence width.
    """
    if len(time_lags) < 4 or len(space_lags) < 4:
        raise DomainError("need at least 4 lags per direction")
    t0, t1 = t_window
    out_times = np.arange(t0, t1 + 1e-12, config.dt * save_every)
    times, fields = solve_ensemble(config, mu, seed, n_paths, out_times)
    # fields: (time, path, x)
    dt_out = float(times[1] - times[0])
    u = np.moveaxis(fields, 0, 1)  # (path, time, x)

    def slopes_for(path_slice):
        s2_t = []
        for lag in time_lags:
            d = u[path_slice, lag:, :] - u[path_slice, :-lag, :]
            s2_t.append(np.mean(d * d))
        s2_s = []
        for lag in space_lags:
            d = np.roll(u[path_slice], -lag, axis=-1) - u[path_slice]
            s2_s.append(np.mean(d * d))
        b1, _ = _structure_slope(np.array(time_lags) * dt_out, s2_t)
        cell = TWO_PI / config.grid_n
        b2, _ = _structure_slope(np.array(space_lags) * cell, s2_s)
        return b1, b2

    beta1, beta2 = slopes_for(slice(None))
    per_path = np.array([slopes_for(slice(i, i + 1)) for i in range(n_paths)])
    ci1 = float(np.std(per_path[:, 0], ddof=1) / math.sqrt(n_paths)) * 2.0
    ci2 = float(np.std(per_path[:, 1], ddof=1) / math.sqrt(n_paths)) * 2.0
    return {
        "beta1_hat": beta1, "beta2_hat": beta2,
        "beta1_ci": ci1, "beta2_ci": ci2,
        "dt": config.dt, "dt_out": dt_out, "n_paths": n_paths,
        "time_lags": tuple(time_lags), "space_lags": tuple(space_lags),
    }
