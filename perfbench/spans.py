"""Span recording around torpam's public functions, installed from outside
the package.

A :class:`Recorder` wraps a function so that each call appends one span
``[name, start, end, parent, counts]`` to an in-memory list; ``parent`` is
the index of the enclosing span on the same thread (-1 at top level) and
``counts`` the work counted at that boundary (computed from the call's
arguments or result after the span has closed, so it is not timed).
:func:`install` replaces every binding of a wrapped function object in the
given namespaces, which covers the names other modules bound through
``from .x import y`` (``pam_solver.modes_to_grid``,
``covariance.heat_kernel``, ``experiments.solve_ensemble``, ...).

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time

import numpy as np


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name`` per call; ``count(args,
        kwargs, result)`` returns a dict of work counts for the span."""
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def install(recorder, targets, namespaces):
    """Wrap each ``(owner, attr, span name, count)`` target and rebind the
    wrapper wherever ``namespaces`` (modules or classes) hold the original
    function object.  Returns the undo list for :func:`uninstall`."""
    undo = []
    for owner, attr, name, count in targets:
        original = vars(owner)[attr]
        wrapper = recorder.wrap(name, original, count)
        for ns in dict.fromkeys(list(namespaces) + [owner]):
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    undo.append((ns, key, original))
    return undo


def uninstall(undo):
    for ns, key, original in reversed(undo):
        setattr(ns, key, original)


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals
    (clipped to the parent)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Aggregate spans by name: ``total`` (outermost spans of that name,
    so recursion is not counted twice), ``self``, ``calls``, and summed
    ``counts``."""
    selfs = self_times(spans)
    total, self_sum, calls, counts = {}, {}, {}, {}
    for i, (name, start, end, parent, cnt) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value
    return {"total": total, "self": self_sum, "calls": calls,
            "counts": counts}


# ---------------------------------------------------------------------------
# what the benchmark traces in torpam


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# fft_bytes_computed: 16 B per complex128 element each transform produces,
# computed from array shapes, not measured
def _synthesis_fft_bytes(args, kwargs, result):
    return {"fft_bytes_computed": 16 * result.size}


def _analysis_fft_bytes(args, kwargs, result):
    return {"fft_bytes_computed": 16 * args[0].size}


def _result_size(key):
    def count(args, kwargs, result):
        return {key: int(np.size(result))}
    return count


def _path_steps(fn):
    def count(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"path_steps": int(a["n_paths"]) * a["config"].n_steps}
    return count


def _pair_steps(fn, horizon):
    def count(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        t = float(np.max(np.atleast_1d(a[horizon])))
        return {"pair_steps": int(a["n_paths"]) * int(round(t / a["dt_bm"]))}
    return count


def _artifact_bytes(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    out = argv[argv.index("--out") + 1]
    return {"artifact_bytes": sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))}


def targets():
    """(owner, attr, span name, count) for every traced torpam function."""
    from torpam import bridge, cli, covariance, experiments, heat_kernel
    from torpam import moment_calculus, noise_field, pam_solver

    nf, ex = noise_field, experiments
    return [
        (nf, "step_rng", "noise_field.step_rng", None),
        (nf.IncrementSampler, "sample_modes", "noise_field.sample_modes",
         _result_size("normals_drawn")),
        (nf, "modes_to_grid", "noise_field.modes_to_grid",
         _synthesis_fft_bytes),
        (nf, "grid_to_modes", "noise_field.grid_to_modes",
         _analysis_fft_bytes),
        (pam_solver, "solve_ensemble", "pam_solver.solve_ensemble",
         _path_steps(pam_solver.solve_ensemble)),
        (pam_solver, "initial_field", "pam_solver.initial_field", None),
        (ex, "empirical_holder", "experiments.empirical_holder", None),
        (ex, "mc_moments", "experiments.mc_moments", None),
        (ex, "moment_bound_report", "experiments.moment_bound_report", None),
        (ex, "resolvent_Ln", "experiments.resolvent_Ln", None),
        (ex, "resolvent_bound_fit", "experiments.resolvent_bound_fit", None),
        (ex, "two_point", "experiments.two_point", None),
        (ex, "feynman_kac_second_moment", "experiments.feynman_kac",
         _pair_steps(ex.feynman_kac_second_moment, "t")),
        (ex, "ergodic_average_check", "experiments.ergodic",
         _pair_steps(ex.ergodic_average_check, "t_list")),
        (covariance, "covariance_eval", "covariance.covariance_eval", None),
        (covariance, "covariance_eval_integral",
         "covariance.covariance_eval_integral", None),
        (covariance, "covariance_eval_batch", "covariance.covariance_eval_batch",
         _result_size("covariance_eval_batch_points")),
        (covariance, "covariance_truncated", "covariance.covariance_truncated",
         _result_size("covariance_truncated_points")),
        (heat_kernel, "heat_kernel", "heat_kernel.heat_kernel", None),
        (heat_kernel, "theta_c", "heat_kernel.theta_c", None),
        (heat_kernel, "kernel_ratio", "heat_kernel.kernel_ratio", None),
        (heat_kernel, "flatness_sup_error", "heat_kernel.flatness_sup_error",
         None),
        (moment_calculus, "H_lambda", "moment_calculus.H_lambda", None),
        (moment_calculus, "p_moment_upper", "moment_calculus.p_moment_upper",
         None),
        (moment_calculus, "gamma0", "moment_calculus.gamma0", None),
        (moment_calculus, "hn_table", "moment_calculus.hn_table", None),
        (bridge, "check_large_time_bound", "bridge.check_large_time_bound",
         None),
        (bridge, "fit_image_sum_constant", "bridge.fit_image_sum_constant",
         None),
        (cli, "main", "cli.main", _artifact_bytes),
    ]


def namespaces():
    """Every torpam module plus the classes whose methods are traced."""
    import torpam
    from torpam import (bridge, cli, covariance, errors, experiments,
                        heat_kernel, lattice, moment_calculus, noise_field,
                        pam_solver)

    return [torpam, bridge, cli, covariance, errors, experiments, heat_kernel,
            lattice, moment_calculus, noise_field, pam_solver,
            noise_field.IncrementSampler]


# per-layer metric -> (unit, statistic, span name or count key); "total" is
# the time inside outermost spans of that name, "self" the time not covered
# by child spans
LAYER_METRICS = {
    "noise_field.step_rng_s": ("s", "total", "noise_field.step_rng"),
    "noise_field.step_rng_calls": ("count", "calls", "noise_field.step_rng"),
    "noise_field.sample_modes_s": ("s", "total", "noise_field.sample_modes"),
    "noise_field.normals_drawn": ("count", "counts", "normals_drawn"),
    "noise_field.modes_to_grid_s": ("s", "total", "noise_field.modes_to_grid"),
    "noise_field.modes_to_grid_calls":
        ("count", "calls", "noise_field.modes_to_grid"),
    "noise_field.grid_to_modes_s": ("s", "total", "noise_field.grid_to_modes"),
    "noise_field.grid_to_modes_calls":
        ("count", "calls", "noise_field.grid_to_modes"),
    "noise_field.fft_bytes_computed": ("B", "counts", "fft_bytes_computed"),
    "pam_solver.solve_ensemble_s": ("s", "total", "pam_solver.solve_ensemble"),
    "pam_solver.self_s": ("s", "self", "pam_solver.solve_ensemble"),
    "pam_solver.path_steps": ("count", "counts", "path_steps"),
    "pam_solver.initial_field_s": ("s", "total", "pam_solver.initial_field"),
    "experiments.empirical_holder_self_s":
        ("s", "self", "experiments.empirical_holder"),
    "experiments.mc_moments_self_s": ("s", "self", "experiments.mc_moments"),
    "experiments.moment_bound_report_self_s":
        ("s", "self", "experiments.moment_bound_report"),
    "experiments.resolvent_Ln_s": ("s", "total", "experiments.resolvent_Ln"),
    "experiments.resolvent_bound_fit_s":
        ("s", "total", "experiments.resolvent_bound_fit"),
    "experiments.two_point_s": ("s", "total", "experiments.two_point"),
    "experiments.feynman_kac_s": ("s", "total", "experiments.feynman_kac"),
    "experiments.ergodic_s": ("s", "total", "experiments.ergodic"),
    "experiments.pair_steps": ("count", "counts", "pair_steps"),
    "covariance.covariance_eval_s":
        ("s", "total", "covariance.covariance_eval"),
    "covariance.covariance_eval_calls":
        ("count", "calls", "covariance.covariance_eval"),
    "covariance.covariance_eval_integral_s":
        ("s", "total", "covariance.covariance_eval_integral"),
    "covariance.covariance_eval_integral_calls":
        ("count", "calls", "covariance.covariance_eval_integral"),
    "covariance.covariance_eval_batch_s":
        ("s", "total", "covariance.covariance_eval_batch"),
    "covariance.covariance_eval_batch_points":
        ("count", "counts", "covariance_eval_batch_points"),
    "covariance.covariance_truncated_s":
        ("s", "total", "covariance.covariance_truncated"),
    "covariance.covariance_truncated_points":
        ("count", "counts", "covariance_truncated_points"),
    "heat_kernel.heat_kernel_s": ("s", "total", "heat_kernel.heat_kernel"),
    "heat_kernel.heat_kernel_calls":
        ("count", "calls", "heat_kernel.heat_kernel"),
    "heat_kernel.theta_c_s": ("s", "total", "heat_kernel.theta_c"),
    "heat_kernel.kernel_ratio_s": ("s", "total", "heat_kernel.kernel_ratio"),
    "heat_kernel.flatness_sup_error_s":
        ("s", "total", "heat_kernel.flatness_sup_error"),
    "moment_calculus.H_lambda_s": ("s", "total", "moment_calculus.H_lambda"),
    "moment_calculus.H_lambda_calls":
        ("count", "calls", "moment_calculus.H_lambda"),
    "moment_calculus.p_moment_upper_s":
        ("s", "total", "moment_calculus.p_moment_upper"),
    "moment_calculus.gamma0_s": ("s", "total", "moment_calculus.gamma0"),
    "moment_calculus.hn_table_s": ("s", "total", "moment_calculus.hn_table"),
    "bridge.check_large_time_bound_s":
        ("s", "total", "bridge.check_large_time_bound"),
    "bridge.fit_image_sum_constant_s":
        ("s", "total", "bridge.fit_image_sum_constant"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.artifact_bytes": ("B", "counts", "artifact_bytes"),
}

# counts that must repeat exactly, run to run
EXACT_COUNTS = (
    "pam_solver.path_steps", "noise_field.normals_drawn",
    "noise_field.modes_to_grid_calls", "noise_field.grid_to_modes_calls",
    "noise_field.fft_bytes_computed", "experiments.pair_steps",
    "heat_kernel.heat_kernel_calls",
)


def layer_metrics(summary):
    """Values of :data:`LAYER_METRICS` from a :func:`summarize` result;
    a layer the run never entered reads 0."""
    out = {}
    for metric, (unit, stat, key) in LAYER_METRICS.items():
        out[metric] = summary[stat].get(key, 0)
    return out
