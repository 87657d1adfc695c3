"""Command-line surface: evaluate kernels and covariances, verify the
comparison lemmas, simulate the equation, and run the Monte-Carlo
experiment matrix.

Every subcommand is one entry of the command table ``COMMANDS``: its
flags, the run flags it reads, its report file and a compute function.
One run sequence serves them all: it computes, and only then writes
every file of the run in one place: a ``manifest.json`` (command, every
flag value, seed, package version -- no timestamps, so identical
invocations produce byte-identical artifacts), the report and any further
artifact.  A run refused on the way writes nothing.  A manifest's ``parameters`` plus its ``seed`` replay the run as a
``--config`` file.  Exit codes: 0 success, 1 usage or domain error, 2
verification failure (some ``pass`` flag came back false).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import bridge as br
from . import experiments as ex
from . import moment_calculus as mc
from . import noise_field as nf
from .covariance import (NoiseSpec, covariance_eval, covariance_eval_integral,
                         rho_star)
from .errors import DomainError, NumericsError
from .heat_kernel import heat_kernel, kernel_sandwich_check, theta_c, theta_eps
from .pam_solver import InitialMeasure, SolverConfig, cpu_count, solve

USAGE_ERROR, VERIFY_FAIL = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write(out_dir, files):
    """Write every file of a finished run, in the format its extension
    names: ``.npy`` an array, ``.csv`` a list of rows (``\n``-terminated,
    floats as ``%.17g``), anything else JSON."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".npy"):
            np.save(path, content)
        elif name.endswith(".csv"):
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(
                    [f"{v:.17g}" if isinstance(v, float) else v for v in row]
                    for row in content)
        else:
            with open(path, "w") as fh:
                json.dump(content, fh, indent=2, sort_keys=True,
                          default=_jsonable)
                fh.write("\n")


def _table(header, rows):
    """CSV rows: the header, then each dict's values in header order."""
    return [header] + [[row[k] for k in header] for row in rows]


def _passes(obj):
    """Every pass flag in a report, depth first."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in ("pass", "upper_ok", "lower_ok") and isinstance(v, (bool, np.bool_)):
                yield bool(v)
            else:
                yield from _passes(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _passes(v)


def _finish(report):
    print(json.dumps(report, indent=2, sort_keys=True, default=_jsonable))
    return 0 if all(_passes(report)) else VERIFY_FAIL


def _floats(text):
    """argparse type of a comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _spec_from(args):
    return NoiseSpec(d=args.d, alpha=args.alpha, rho=getattr(args, "rho", 0.0),
                     lam=getattr(args, "lambda", 1.0))


def _measure_from(args):
    if args.mu == "uniform":
        return InitialMeasure.uniform(args.mass)
    if args.mu == "delta":
        if args.mass != 1.0:
            raise DomainError(f"--mass {args.mass:g} with --mu delta: the "
                              "smoothed delta has unit mass")
        return InitialMeasure.delta([0.0] * args.d, args.dt)
    raise DomainError(f"unsupported initial measure {args.mu!r}")


# --------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    name: str
    # (flag, type or tuple of choices, default); REQUIRED marks a flag
    # that must be given by argv or config
    flags: list
    # the run flags (keys of RUN_FLAGS) the command reads
    run: tuple
    # report file written to --out
    report: str
    # (args, spec, files) -> report; puts any further artifact into files
    # (file name -> array for .npy, list of rows for .csv)
    compute: Callable


REQUIRED = object()
SPEC = [("d", int, 1), ("alpha", float, REQUIRED), ("rho", float, 0.0)]
LAMBDA = [("lambda", float, 1.0)]
# run flags steer how a run is made and are kept out of the manifest's
# parameters (the seed is recorded top-level)
RUN_FLAGS = {"seed": (int, 0), "format": (("csv", "json"), "json"),
             "threads": (int, cpu_count())}
COMMANDS = {}


def _mu(*choices):
    return [("mu", choices, "uniform"), ("mass", float, 1.0)]


def _command(name, flags, report, run=()):
    def register(compute):
        COMMANDS[name] = Command(name, flags, run, report, compute)
        return compute
    return register


@_command("kernel-eval", [("d", int, 1), ("t", float, REQUIRED),
                          ("x", _floats, REQUIRED)], "kernel_eval.json")
def _kernel_eval(a, spec, files):
    if len(a.x) != a.d:
        raise DomainError(f"--x has {len(a.x)} coordinates, --d is {a.d}")
    return {"G": float(heat_kernel(a.t, a.x)), "C_t": float(theta_c(a.t)),
            "theta_eps_1": theta_eps(1.0, a.d)}


@_command("kernel-verify", [("d", int, 1), ("t-list", _floats, "0.1,1,10"),
                            ("n-samples", int, 2000)],
          "kernel_verify.json", run=("seed",))
def _kernel_verify(a, spec, files):
    rng = np.random.default_rng(a.seed)
    rows = []
    for t in a.t_list:
        xs = rng.uniform(-math.pi, math.pi, size=(a.n_samples, a.d))
        rep = kernel_sandwich_check(t, xs)
        rows.append({
            "t": t, "pass": bool(rep["pass"]),
            "ratio_min": float(np.min(rep["ratio"])),
            "ratio_max": float(np.max(rep["ratio"])),
            "lower": float(rep["lower"]), "upper": float(rep["upper"]),
        })
    files["kernel_verify.csv"] = _table(
        ["t", "pass", "ratio_min", "ratio_max", "lower", "upper"], rows)
    return {"sandwich": rows}


@_command("cov-eval", SPEC + [("x", _floats, REQUIRED), ("kmax", int, None)],
          "cov_eval.json")
def _cov_eval(a, spec, files):
    spectral, tail = covariance_eval(spec, a.x, kmax=a.kmax, full_output=True)
    integral = covariance_eval_integral(spec, a.x)
    return {"spectral": spectral, "tail_bound": tail, "integral": integral,
            "abs_difference": abs(spectral - integral)}


@_command("cov-rho-star", [("d", int, 1), ("alpha", float, REQUIRED)],
          "rho_star.json")
def _cov_rho_star(a, spec, files):
    report = rho_star(a.alpha, a.d)
    report["pass"] = report["rho_star_est"] <= report["rho_sufficient"] + 1e-9
    return report


@_command("noise-sample", SPEC + [("kmax", int, 16), ("grid-n", int, 64),
                                  ("dt", float, 0.01)],
          "noise_sample.json", run=("seed", "format"))
def _noise_sample(a, spec, files):
    field = nf.IncrementSampler(spec, a.kmax, a.grid_n, a.dt).draw(a.seed, 0)
    files["increment.npy"] = field
    if a.format == "csv":
        files["increment.csv"] = field.reshape(a.grid_n, -1)
    return {"grid_n": a.grid_n, "dt": a.dt,
            "field_min": float(np.min(field)), "field_max": float(np.max(field))}


@_command("noise-verify", SPEC + [("grid-n", int, 33), ("dt", float, 0.1),
                                  ("n-samples", int, 10_000)],
          "noise_verify.json", run=("seed",))
def _noise_verify(a, spec, files):
    rep = nf.empirical_covariance(spec, a.dt, a.grid_n, a.n_samples, a.seed)
    return {"worst_se_units": rep["worst_se_units"],
            "max_abs_deviation": rep["max_abs_deviation"],
            "pass": rep["worst_se_units"] <= 4.0}


@_command("moments-table", SPEC + LAMBDA + [
    ("n-max", int, 6), ("t-max", float, 5.0), ("n-t", int, 251)],
    "moments_table.json")
def _moments_table(a, spec, files):
    table = mc.hn_table(spec, a.n_max, np.linspace(0.0, a.t_max, a.n_t))
    files["hn_table.csv"] = [
        ["t", *(f"h{n}" for n in range(len(table.values)))],
        *np.column_stack([table.t_grid, table.values.T])]
    nondecreasing = bool(all(np.all(np.diff(r) >= -1e-12) for r in table.values))
    return {"H_lambda_at_t_max": mc.H_lambda(spec, a.t_max),
            "rows_nondecreasing": nondecreasing, "pass": nondecreasing}


@_command("gamma0", SPEC + LAMBDA, "gamma0.json")
def _gamma0(a, spec, files):
    sol = mc.gamma0(spec.lam, spec)
    return {"lambda": sol.lam, "gamma0": sol.gamma0,
            "theta_at_gamma0": sol.theta_at_gamma0,
            "residual": sol.residual, "mode_cutoff": sol.mode_cutoff,
            "pass": sol.residual < 1e-9}


@_command("bridge-verify", [("d", int, 1), ("eps", float, 1.0),
                            ("n-samples", int, 10_000)],
          "bridge_verify.json", run=("seed",))
def _bridge_verify(a, spec, files):
    sweeps = []
    for t_factor in (2.0, 10.0):
        rep = br.check_large_time_bound(a.eps, t_factor * a.eps, d=a.d,
                                        n_samples=a.n_samples, seed=a.seed)
        sweeps.append({k: rep[k] for k in
                       ("eps", "t", "d", "violations", "pass")})
    edge = br.check_large_time_bound(a.eps, a.eps, d=a.d,
                                     n_samples=a.n_samples, seed=a.seed,
                                     corrected=True)
    sweeps.append({"eps": a.eps, "t": a.eps, "d": a.d,
                   "violations": edge["violations"], "pass": edge["pass"],
                   "corrected_constant": True})
    fit = br.fit_image_sum_constant(d=a.d, n_samples=a.n_samples, seed=a.seed)
    fit2 = br.fit_image_sum_constant(d=a.d, n_samples=2 * a.n_samples,
                                     seed=a.seed)
    stable = abs(fit2["c_fit"] - fit["c_fit"]) <= 0.2 * fit["c_fit"]
    return {
        "sandwich": sweeps,
        "image_sum": {"c_fit": fit["c_fit"], "c_fit_refined": fit2["c_fit"],
                      "pass": bool(np.isfinite(fit["c_fit"]) and stable)},
    }


@_command("simulate", SPEC + LAMBDA + [
    ("grid-n", int, 64), ("mode-k", int, 16), ("dt", float, 1 / 256),
    ("t-final", float, 1.0), ("t-out", _floats, None)]
    + _mu("uniform", "delta"), "simulate.json", run=("seed", "format"))
def _simulate(a, spec, files):
    config = SolverConfig(spec=spec, grid_n=a.grid_n, mode_k=a.mode_k,
                          dt=a.dt, t_final=a.t_final)
    traj = solve(config, _measure_from(a), a.seed, output_times=a.t_out)
    for i, field in enumerate(traj.fields):
        files[f"field_{i:04d}.npy"] = field
        if a.format == "csv":
            files[f"field_{i:04d}.csv"] = field.reshape(a.grid_n, -1)
    files["trajectory_times.csv"] = [
        ["index", "t"], *([i, float(t)] for i, t in enumerate(traj.times))]
    return {"n_outputs": len(traj.times),
            "positivity_violations": traj.positivity_violations}


@_command("mc-moments", SPEC + LAMBDA + [
    ("grid-n", int, 64), ("mode-k", int, 16), ("dt", float, 1 / 256),
    ("t-list", _floats, "0.5,1.0"), ("n-samples", int, 4000)]
    + _mu("uniform", "delta"), "mc_moments.json", run=("seed", "threads"))
def _mc_moments(a, spec, files):
    config = SolverConfig(spec=spec, grid_n=a.grid_n, mode_k=a.mode_k,
                          dt=a.dt, t_final=max(a.t_list))
    n_chunks = 8 if a.n_samples % 8 == 0 else 1
    rows = ex.moment_bound_report(config, _measure_from(a), a.n_samples,
                                  a.t_list, [0.0] * a.d, seed=a.seed,
                                  n_chunks=n_chunks, threads=a.threads)
    files["mc_moments.csv"] = _table(
        ["t", "value", "std_err", "upper", "upper_ok"], rows)
    return {"rows": rows}


@_command("two-point", SPEC + LAMBDA + [
    ("t", float, 1.0), ("x", float, 0.0), ("x2", float, 0.0),
    ("n-max", int, 3)] + _mu("uniform"), "two_point.json")
def _two_point(a, spec, files):
    return ex.two_point(spec, _measure_from(a), a.t, [a.x], [a.x2],
                        n_max=a.n_max)


@_command("resolvent", SPEC + [("n-max", int, 2), ("t-max", float, 1.0),
                               ("n-t", int, 21), ("q-grid-n", int, 33)],
          "resolvent.json")
def _resolvent(a, spec, files):
    table = ex.resolvent_Ln(spec, a.n_max, np.linspace(0.0, a.t_max, a.n_t),
                            q_grid_n=a.q_grid_n)
    fits = ex.resolvent_bound_fit(table)
    return {"bound_fits": {str(k): v for k, v in fits.items()},
            "pass": all(np.isfinite(v) for v in fits.values())}


@_command("feynman-kac", SPEC + LAMBDA + [
    ("t", float, 0.5), ("n-paths", int, 10_000), ("dt-bm", float, 1 / 256),
    ("kmax", int, 16)] + _mu("uniform"), "feynman_kac.json", run=("seed",))
def _feynman_kac(a, spec, files):
    mu = _measure_from(a)
    est = ex.feynman_kac_second_moment(spec, mu, a.t, [0.0], a.n_paths,
                                       a.dt_bm, seed=a.seed, kmax=a.kmax)
    floor = ex.fk_jensen_floor(spec, a.t, kmax=a.kmax) \
        * (mu.total_mass(1) / (2 * math.pi)) ** 2
    return {"estimate": est.value, "std_err": est.std_err,
            "jensen_floor": floor,
            "pass": est.value + 3.0 * est.std_err >= floor}


@_command("ergodic-check", SPEC + [("t-list", _floats, "50,200"),
                                   ("n-paths", int, 200)],
          "ergodic.json", run=("seed",))
def _ergodic_check(a, spec, files):
    rep = ex.ergodic_average_check(spec, a.t_list, a.n_paths, seed=a.seed)
    files["ergodic.csv"] = _table(["t", "mean", "std_err", "variance"],
                                  rep["rows"])
    return rep


@_command("holder", SPEC + LAMBDA + [
    ("grid-n", int, 192), ("mode-k", int, 63), ("dt", float, 2**-12),
    ("n-paths", int, 24)] + _mu("uniform"), "holder.json", run=("seed",))
def _holder(a, spec, files):
    config = SolverConfig(spec=spec, grid_n=a.grid_n, mode_k=a.mode_k,
                          dt=a.dt, t_final=1.0)
    rep = ex.empirical_holder(config, _measure_from(a), a.seed,
                              n_paths=a.n_paths)
    rep["beta1_sup"], rep["beta2_sup"] = mc.holder_exponents(spec.alpha,
                                                             spec.d)
    rep["pass"] = bool(0.3 <= rep["beta1_hat"] <= 0.5
                       and 0.6 <= rep["beta2_hat"] <= 1.0)
    return rep


# --------------------------------------------------------------------------


def build_parser():
    """The ``torpam`` parser: one subparser per entry of ``COMMANDS``."""
    parser = _Parser(prog="torpam")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name)
        run_flags = [(flag, *RUN_FLAGS[flag]) for flag in cmd.run]
        for name, kind, default in cmd.flags + run_flags:
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(f"--{name}", type=None if choices else kind,
                           choices=choices, required=default is REQUIRED,
                           default=None if default is REQUIRED else default,
                           help="comma-separated numbers"
                           if kind is _floats else None)
        p.add_argument("--out", default="torpam_out")
        p.add_argument("--config", help="JSON object of flag values, as in "
                       "manifest.json; flags given on the command line win")
        p.set_defaults(cmd=cmd)
    return parser


def _config_flags(parser, path, cmd):
    """The ``--flag=value`` tokens of a ``--config`` file: one per key
    (``-`` or ``_``) naming a flag, run flag or ``--out`` of ``cmd``."""
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            parser.error(f"--config {path}: not valid JSON ({exc})")
    if not isinstance(loaded, dict):
        parser.error(f"--config {path}: expected a JSON object of flag "
                     f"values, got {type(loaded).__name__}")
    # null leaves a flag at its default; a list is joined with commas
    text = {key.replace("_", "-"):
            ",".join(map(str, value)) if isinstance(value, list) else str(value)
            for key, value in loaded.items() if value is not None}
    names = [name for name, _, _ in cmd.flags] + [*cmd.run, "out"]
    return [f"--{name}={text[name]}" for name in names if name in text]


def _run(args):
    """The one run sequence: noise spec, manifest, compute, and then every
    file at once, so a run refused on the way writes nothing."""
    cmd = args.cmd
    spec = _spec_from(args) if hasattr(args, "alpha") else None
    keys = [name.replace("-", "_") for name, _, _ in cmd.flags]
    manifest = {"tool": "torpam", "version": __version__,
                "command": cmd.name,
                "parameters": {key: getattr(args, key) for key in keys}}
    if hasattr(args, "seed"):
        manifest["seed"] = int(args.seed)
    files = {"manifest.json": manifest}
    files[cmd.report] = report = cmd.compute(args, spec, files)
    _write(args.out, files)
    return _finish(report)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # a --config file's flags go right after the subcommand, so argparse
    # types and checks them, and the command line's own flags win
    pre = _Parser(prog="torpam", add_help=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
        if path and argv[0] in COMMANDS:
            argv = [argv[0], *_config_flags(pre, path, COMMANDS[argv[0]]),
                    *argv[1:]]
        return _run(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (DomainError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
