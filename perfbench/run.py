"""torpam benchmark: time to a verified result on four workloads, plus a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload mc_wide --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

Each run starts with one untimed warm-up repetition.  ``--trace 0`` then
times untraced repetitions until they add up to about ``--seconds``, with
``SETUP_PROBES`` fresh-process set-up probes between them and
``HOST_SAMPLES`` samples of the host-speed probe (``hostspeed.py``) before
each repetition and each set-up probe, and prints the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``).  ``wall_s`` and ``setup_s``
are in seconds at the reference host speed: the medians of the measured
times, scaled by ``HOST_REFERENCE_S`` over the median host-speed sample of
the same run, which takes out the shared host's drift.  The row
shows the measured times and the scale as well, and the solver rates
``path_steps_per_s`` and ``pair_steps_per_s``, which are the work per
repetition over ``wall_s``.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of :data:`spans.LAYER_METRICS` plus
``lattice.cache_hit_ratio``, ``lattice.cache_lookups`` and
``trace.overhead_s``; the spans are written to ``.perfbench_out/`` when the
run ends.

Every repetition's outputs are checked: each verdict passes, bitwise
equality with the first repetition, and at the default seed the recorded
reference values to a relative tolerance of ``RTOL``.  A workload's
statistical verdicts (tests that fail at a few seeds at the commit the
reference was recorded from) gate only at the default seed; at other seeds
they are reported, not checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# roundoff tolerance for reference values: a float64 reordering of the same
# arithmetic moves the solver output by ~1e-14 relative; statistical or
# algorithmic changes move it by far more than 1e-9
RTOL = 1e-9
REFERENCE_SEED = 0
# set-up probes per --trace 0 run; setup_s is their median
SETUP_PROBES = 3
# host-speed samples before each repetition and each set-up probe
HOST_SAMPLES = 3
# the host-speed computation's median time on the 2-core Xeon VM the
# baseline was made on
HOST_REFERENCE_S = 0.1

# exact counts that depend on the seed (adaptive quadrature follows the
# sampled points); they match the reference at the reference seed only
SEED_DEPENDENT_COUNTS = ("heat_kernel.heat_kernel_calls",)

# spans that, with pam_solver.self_s, make up pam_solver.solve_ensemble_s
SOLVER_PARTS = ("noise_field.step_rng_s", "noise_field.sample_modes_s",
                "noise_field.modes_to_grid_s", "noise_field.grid_to_modes_s",
                "pam_solver.initial_field_s", "pam_solver.self_s")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def use_checkout_sources():
    """Put the checkout's ``src`` first on the import path; False (with a
    message) when the checkout holds no torpam sources."""
    if not (ROOT / "src" / "torpam").is_dir():
        print(f"error: no torpam sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def environment():
    """What the numbers depend on; runs compare only on one machine."""
    import numpy
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if read(index / "type").strip() != "Instruction":
            caches[f"L{read(index / 'level').strip()}"] = \
                read(index / "size").strip()

    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
        "caches_per_core_cpu0": caches,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "note": ("CPU pinning, frequency scaling and cache dropping are not "
                 "available on this machine; compare only runs made on the "
                 "same machine"),
    }


def compare_to_reference(values, reference, rtol=RTOL):
    """[(key, ok, detail)] for every key of either dict: present in both
    and equal to ``rtol`` relative."""
    out = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            out.append((key, False, "missing on one side"))
            continue
        got, want = values[key], reference[key]
        ok = abs(got - want) <= rtol * max(abs(got), abs(want))
        out.append((key, ok, f"got {got!r} want {want!r}"))
    return out


def _canonical(out):
    return json.dumps(out, sort_keys=True)


def normalize(out):
    values, verdicts = out
    return ({k: float(v) for k, v in values.items()},
            {k: bool(v) for k, v in verdicts.items()})


class RepChecker:
    """Checks every repetition of one workload; counts the checks made and
    names each one that failed."""

    def __init__(self, workload, inputs, seed, reference):
        self.workload = workload
        self.work = workload.work(inputs)
        self.seed = seed
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failures = []
        self.statistical = {}

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def rep(self, out):
        values, verdicts = out
        for key, ok in verdicts.items():
            if (key in self.workload.statistical
                    and self.seed != REFERENCE_SEED):
                self.statistical[key] = ok
            else:
                self.check(f"verdict {key}", ok)
        if self.first is None:
            self.first = _canonical(out)
            if self.workload.work_unit == "oracle_checks":
                self.check("oracle verdict count",
                           len(verdicts) == self.work,
                           f"{len(verdicts)} != {self.work}")
            if self.seed == REFERENCE_SEED and self.reference:
                for key, ok, detail in compare_to_reference(
                        values, self.reference["values"]):
                    self.check(f"reference {key}", ok, detail)
        else:
            self.check("repeat identical to first repetition",
                       _canonical(out) == self.first)

    def counts(self, per_rep):
        """Exact counts: equal across traced repetitions, equal to the
        reference, and the solver/pair step counts equal to the work."""
        from spans import EXACT_COUNTS

        first = per_rep[0]
        for name in EXACT_COUNTS:
            self.check(f"count {name} repeats",
                       all(r[name] == first[name] for r in per_rep),
                       str([r[name] for r in per_rep]))
            if self.reference and (self.seed == REFERENCE_SEED
                                   or name not in SEED_DEPENDENT_COUNTS):
                want = self.reference["counts"][name]
                self.check(f"count {name} matches reference",
                           first[name] == want,
                           f"got {first[name]} want {want}")
        unit = self.workload.work_unit
        key = {"path_steps": "pam_solver.path_steps",
               "pair_steps": "experiments.pair_steps"}.get(unit)
        if key:
            self.check(f"count {key} equals the work per repetition",
                       first[key] == self.work,
                       f"{first[key]} != {self.work}")


def load_reference(name):
    if not REFERENCE.exists():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(name)


def setup_probe(name, seed):
    """Seconds for a fresh process to import torpam, numpy and scipy and
    build the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                    "--workload", name, "--seed", str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class HostProbe:
    """The host-speed reference computation in one child process of its
    own for the whole run; ``sample()`` times it ``HOST_SAMPLES`` times."""

    def __init__(self):
        self.times = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed probe did not start")

    def sample(self):
        for _ in range(HOST_SAMPLES):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            self.times.append(float(self.proc.stdout.readline()))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _lattice_cache():
    from torpam import lattice

    infos = [lattice.lattice_vectors.cache_info(),
             lattice.lattice_r2.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def tail(walls):
    """(percentile, value) of the highest percentile with at least ten
    repetitions beyond it, or None below eleven repetitions."""
    n = len(walls)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


def warm_up(workload, inputs, scratch, checker):
    """One checked, untimed repetition, so that every timed one finds the
    same warm caches (cold-start cost is what setup_s measures)."""
    checker.rep(normalize(workload.run(inputs, scratch)))


def timed_run(workload, inputs, seconds, scratch, checker, probe, host):
    """After the warm-up, timed repetitions that add up to about
    ``seconds`` (at least the workload's ``min_reps``), the first
    SETUP_PROBES of them each after one set-up probe, then the set-up
    probes left; host-speed samples go before each repetition and each
    set-up probe.  Returns the wall times, the set-up times and the peak
    resident set (MB) after the warm-up, which later repetitions would only
    blur with allocator reuse."""
    warm_up(workload, inputs, scratch, checker)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, setups = [], []

    def set_up():
        host.sample()
        setups.append(probe())

    while len(walls) < workload.min_reps or (
            sum(walls) + statistics.median(walls) <= seconds):
        if len(setups) < SETUP_PROBES:
            set_up()
        host.sample()
        t0 = time.perf_counter()
        out = workload.run(inputs, scratch)
        walls.append(time.perf_counter() - t0)
        checker.rep(normalize(out))
    while len(setups) < SETUP_PROBES:
        set_up()
    return walls, setups, peak_mb


def traced_run(workload, inputs, seconds, scratch, checker):
    import spans

    plain, traced, summaries, recorded = [], [], [], []
    hits = lookups = 0
    warm_up(workload, inputs, scratch, checker)
    start = time.perf_counter()
    while len(traced) < workload.min_reps or (time.perf_counter() - start
                              + statistics.median(plain + traced) <= seconds):
        t0 = time.perf_counter()
        out = workload.run(inputs, scratch)
        plain.append(time.perf_counter() - t0)
        checker.rep(normalize(out))

        recorder = spans.Recorder()
        undo = spans.install(recorder, spans.targets(), spans.namespaces())
        h0, m0 = _lattice_cache()
        try:
            t0 = time.perf_counter()
            out = workload.run(inputs, scratch)
            traced.append(time.perf_counter() - t0)
        finally:
            spans.uninstall(undo)
        h1, m1 = _lattice_cache()
        hits += h1 - h0
        lookups += (h1 - h0) + (m1 - m0)
        checker.rep(normalize(out))
        summaries.append(spans.layer_metrics(spans.summarize(recorder.spans)))
        recorded.append(recorder.spans)

    checker.counts(summaries)
    metrics = {}
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        # times: median over traced repetitions; counts repeat exactly
        value = (statistics.median(s[name] for s in summaries)
                 if unit == "s" else summaries[0][name])
        metrics[name] = {"value": value, "unit": unit}
    metrics["lattice.cache_hit_ratio"] = {
        "value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["lattice.cache_lookups"] = {"value": lookups, "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s"}
    # per traced repetition: the solver's child spans plus its self time
    # over its own span time (medians of the parts need not add up)
    coverage = [sum(s[k] for k in SOLVER_PARTS)
                / s["pam_solver.solve_ensemble_s"]
                for s in summaries if s["pam_solver.solve_ensemble_s"]]
    return metrics, recorded, plain, traced, coverage


def write_spans(path, recorded):
    names = sorted({s[0] for rep in recorded for s in rep})
    index = {n: i for i, n in enumerate(names)}
    payload = {"names": names, "fields": ["name", "start", "end", "parent",
                                          "counts"],
               "repetitions": [[[index[s[0]], s[1], s[2], s[3], s[4]]
                                for s in rep] for rep in recorded]}
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    checker = RepChecker(workload, inputs, seed, load_reference(name))
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT_DIR, prefix="scratch-")
    try:
        if trace:
            metrics, recorded, plain, traced, coverage = traced_run(
                workload, inputs, seconds, scratch, checker)
            write_spans(OUT_DIR / f"spans-{name}-seed{seed}.json.gz", recorded)
            row = {"workload": name, "untraced_s": plain, "traced_s": traced,
                   "solver_parts_over_solve": coverage}
        else:
            host = HostProbe()
            try:
                walls, setups, peak_mb = timed_run(
                    workload, inputs, seconds, scratch, checker,
                    lambda: setup_probe(name, seed), host)
            finally:
                host.close()
            hosts = host.times
            scale = HOST_REFERENCE_S / statistics.median(hosts)
            metrics = {
                "wall_s": {"value": statistics.median(walls) * scale,
                           "unit": "s"},
                "setup_s": {"value": statistics.median(setups) * scale,
                            "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            row = {"workload": name, "walls_s": walls,
                   "tail": tail([w * scale for w in walls]),
                   "setups_s": setups, "hosts_s": hosts, "scale": scale,
                   "work_unit": workload.work_unit,
                   "work_per_rep": checker.work}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = checker.failures
    row["fail_frac"] = f"{len(failures)}/{checker.attempted}"
    row["statistical"] = checker.statistical
    result = {"correct": not failures, "attempted": checker.attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"row": row, "env": environment(), "seed": seed,
              "seconds": seconds, "trace": trace, "failures": failures,
              "result": result}
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def format_row(record):
    row, metrics = record["row"], record["result"]["metrics"]
    if record["trace"]:
        shown = ("pam_solver.solve_ensemble_s", "pam_solver.self_s",
                 "heat_kernel.heat_kernel_calls", "experiments.pair_steps",
                 "trace.overhead_s")
        parts = [f"{k}={metrics[k]['value']:.6g}" for k in shown]
        coverage = row["solver_parts_over_solve"]
        if coverage:
            parts.append("solver parts / solve_ensemble="
                         f"{statistics.median(coverage):.6f}")
    else:
        t = row["tail"]
        tail_text = (f"p{t[0]:.0f}={t[1]:.4f}s" if t
                     else "tail=none (<11 runs)")
        wall = metrics["wall_s"]["value"]
        parts = [f"wall_s={wall:.4f}s "
                 f"[{tail_text}, runs={len(row['walls_s'])}, measured "
                 f"{statistics.median(row['walls_s']):.4f}s]"]
        if row["work_unit"] in ("path_steps", "pair_steps"):
            # work per repetition over wall_s: not a separate measurement
            parts.append(f"{row['work_unit']}_per_s="
                         f"{row['work_per_rep'] / wall:.6g} 1/s")
        parts += [f"setup_s={metrics['setup_s']['value']:.4f}s "
                  f"[measured {statistics.median(row['setups_s']):.4f}s]",
                  f"host_scale={row['scale']:.4f}",
                  f"peak_rss_mb={metrics['peak_rss_mb']['value']:.1f}MB"]
    parts.append(f"fail_frac={row['fail_frac']}")
    if row["statistical"]:
        parts.append("statistical (not gating): " + ",".join(
            f"{k}={'pass' if ok else 'fail'}"
            for k, ok in sorted(row["statistical"].items())))
    return f"{row['workload']:<14} " + "  ".join(parts)


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, one row each."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<14} failed with exit code {proc.returncode}")
            summary["correct"] = False
            continue
        for line in lines[:-1]:
            if line.startswith("row "):
                print(line[4:])
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        WORKLOADS[args.workload].build(args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        record = run_one(args.workload, args.seed, args.seconds, args.trace)
        for failure in record["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
        print("env " + json.dumps(record["env"], sort_keys=True))
        print("row " + format_row(record))
        result = record["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
