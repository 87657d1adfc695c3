"""Tests of the benchmark's own machinery (no torpam needed).

    python3 -m pytest perfbench/test_machinery.py -q
"""

import json
import types

import pytest

import run
import spans

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_of_synthetic_nested_trace_are_exact():
    # root [0, 20] > a [1, 9] > (b [2, 4], c [5, 8] > d [6, 7]); e [10, 15]
    rec = spans.Recorder(clock=_scripted_clock(
        [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 15, 20]))

    def leaf():
        pass

    b, d, e = (rec.wrap(n, leaf) for n in ("b", "d", "e"))
    c = rec.wrap("c", lambda: d())
    a = rec.wrap("a", lambda: (b(), c()))
    root = rec.wrap("root", lambda: (a(), e()))
    root()

    names = [s[0] for s in rec.spans]
    assert names == ["root", "a", "b", "c", "d", "e"]
    parents = {s[0]: (rec.spans[s[3]][0] if s[3] >= 0 else None)
               for s in rec.spans}
    assert parents == {"root": None, "a": "root", "b": "a", "c": "a",
                       "d": "c", "e": "root"}
    selfs = dict(zip(names, spans.self_times(rec.spans)))
    assert selfs == {"root": 7, "a": 3, "b": 2, "c": 2, "d": 1, "e": 5}
    summary = spans.summarize(rec.spans)
    assert summary["total"]["root"] == 20
    # self times plus child totals account for the parent exactly
    assert (summary["self"]["a"] + summary["total"]["b"]
            + summary["total"]["c"]) == summary["total"]["a"]


def test_recursive_spans_count_once_in_total():
    rec = spans.Recorder(clock=_scripted_clock([0, 1, 3, 4]))

    def f(depth):
        return wrapped(depth - 1) if depth else None

    wrapped = rec.wrap("f", f)
    wrapped(1)
    summary = spans.summarize(rec.spans)
    assert summary["calls"]["f"] == 2
    assert summary["total"]["f"] == 4
    assert summary["self"]["f"] == 4


def test_install_rebinds_from_imports_and_uninstall_restores():
    def original(x):
        return 2 * x

    owner = types.ModuleType("owner")
    owner.f = original
    importer = types.ModuleType("importer")
    importer.g = original  # as bound by ``from owner import f as g``
    rec = spans.Recorder()
    undo = spans.install(rec, [(owner, "f", "owner.f",
                                lambda a, k, r: {"items": r})],
                         [importer])
    assert owner.f(1) == 2 and importer.g(3) == 6
    assert [s[0] for s in rec.spans] == ["owner.f", "owner.f"]
    assert spans.summarize(rec.spans)["counts"] == {"items": 8}
    spans.uninstall(undo)
    assert owner.f is original and importer.g is original


class _Stub:
    work_unit = "path_steps"
    statistical = ("stat",)

    def work(self, inputs):
        return 1


def _reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)["workloads"]


@pytest.mark.parametrize("name", ["mc_wide", "holder_narrow", "oracles",
                                  "pair_loops"])
def test_reference_check_fails_on_a_perturbed_value(name):
    ref = _reference()[name]
    key = sorted(ref["values"])[0]

    def failures(values):
        checker = run.RepChecker(_Stub(), None, run.REFERENCE_SEED, ref)
        checker.rep((values, {"pass": True}))
        return checker.failures

    assert failures(dict(ref["values"])) == []
    # roundoff passes, a change well above it fails
    nudged = dict(ref["values"], **{key: ref["values"][key] * (1 + 1e-13)})
    assert failures(nudged) == []
    perturbed = dict(ref["values"], **{key: ref["values"][key] * (1 + 1e-6)})
    assert [f.split()[1] for f in failures(perturbed)] == [key]
    missing = dict(ref["values"])
    del missing[key]
    assert len(failures(missing)) == 1


def test_repeat_and_count_checks_fail_on_change():
    ref = _reference()["holder_narrow"]
    checker = run.RepChecker(_Stub(), None, 7, ref)
    checker.rep(({"x": 1.0}, {"pass": True}))
    checker.rep(({"x": 1.0 + 1e-16 * 2}, {"pass": True}))
    assert checker.failures == ["repeat identical to first repetition"]

    counts = dict(ref["counts"])
    bumped = dict(counts, **{"noise_field.normals_drawn":
                             counts["noise_field.normals_drawn"] + 1})
    checker = run.RepChecker(_Stub(), None, 7, ref)
    checker.work = counts["pam_solver.path_steps"]
    checker.counts([counts, bumped])
    assert checker.failures == [
        "count noise_field.normals_drawn repeats "
        f"[{counts['noise_field.normals_drawn']}, "
        f"{bumped['noise_field.normals_drawn']}]"]


def test_statistical_verdicts_gate_only_at_the_reference_seed():
    def check(seed, verdicts):
        checker = run.RepChecker(_Stub(), None, seed, None)
        checker.rep(({}, verdicts))
        return checker

    assert check(5, {"pass": False, "stat": True}).failures == [
        "verdict pass"]
    other_seed = check(5, {"pass": True, "stat": False})
    assert other_seed.failures == []
    assert other_seed.statistical == {"stat": False}
    assert other_seed.attempted == 1
    at_reference = check(run.REFERENCE_SEED, {"pass": True, "stat": False})
    assert at_reference.failures == ["verdict stat"]
    assert at_reference.statistical == {}


def test_host_probe_times_its_samples_and_its_process_ends():
    host = run.HostProbe()
    try:
        host.sample()
        host.sample()
    finally:
        host.close()
    assert len(host.times) == 2 * run.HOST_SAMPLES
    assert all(t > 0 for t in host.times)
    assert host.proc.returncode == 0


def test_tail_percentile_needs_ten_runs_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {k: v[0] for k, v in spans.LAYER_METRICS.items()}
    expected.update({"lattice.cache_hit_ratio": "ratio",
                     "lattice.cache_lookups": "count",
                     "trace.overhead_s": "s"})
    assert per_layer == expected
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
