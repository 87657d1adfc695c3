"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/stability.py --seeds 0-9 [--workloads mc_wide,oracles]
                                   [--write-baseline]

Runs ``run.py --trace 0`` once per workload and seed, one after another,
and prints for every end-to-end metric the median and the spread
(Q3 - Q1) / median, with Q1 and Q3 from ``statistics.quantiles(n=4)``,
next to the metric's bound from ``BENCHMARK.json``; for ``wall_s`` and
``setup_s`` also the spread of the measured times before host-speed
scaling.  With
``--write-baseline`` it also makes one ``--trace 1`` run per workload at
the first seed and writes everything to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    with open(ROOT / ".perfbench_out"
              / f"result-{workload}-seed{seed}-trace{trace}.json") as fh:
        row = json.load(fh)["row"]
    return json.loads(lines[-1]), env, row


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9", type=seed_list)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"seeds": args.seeds, "seconds": args.seconds,
                "workloads": {}}
    worst = 0.0
    for name in args.workloads.split(","):
        results, rows = [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result, env, row = run(name, seed, args.seconds, 0)
            rows.append(row)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} checks failed")
            results.append(result)
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med, spr = spread(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spr,
                "values": values}
            worst = max(worst, spr / bound)
            print(f"  {name:<14} {metric:<12} median {med:.5g}  spread "
                  f"{spr:.3f}  bound {bound}  spread/bound {spr / bound:.2f}")
            times = {"wall_s": "walls_s", "setup_s": "setups_s"}.get(metric)
            if times:
                measured = [statistics.median(r[times]) for r in rows]
                entry["metrics"][metric]["measured"] = measured
                print(f"  {'':<14} {'':<12} measured median "
                      f"{statistics.median(measured):.5g}  spread "
                      f"{spread(measured)[1]:.3f} (before host-speed "
                      "scaling)")
        entry["host_scale"] = [r["scale"] for r in rows]
        baseline["workloads"][name] = entry
        if args.write_baseline:
            traced, _, _ = run(name, args.seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = traced["metrics"]
            baseline["env"] = env
    print(f"largest spread / bound: {worst:.2f}")
    if args.write_baseline:
        with open(HERE / "baseline.json", "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
