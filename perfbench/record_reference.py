"""Record ``reference.json`` at a commit whose outputs are known good:
every workload's output values at the reference seed, to be matched to
roundoff, and the exact counts of one traced repetition.

    python3 perfbench/record_reference.py

Refuses to record when a verdict fails at the reference seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main():
    if not run.use_checkout_sources():
        return 2
    import spans
    from workloads import WORKLOADS

    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.OUT_DIR, prefix="scratch-")
    recorded = {}
    try:
        for name, workload in WORKLOADS.items():
            inputs = workload.build(run.REFERENCE_SEED)
            values, verdicts = run.normalize(workload.run(inputs, scratch))
            failed = sorted(k for k, ok in verdicts.items() if not ok)
            if failed:
                print(f"{name}: verdicts fail at the reference seed: "
                      f"{failed}", file=sys.stderr)
                return 1
            recorder = spans.Recorder()
            undo = spans.install(recorder, spans.targets(),
                                 spans.namespaces())
            try:
                workload.run(inputs, scratch)
            finally:
                spans.uninstall(undo)
            layer = spans.layer_metrics(spans.summarize(recorder.spans))
            recorded[name] = {
                "values": values,
                "counts": {k: layer[k] for k in spans.EXACT_COUNTS}}
            print(f"{name}: recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": run.REFERENCE_SEED, "rtol": run.RTOL,
                   "workloads": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
