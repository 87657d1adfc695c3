"""Host-speed probe: a fixed reference computation that uses neither torpam
nor scipy, timed in a process of its own.

    python3 perfbench/hostspeed.py

It warms up, prints ``ready``, and then times one run of the computation
for every line it reads, printing the seconds, until its input ends.

The shared host's speed drifts by up to ~1.5x over minutes (other tenants
on the same cores), and every timing of a run drifts with it.  ``run.py``
samples this probe between its repetitions and set-up probes and scales
its timings by ``HOST_REFERENCE_S / median(samples)``, which turns them
into seconds at the host speed where the computation takes
``HOST_REFERENCE_S``.  The probe's mix follows the workloads: numpy
dispatch on small arrays, FFTs on a 4 MB batch, plain interpreter work and
Philox generator set-up.  A process of its own keeps the probe independent
of whatever the workload left in the parent's heap.
"""

from __future__ import annotations

import sys
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 192)
_BATCH = np.arange(24 * 192, dtype=float).reshape(24, 192).astype(complex)
_WIDE = np.ones((4000, 64), complex)


def _dispatch():
    y = _SMALL
    for _ in range(600):
        y = np.sin(y) * 0.5 + _SMALL
        y = y + np.fft.fft(_BATCH, axis=1).real[0] * 1e-9


def _wide_fft():
    for _ in range(6):
        np.fft.ifft(np.fft.fft(_WIDE, axis=1), axis=1)


def _interpreter():
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


def _generators():
    for i in range(300):
        seq = np.random.SeedSequence([i, 7])
        np.random.Generator(np.random.Philox(seq)).standard_normal(2000)


def kernel():
    t0 = time.perf_counter()
    _dispatch()
    _wide_fft()
    _interpreter()
    _generators()
    return time.perf_counter() - t0


def main():
    kernel()  # warm-up: first-call and page-fault costs
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
