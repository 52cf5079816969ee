"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on a shared virtual machine whose CPU speed moves with the
load of its neighbours, within seconds: the iterations of one sweep-phase3
run, on the same inputs, took 4.5 to 6.6 s of CPU time, and a 60 ms probe
ranged from 35 to 70 ms on either vCPU.  The bounded times are therefore CPU
times scaled to the speed at which one probe takes ``PROBE_REF_S``:

    reference seconds = CPU seconds x PROBE_REF_S / mean probe CPU seconds

where the probes are taken during the timed operation itself (``Sampler``)
or right before and after it.  A change to the program moves its CPU time and
not the probe's, so it shows in full.  The probe mixes what ctxrec spends its
time on: interpreted loops over dicts and floats, and small numpy
matrix-vector products.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

import numpy as np

# About the CPU seconds of one probe on the 2-vCPU x86-64 VM the benchmark
# was made on (Python 3.11, numpy 2.4).  It only scales the results.
PROBE_REF_S = 0.0025
# Seconds between two samples; one probe costs about 5% of that.
SAMPLE_INTERVAL_S = 0.05

_WEIGHTS = np.linspace(-1.0, 1.0, 21 * 400).reshape(21, 400)
_NORMS = np.linalg.norm(_WEIGHTS, axis=1)
_INPUT = np.cos(np.arange(400.0))


def probe() -> float:
    """CPU seconds this process spends on the fixed reference computation."""
    start = process_time()
    counts: dict[int, float] = {}
    for i in range(5_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0.0) + i * 0.5
    for _ in range(120):
        np.argmax(_WEIGHTS @ _INPUT / _NORMS)
    return process_time() - start


class Sampler:
    """Runs ``probe`` every ``SAMPLE_INTERVAL_S`` seconds of wall time.

    A SIGALRM handler takes the samples, so they fall inside whatever the
    process is computing.  ``samples`` holds each probe's CPU time, and
    ``spent`` / ``spent_wall`` the CPU / wall time all handler calls took,
    which callers subtract from what they time.  A wall-clock timer, not a CPU-time one: while a
    CPU-time timer is armed, Linux reads the process CPU clock only to the
    last scheduler tick.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.spent_wall = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start, wall = process_time(), perf_counter()
        self.samples.append(probe())
        self.spent += process_time() - start
        self.spent_wall += perf_counter() - wall
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
