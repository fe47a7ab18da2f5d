"""A machine-speed probe that runs alongside a timed section.

The benchmark's host is a shared virtual machine whose speed moves by up to
2x within seconds and drifts over minutes, so a plain wall time says as
much about the neighbours as about the program.  :class:`SpeedProbe`
samples that speed while a section runs: every ``INTERVAL_S`` a SIGALRM
handler times one fixed, short piece of work (small numpy array
arithmetic, the kind of operation that dominates the program's grid-129
runs) and keeps its duration.  :func:`scaled` then expresses the
section's wall time on a machine where that piece of work takes
``REFERENCE_S``:

    scaled time = wall time * REFERENCE_S / mean probe duration

The probe code never changes with the program, so a faster or slower
program still shows in full; only the host's speed is divided out.  The
handler costs about 2% of the section's time, the same on every commit.
"""

from __future__ import annotations

import array
import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
REFERENCE_S = 1e-4
_VECTOR = 129
_ROUNDS = 25
_MATRIX = 96


class SpeedProbe:
    """Samples the probe's duration every ``INTERVAL_S`` while a section runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.random(_VECTOR)
        self._b = rng.random(_VECTOR)
        self._m = rng.random((_MATRIX, _MATRIX))
        # preallocated results: the probe allocates nothing, so it cannot
        # move the program's heap layout or peak resident set size
        self._x = np.empty(_VECTOR)
        self._t = np.empty(_VECTOR)
        self._p = np.empty((_MATRIX, _MATRIX))

    def probe(self) -> float:
        """Duration of one run of the fixed piece of work."""
        start = self.clock()
        x, t = self._x, self._t
        x[:] = self._a
        for _ in range(_ROUNDS):
            np.multiply(self._a, self._b, out=t)
            np.add(t, x, out=x)
        np.matmul(self._m, self._m, out=self._p)
        return self.clock() - start

    @contextlib.contextmanager
    def sampling(self):
        """Collect probe durations in the yielded array while the block runs.

        One sample is taken before the timer starts, so that the array is
        never empty; the previous SIGALRM handler and timer are restored.
        The array holds plain doubles: a list would keep one float object
        per sample alive, scattered over the interpreter's memory arenas,
        and so raise the program's peak resident set size.
        """
        samples = array.array("d", [self.probe()])

        def handler(signum, frame):
            samples.append(self.probe())

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scaled(wall_s: float, samples) -> float:
    """``wall_s`` on a machine where the probe takes ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / statistics.fmean(samples)
