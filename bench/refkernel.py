"""The reference kernel, and a probe that times slices of it during an operation.

Fixed pure-Python work in the simulator's mix (float arithmetic, list
indexing) that allocates no container, so its time moves only with the speed
the host gives the process running it. On a shared host that speed switches
between a fast and a slow state (about 1.6 times slower) many times within
one operation, and each core switches on its own. Kernel runs timed before
and after an operation miss most of those switches; ``SpeedProbe`` instead
times a short slice of the kernel every ``PROBE_INTERVAL_S`` while the
operation runs, in the operation's own process, so the slices sample the same
states as the operation does. An operation's time divided by the mean slice
time drifts far less than its raw time (bench/baseline.json keeps the spread
of both over ten seeds).
"""

from __future__ import annotations

import signal
import time

REF_X = [7.0 * i for i in range(256)]
REF_V = [20.0 + (i % 7) for i in range(256)]
REF_PASSES = 120         # the reference kernel; times are given in its units
PROBE_PASSES = 5         # one slice, about 0.3 ms on an idle core
PROBE_INTERVAL_S = 0.025  # so the slices take about 1.2% of the operation's time


def reference_kernel(passes: int = REF_PASSES) -> float:
    xs, vs = REF_X, REF_V
    acc = 0.0
    for _ in range(passes):
        for i in range(1, len(xs)):
            v = vs[i - 1]
            s = 2.0 + v + v * (v - vs[i]) / 2.58
            acc += 1.0 - (v / 33.3) ** 4 - (s / (xs[i] - xs[i - 1] - 5.0)) ** 2
    return acc


class SpeedProbe:
    """Context manager: while active, a SIGALRM timer runs one kernel slice
    every ``PROBE_INTERVAL_S`` in this process's main thread.

    The slices draw no random number and touch no state of the program, so
    they cannot change what it computes. One slice runs on entry, so even an
    operation shorter than the interval has a sample.
    """

    def __init__(self):
        self.total_s = 0.0
        self.samples = 0
        self._previous = None

    def _slice(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel(PROBE_PASSES)
        self.total_s += time.perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_s(self) -> float:
        """The mean slice time, scaled to the whole reference kernel."""
        return reference_time(self.total_s, self.samples)


def reference_time(total_s: float, samples: int) -> float:
    """Mean time of ``samples`` slices that took ``total_s`` in all, in reference kernels."""
    return total_s / samples * REF_PASSES / PROBE_PASSES
