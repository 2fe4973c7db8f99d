"""Host speed, sampled while the program runs, to cost its CPU time in
units of a fixed reference kernel.

On a shared host the same single-threaded computation can take 40% more
CPU seconds in one minute than in the next: other tenants load the caches
and the memory bus of the cores this one shares, and the slow phases last
seconds.  So the benchmark times the program's calls and, every
``interval`` seconds of wall time, runs a small fixed pure-Python kernel
from a signal handler.  The kernel's CPU time says how fast the host runs
this kind of code at that moment: it multiplies two sparse polynomials with
``Fraction`` coefficients and tuple exponents and sorts the product's
monomials, the paths gvdlab's own arithmetic takes.  (A loop of integer and
dict operations tracked the program less well: on the same runs it left a
10% spread where this kernel left 3%.)

A stretch of the program's CPU time divided by the kernel time measured
around it is its cost in ``ref``: how many kernel runs the host would have
finished in that time.  Slow phases lengthen both, so the cost stays put
where the seconds do not.  The kernel is the benchmark's own code and does
not touch gvdlab, so a change to the program moves only the numerator.
Probes take about 1% of the CPU; their own time is left out of every cost
and of every raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# The clock of the benchmark's timings: process CPU seconds.  Only a
# wall-clock timer (ITIMER_REAL) drives the probes: arming a CPU-time timer
# (ITIMER_PROF) makes Linux update this clock at scheduler ticks only.
_clock = time.process_time

# Kernel size: about a millisecond on a 2 GHz x86-64 core with Python 3.11.
KERNEL_ROUNDS = 3
# What one kernel run is taken to last when a cost is given in seconds, as
# set-up time is: ``setup_s`` is set-up cost at this nominal host speed.
REF_S = 0.001
# Neighbouring probes whose median kernel time costs a stretch of work: one
# probe can catch an interrupt, five cover about half a second.
SMOOTH = 5

_F = {(i % 3, (i * 2) % 3, i % 2, 0, i % 4, 1): Fraction(i + 1, 3) for i in range(7)}
_G = {((i * 5) % 3, i % 2, (i * 7) % 4, 1, 0, i % 3): Fraction(2 * i - 5, 7)
      for i in range(7)}


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """The reference work: ``rounds`` times the product of two fixed sparse
    polynomials in six variables, and its monomials in degree order.  The
    garbage collector is held off so that a collection of the program's
    objects never lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    acc = 0
    for _ in range(rounds):
        out = {}
        for m1, c1 in _F.items():
            for m2, c2 in _G.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        acc += len(sorted(out, key=lambda m: (sum(m), m), reverse=True))
    if enabled:
        gc.enable()
    return acc


def kernel_seconds(runs: int = 5) -> float:
    """How fast the host is now: the median CPU time of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        t0 = _clock()
        kernel()
        times.append(_clock() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Run ``kernel`` every ``interval`` seconds of wall time inside the
    ``with`` block, once on entry and once on exit.

    ``probes`` holds ``(start, duration)`` pairs in CPU seconds.  After the
    block, ``cost(a, b)`` gives the cost in ``ref`` of CPU work timed from
    ``a`` to ``b`` with ``_clock``, and ``work(a, b)`` its raw seconds, both
    without the probes that ran in between.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.probes = []
        self._previous = None
        self._starts = None
        self._scale = None

    def _probe(self, *_):
        t0 = _clock()
        kernel()
        self.probes.append((t0, _clock() - t0))

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self._starts = [start for start, _ in self.probes]
        durations = [d for _, d in self.probes]
        half = SMOOTH // 2
        self._scale = [statistics.median(durations[max(0, k - half):k + half + 1])
                       for k in range(len(durations))]
        return False

    def _stretches(self, a: float, b: float):
        """The stretches of [a, b] between probes, each with the index of
        the probe that ends it (or the next one after ``b``)."""
        k = bisect.bisect_left(self._starts, a)
        cur = a
        while k < len(self.probes) and self.probes[k][0] < b:
            start, dur = self.probes[k]
            yield start - cur, k
            cur = start + dur
            k += 1
        yield b - cur, min(k, len(self.probes) - 1)

    def cost(self, a: float, b: float) -> float:
        return sum(w / self._scale[k] for w, k in self._stretches(a, b))

    def work(self, a: float, b: float) -> float:
        return sum(w for w, _ in self._stretches(a, b))
