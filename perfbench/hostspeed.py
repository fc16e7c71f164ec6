"""Host-speed calibration: verdict times in seconds of a reference host.

On a shared host the same pure-Python work runs up to twice as slow in
stretches that last from a fraction of a second to minutes, and CPU time
slows as much as wall time, so a run that falls in a slow stretch reads slow
whatever the program does.  The benchmark therefore times a small fixed
kernel of its own -- exact rational polynomial products over dicts, the kind
of work galois_scope does, but none of its code -- every ``EVERY_S`` seconds
while it measures, from a SIGALRM handler, so that readings fall inside long
verdict calls too.  Each measured time has the handlers' time taken out and
is scaled by ``REFERENCE_S / (the mean reading during it)``: a reported time
is the time the work would take on a host that runs the kernel in
``REFERENCE_S``.  The raw wall times are printed beside the scaled ones.

A change to galois_scope cannot move the kernel, so the scaled times move
with the program and far less with the host.
"""
from __future__ import annotations

import bisect
import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001  # about the kernel's median time on a 2-core x86-64 host
EVERY_S = 0.025      # interval between readings
MARGIN_S = 0.05      # readings this close to a stretch also scale it
MIN_READINGS = 3

_rng = random.Random(7)
_TERMS = [((i, 3 - i, j), Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)))
          for i in range(4) for j in range(3)]


def kernel() -> int:
    """Square a 12-term polynomial with Fraction coefficients."""
    out = {}
    for ka, va in _TERMS:
        for kb, vb in _TERMS:
            k = (ka[0] + kb[0], ka[1] + kb[1], (ka[2] + kb[2]) % 7)
            out[k] = out.get(k, 0) + va * vb
    return len(out)


def read() -> float:
    """One timing of the kernel, with the cyclic collector off.

    The kernel's garbage is freed by reference counting; with the collector
    off, a collection of the program's heap cannot fall inside a reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Readings of the kernel through a run, and the factor for a stretch of it.

    Use as a context manager: readings are taken while it is active.
    ``spent`` is the total time the readings took; a stretch's own time is
    its wall time minus the growth of ``spent`` over it.
    """

    def __init__(self):
        self.times = []     # midpoints of the readings, on the perf_counter clock
        self.seconds = []   # what each reading took
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        s = read()
        self.times.append(t0 + s / 2)
        self.seconds.append(s)
        self.spent += perf_counter() - t0

    def __enter__(self):
        read()  # warm-up, not kept
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reading within MARGIN_S of [start, end].

        With fewer than MIN_READINGS there, the nearest readings are used.
        """
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        near = self.seconds[lo:hi]
        if len(near) < MIN_READINGS:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.seconds[i] for i in order[:MIN_READINGS]]
        return REFERENCE_S * len(near) / sum(near)
