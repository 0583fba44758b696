"""The machine-speed reference that the benchmark's times are scaled by.

The benchmark runs on shared virtual machines whose speed swings by up to
2x within seconds and drifts over minutes, as neighbours load the cores
(and the hyperthread siblings) under it.  Medians over a run cannot remove
a slowdown that lasts the whole run.  So while a timed section runs, a
timer signal interrupts it every ``INTERVAL`` seconds and runs a fixed
pure-Python snippet (integer arithmetic, gcd, a dict and ``str``, the kind
of work edgeboot's exact rings do); the snippet's mean time over the
section measures how fast the core was just then.  A section's scaled time
is its own time (the snippets' time taken out) times ``REF_S`` over that
mean: the seconds the section would take on a core that runs the snippet
in ``REF_S`` seconds.  A change to edgeboot moves the section's time and not
the snippet's, so it moves the scaled time by the same share.

Sampling stops while the main thread is inside one long C call (a numpy
kernel), so sections that are mostly such calls get fewer samples; every
section gets one sample at its start and one at its end.
"""

from __future__ import annotations

import signal
import time
from math import gcd

INTERVAL = 0.05
# About the snippet's time on an unloaded core of the 2-vCPU machine the README's
# reference figures come from; it sets the unit of every scaled time.
REF_S = 2.0e-4


def snippet() -> float:
    """Run the fixed reference work once; return its wall time."""
    t = time.perf_counter()
    table = {}
    num, den = 1, 1
    for i in range(1, 300):
        num, den = num * (i % 7 + 2) + den * (i % 5 + 1), den * (i % 7 + 2)
        g = gcd(num, den)
        num, den = num // g, den // g
        table[i % 61] = (num % 1000003, str(den % 1000003))
    return time.perf_counter() - t


class SpeedSampler:
    """Samples the core's speed while a section runs (``with`` block).

    After the block, ``own_s`` is the section's wall time without the
    snippets, ``mean_ref_s`` the snippets' mean time and ``scaled_s`` the
    section's time at the reference speed.  Use it in the main thread only,
    and nest none: it owns ``SIGALRM`` while active.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = self.own_s = self.mean_ref_s = self.scaled_s = float("nan")

    def _sample(self, *_):
        self.samples.append(snippet())

    def __enter__(self) -> "SpeedSampler":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.samples[1:])  # the first sample ran before the clock
        self._sample()
        self.own_s = self.wall_s - inside
        self.mean_ref_s = sum(self.samples) / len(self.samples)
        self.scaled_s = self.own_s * REF_S / self.mean_ref_s
