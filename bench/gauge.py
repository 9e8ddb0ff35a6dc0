"""A gauge of the host's speed, to put timings taken at different moments on
one scale.

On a shared host the same work can take a third longer or more, for seconds
or for minutes, as other tenants load the machine; a run's wall times then
say more about the neighbours than about the program.  ``probe()`` times a
fixed piece of pure-Python work shaped like the program's exact kernel
(rational arithmetic on small objects, gcds, a dictionary of tuples).  The
benchmark takes probes between and during calls and scales each call's wall
time by ``REF_PROBE_S / probe time`` over it, so timings read as on a host
where the probe takes ``REF_PROBE_S``.  The probe does not depend on the program, so a
change to the program moves scaled times as it moves wall times.

Only built-in modules are imported here, so a fresh interpreter can take
probes without loading anything the program imports.
"""

from __future__ import annotations

import gc
import math
import signal
from time import perf_counter

REF_PROBE_S = 1e-3  # the probe time that scaled timings are referred to
MIN_GAP_S = 0.02  # calls closer together than this share a probe
TICK_S = 0.1  # a running call is probed this often


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)


def probe() -> float:
    """Seconds for the fixed work, with the cyclic collector held off so the
    program's heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for i in range(1, 430):
            acc += (_Ratio(i, i + 7) * _Ratio(3, i + 1) + _Ratio(i, 5)).num % 7
        table = {i: (i, str(i)) for i in range(1450)}
        seconds = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    del table
    return seconds


class Gauge:
    """Probes around and during calls.

    A probe is taken before a call (unless one was taken in the last
    MIN_GAP_S) and every TICK_S while the call runs, from a timer signal whose
    handler runs between the call's bytecodes.  A call is scaled by the mean
    of the probe before it, its ticks, and the first probe after it, so a long
    call is scaled by the host's speed over its whole length."""

    def __init__(self):
        self.times: list[float] = []  # probes taken between calls
        self._last = -math.inf
        self._waiting: list = []  # samples that still need their after-probe
        self._ticks: list[float] = []
        self._running = False
        signal.signal(signal.SIGALRM, self._tick)

    def start(self) -> int:
        """Before a call: index of the probe that precedes it; starts ticks."""
        if not self.times or perf_counter() - self._last >= MIN_GAP_S:
            self._take()
        self._ticks = []
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return len(self.times) - 1

    def stop(self) -> list[float]:
        """Right after the call: stops ticks and returns the probes taken."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        return self._ticks

    def after(self, sample: list) -> None:
        """`sample[-1]` gets the index of the next probe taken."""
        self._waiting.append(sample)

    def flush(self) -> None:
        self._take()

    def _tick(self, signum, frame) -> None:
        if self._running:
            self._ticks.append(probe())

    def _take(self) -> None:
        self.times.append(probe())
        self._last = perf_counter()
        for sample in self._waiting:
            sample[-1] = len(self.times) - 1
        self._waiting.clear()

    def scale(self, before: int, ticks: list, after: int) -> float:
        probes = [self.times[before], *ticks, self.times[after]]
        return REF_PROBE_S / (sum(probes) / len(probes))
