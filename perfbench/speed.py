"""Host speed, measured beside the work it rescales.

Shared hosts change speed by tens of percent for tens of seconds at a
time: on a shared 2-core host a fixed Python loop ran 32 to 60 times a
second over two minutes, in plateaus 10-40 s long, so two runs of one
workload minutes apart differed by a quarter in wall time. While a
sample runs, a timer signal runs a fixed reference probe every
``INTERVAL`` seconds, and every stretch of wall time is rescaled by how
fast the probes around it ran. The result is seconds at a nominal host
speed: equal to wall time on a host where the probe takes its nominal
time. The probe is plain Python and numpy, so no change to the package
under test can change it; half of it interprets Python like the
compiler passes, half calls numpy on small complex matrices like the
sampler. Python runs signal handlers between bytecodes, so a probe
never lands inside a numpy call.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Tuple

import numpy as np

#: Probe halves' nominal durations (their typical time on the shared
#: 2-core host the bounds were set on).
NOMINAL_PYTHON_S = 2.5e-4
NOMINAL_NUMPY_S = 2.5e-4
#: Seconds between probes, and probes on each side of a stretch of
#: time that estimate the speed it ran at.
INTERVAL = 0.1
WINDOW = 3

_STATE = np.ones((16, 16), dtype=np.complex128)
_GATE = np.eye(16, dtype=np.complex128)


def probe() -> Tuple[float, float]:
    """Seconds taken by the Python half and the numpy half of the probe."""
    start = perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    middle = perf_counter()
    state = _STATE
    for _ in range(60):
        state = _GATE @ state
    return middle - start, perf_counter() - middle


def factor(python_s: float, numpy_s: float) -> float:
    """Nominal over measured speed, both probe halves weighted alike."""
    return 0.5 * (NOMINAL_PYTHON_S / python_s + NOMINAL_NUMPY_S / numpy_s)


class SpeedLog:
    """Probe results, taken from a timer signal while :meth:`running`."""

    def __init__(self) -> None:
        #: (time the probe ended, its seconds, its speed factor).
        self.ticks: List[Tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        python_s, numpy_s = probe()
        end = perf_counter()
        self.ticks.append((end, end - start, factor(python_s, numpy_s)))

    @contextmanager
    def running(self) -> Iterator["SpeedLog"]:
        """Probe every ``INTERVAL`` seconds, and once on entry and exit."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick(None, None)

    def rescaled(self, start: float, end: float) -> float:
        """The ``perf_counter`` interval [start, end] at nominal speed,
        less the probes that ran inside it.

        Each stretch between probes takes the median factor of the
        probes within ``WINDOW`` of the probe that closed it; the
        stretch after the last probe inside takes the next probe's.
        """
        factors = [t[2] for t in self.ticks]
        total, last = 0.0, start
        for i, (at, cost, _) in enumerate(self.ticks):
            if at <= start:
                continue
            window = statistics.median(
                factors[max(0, i - WINDOW):i + WINDOW + 1])
            if at >= end:
                return total + (end - last) * window
            total += (at - last - cost) * window
            last = at
        return total + (end - last) * statistics.median(
            factors[-WINDOW - 1:])
