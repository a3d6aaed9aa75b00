"""A wall clock scaled to the host's momentary speed.

The 2-core x86 VM the benchmark was sized on is shared, and its speed
moves by up to 1.7x within seconds as its neighbours come and go: a fixed
pure-Python loop there takes about 0.9 ms in one moment and 1.5 ms a few
seconds later. Whole runs can land in either state, so plain wall times
of identical runs spread by far more than a code change should be allowed
to move them.

:class:`HostClock` measures that speed while the benchmark runs. Once
started, a ``SIGALRM`` interval timer interrupts the process every
:data:`PERIOD_S` and times :func:`reference`, a short fixed loop of dict
and attribute work. Between two samples, wall time is scaled by
``REFERENCE_S / (the loop's time)``, the mean of the two samples' factors,
and the loop's own time is left out. An interval read off the clock is
therefore the time the code would have taken on the host at its
:data:`REFERENCE_S` speed. The handler runs in the main thread between
bytecodes, so the process stays single-threaded; a long C call only
delays the next sample.

Before :meth:`HostClock.start` and after :meth:`HostClock.stop` the clock
is plain ``time.perf_counter``.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Seconds between speed samples.
PERIOD_S = 0.05
#: :func:`reference`'s time in the host's common (slower) state. Scaled
#: times are wall times at this speed.
REFERENCE_S = 0.0014

_perf = time.perf_counter


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_ITEMS = [_Item(i) for i in range(256)]


def reference() -> float:
    """Time one fixed pass of dict and attribute work; returns seconds."""
    t0 = _perf()
    counts: dict = {}
    for i in range(9000):
        key = i & 255
        counts[key] = counts.get(key, 0) + _ITEMS[key].value
    return _perf() - t0


class HostClock:
    """Callable clock: seconds at the host's reference speed."""

    def __init__(self) -> None:
        self._running = False
        #: Every reference-loop time sampled since the last start.
        self.samples: List[float] = []

    def start(self) -> None:
        self.samples = []
        self._speed = self._sample()
        self._base = 0.0
        self._last = _perf()
        self._gen = 0
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def _sample(self) -> float:
        took = reference()
        self.samples.append(took)
        return REFERENCE_S / took

    def _tick(self, signum, frame) -> None:
        now = _perf()
        speed = self._sample()
        self._base += (now - self._last) * (self._speed + speed) / 2
        self._speed = speed
        self._last = _perf()
        self._gen += 1

    def __call__(self) -> float:
        if not self._running:
            return _perf()
        while True:
            gen = self._gen
            value = self._base + (_perf() - self._last) * self._speed
            if gen == self._gen:
                return value

    def reference_ms(self) -> float:
        """Median reference-loop time of the samples so far, in ms."""
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0


#: The benchmark's one clock.
clock = HostClock()
