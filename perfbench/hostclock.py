"""A clock that counts seconds at a fixed reference speed of the host.

The benchmark shares a few cores of a host whose speed swings, in
states lasting a few seconds, between about half and all of its peak: a
fixed pure-Python loop then takes from about 0.4 to 0.8 ms.  Wall time
of a pass follows those states, so two runs of the same code can differ
by a third.

``HostClock`` runs a small fixed probe loop from a ``SIGALRM`` timer
every ``interval_s`` seconds and rescales the wall time since the
previous probe by how fast that probe ran, relative to
``REFERENCE_PROBE_S``::

    reference seconds += wall seconds * (REFERENCE_PROBE_S / probe seconds) ** SLOWDOWN_EXPONENT

The library's code does not slow down as much as the probe loop: on a
2-vCPU host, regressing the log of an item's time on the log of the
probe time around it gave a slope of 0.70 to 0.79 on ``classify`` and
``verify_net`` items, hence ``SLOWDOWN_EXPONENT``.  The probe time is the median of the last three probes, so one probe
that is preempted does not rescale an interval.  Time spent inside the
probes is left out.  The probe is the benchmark's own code and does not
call the library, so a faster library gives proportionally fewer
reference seconds, while a slower host does not give more.  Timer
signals that arrive during a long call into C code are merged into one;
the interval before a probe is rescaled whatever its length, so the
clock still counts all of it.
"""

from __future__ import annotations

import signal
import statistics
import time

# What the probe takes at the reference speed: roughly the host's fast state.
REFERENCE_PROBE_S = 0.0004
SLOWDOWN_EXPONENT = 0.75


def _probe_loop() -> None:
    counts: dict[tuple, int] = {}
    for i in range(200):
        key = tuple((i * j) % 13 for j in range(8))
        counts[key] = counts.get(key, 0) + 1


class HostClock:
    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.elapsed = 0.0  # reference seconds up to the end of the last probe
        self.probe_s = 0.0  # wall seconds spent in probes
        self.probes = 0
        self._recent: list[float] = []
        self._last = 0.0
        self._speed = 1.0

    def start(self, since: float) -> None:
        """Count from ``since``, a ``time.perf_counter()`` reading (the
        monotonic clock, shared by all processes), at the speed of the
        first probes, and probe from now on."""
        self._last = since
        for _ in range(3):
            self._probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self) -> None:
        start = time.perf_counter()
        _probe_loop()
        end = time.perf_counter()
        self._recent = (self._recent + [end - start])[-3:]
        self._speed = (REFERENCE_PROBE_S / statistics.median(self._recent)) ** SLOWDOWN_EXPONENT
        self.elapsed += (start - self._last) * self._speed
        self.probe_s += end - start
        self.probes += 1
        self._last = end

    def now(self) -> float:
        """Reference seconds since ``since``, probes left out."""
        while True:
            probes = self.probes
            value = self.elapsed + (time.perf_counter() - self._last) * self._speed
            if probes == self.probes:  # no probe ran in between
                return value
