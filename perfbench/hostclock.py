"""A stopwatch that factors the host's changing speed out of a timing.

On a small shared virtual machine the speed of a vCPU changes by a
factor of two or more within seconds, with work elsewhere on the host.
Timing the same repetition twice then differs by far more than the
changes the benchmark exists to show.  The stopwatch counts host time in
*reference seconds* instead: a ``SIGALRM`` timer interrupts the timed
work every ``PERIOD_S`` to run a fixed probe, and each stretch of work
between two probes is scaled by ``PROBE_REF_S`` over the mean time of
the probes on either side of it.  A stretch that ran while the host was
half as fast counts half as long.  The probes' own time is left out.

The probe touches nothing of the simulator, so the simulated run is
unchanged, and a program that does less work between probes reads
faster in proportion.  With ``PROBING`` off (the traced run, whose
spans must not absorb probe time) the stopwatch reads plain host time.
"""

from __future__ import annotations

import signal
import time

#: Interval between probes (host seconds).
PERIOD_S = 0.05
#: The probe's time on the reference host (a 2-vCPU 2 GHz virtual
#: machine) at its usual speed.
PROBE_REF_S = 0.0019
#: Probe while timing; turned off for traced runs.
PROBING = True


def probe() -> float:
    """Run the fixed probe work; returns its host seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(8_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


class Stopwatch:
    """Reference seconds since construction; one may run at a time."""

    _running: Stopwatch | None = None

    def __init__(self, probing: bool | None = None) -> None:
        self.probing = PROBING if probing is None else probing
        self.elapsed = 0.0  # reference seconds of closed stretches
        self.raw = 0.0  # host seconds of closed stretches
        self.probes = 0
        self._busy = False
        if self.probing:
            if Stopwatch._running is not None:
                raise RuntimeError("another stopwatch is running")
            Stopwatch._running = self
            self._last = probe()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._since = time.perf_counter()

    def _sample(self) -> None:
        """Close the open stretch with a probe and open the next one."""
        self._busy = True
        now = time.perf_counter()
        stretch = now - self._since
        self.raw += stretch
        if self.probing:
            took = probe()
            self.elapsed += stretch * PROBE_REF_S / (0.5 * (self._last + took))
            self._last = took
            self.probes += 1
        else:
            self.elapsed += stretch
        self._since = time.perf_counter()
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def lap(self) -> float:
        """Reference seconds since the start; the stopwatch keeps running."""
        self._sample()
        return self.elapsed

    def stop(self) -> float:
        """Reference seconds since the start; the stopwatch stops."""
        self._sample()
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            Stopwatch._running = None
        return self.elapsed
