"""Time work at a fixed reference speed of the machine.

The CPUs this benchmark runs on are shared with other machines' work,
and their speed drifts: the same round of a workload can take 30 % more
time a minute later, in user time as much as in wall time.  A sampling
:class:`Clock` therefore measures the machine's speed while it times
the work.  A timer signal interrupts the work every ``INTERVAL`` seconds
and runs a short fixed probe, a pure-Python loop of tuple, dict and
integer operations; one more probe runs just before and one just after
each timed stretch.  The work's own time is the elapsed time minus the
time spent in the interrupts, and each piece of work between two probes
is scaled by ``REF_PROBE_S`` over the mean of those two probes' times.
The sum is the time the work would take on a machine on which the probe
takes ``REF_PROBE_S``.  A change to the program moves it as it moves the
plain time; the machine's drift slows the probes as well and cancels.

Only the main thread runs: the probe runs in a signal handler, between
two bytecodes of the work.
"""

from __future__ import annotations

import signal
import time

#: Seconds between two probes; the probes cost about 2 % of the time.
INTERVAL = 0.02
#: The probe's time at the reference speed: about its time on an idle
#: 2-vCPU Intel Xeon virtual machine with Python 3.11.7, so that figures
#: read close to plain seconds there.
REF_PROBE_S = 0.0004
_PROBE_LOOPS = 1000


def probe() -> float:
    """Run the fixed probe once and return its time in seconds."""
    start = time.perf_counter()
    d: dict = {}
    for i in range(_PROBE_LOOPS):
        key = (i & 15, i % 3)
        d[key] = d.get(key, 0) + i * 7 // 3
    return time.perf_counter() - start


class Clock:
    """Adds up the work done inside each ``with clock:`` block.

    ``seconds`` is the plain time of the work, interrupts excluded, and
    ``reference_seconds`` the same work at the reference speed.
    """

    def __init__(self):
        self.seconds = 0.0
        self.reference_seconds = 0.0
        self._resume = 0.0
        self._probe = 0.0
        self._previous = None

    def _close_piece(self, stop: float, after: float) -> None:
        piece = stop - self._resume
        self.seconds += piece
        self.reference_seconds += piece * 2 * REF_PROBE_S / (self._probe + after)
        self._probe = after

    def _interrupt(self, signum, frame) -> None:
        stop = time.perf_counter()
        self._close_piece(stop, probe())
        self._resume = time.perf_counter()

    def __enter__(self) -> "Clock":
        self._probe = probe()
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        self._resume = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # An interrupt still pending runs here, before the stop is read.
        stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._close_piece(stop, probe())
