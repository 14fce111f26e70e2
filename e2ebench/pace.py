"""The machine's pace, measured beside the program and divided out.

The 2-vCPU VM this benchmark was built on does not run at one speed: the
same pure-Python loop takes 35-85 ms from one half-second to the next, and
whole runs land in spells that are 30-40% slower than others, with CPU
time tracking wall time (the host's other tenants, not this process).
Timed alone, the program's figures move with those spells more than with
any change to the program.

So the untraced pass interleaves a *probe* with the ops: a fixed
pure-Python kernel that belongs to the benchmark, never to the program,
timed at least every :data:`PROBE_EVERY_S` seconds between two ops (never
inside one).  Each op's wall time is then scaled by
``REFERENCE_PROBE_S / local probe time``, where the local probe time is the
median of the :data:`WINDOW` probes nearest the op in time; a stretch of
many ops (a pass, for ``ops_per_s``) is scaled by the mean of its probes,
which sample it evenly, preempted probes included.  A figure so scaled
reads as the time the op would take on the reference VM at its usual
pace; a change to the program moves it as it moves the raw wall time,
while the host's spells move the program and the probe together and
largely cancel.  The raw figures are printed and kept beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: typical probe time, in seconds, on the reference VM (2 vCPUs, Python
#: 3.11); the scale of every paced figure
REFERENCE_PROBE_S = 0.0015
#: least time between two probes
PROBE_EVERY_S = 0.05
#: probes whose median paces one op
WINDOW = 15
#: kernel iterations of one probe
_ITERATIONS = 3000
_TABLE = list(range(1024))


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def fold(self, item: int) -> int:
        self.value = (self.value * 31 + item) & 0xFFFFFFFF
        return self.value


def _kernel(iterations: int = _ITERATIONS) -> int:
    """Interpreter work of a fixed size: indexing, arithmetic, calls and
    attribute access, allocating nothing the collector tracks."""
    table = _TABLE
    cell = _Cell()
    for index in range(iterations):
        slot = (index * 2654435761) & 1023
        table[slot] = cell.fold(table[slot] + index) & 0xFFFF
    return cell.value


class Pace:
    """Probe times of one pass and the pace factor of any moment in it."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probes: List[float] = []
        self._next = 0.0

    def probe(self) -> float:
        """Time one probe now; return the wall time it took."""
        started = time.perf_counter()
        _kernel()
        ended = time.perf_counter()
        self.times.append((started + ended) / 2.0)
        self.probes.append(ended - started)
        self._next = ended + PROBE_EVERY_S
        return ended - started

    def maybe_probe(self) -> float:
        """Probe if the last probe is at least PROBE_EVERY_S old; return
        the wall time spent probing."""
        if time.perf_counter() < self._next:
            return 0.0
        return self.probe()

    def local(self, moment: float) -> float:
        """Median probe time of the :data:`WINDOW` probes nearest
        *moment*."""
        count = len(self.probes)
        if count <= WINDOW:
            return statistics.median(self.probes)
        centre = bisect.bisect_left(self.times, moment)
        start = min(max(0, centre - WINDOW // 2), count - WINDOW)
        return statistics.median(self.probes[start:start + WINDOW])

    def factor(self, moment: float) -> float:
        """Scale that turns a wall time at *moment* into reference time."""
        return REFERENCE_PROBE_S / self.local(moment)

    def overall(self) -> float:
        """Scale for a whole stretch of time: reference over the mean
        probe, as the probes sample the stretch evenly in time."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)
