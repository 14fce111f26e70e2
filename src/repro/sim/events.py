"""Event encoding and the event timeline of the DES engine.

An event is ordered by ``(time, kind, sequence)``.  The kind encodes the
priority of simultaneous events; the relative order of contact starts,
contact ends and message creations is exactly the one the paper's
idealized model uses (starts < ends < creations):

``EXPIRE``
    TTL expiries fire before anything else at the same instant — a message
    is live during ``[creation, creation + ttl)``, so a contact starting
    exactly at the expiry time cannot deliver it.
``NODE_DOWN`` / ``NODE_UP``
    Churn transitions (crash, then reboot) precede contact events: a node
    crashing the instant a contact starts never observes that contact, and
    a node rebooting at that instant does.  A zero-length downtime wipes
    the buffer and rejoins in one instant (down sorts before up).
``CONTACT_START``
    Starts precede ends so zero-duration contacts are opened, exchanged
    over, and then closed.
``TRANSFER_DONE``
    Bandwidth-limited transfers completing exactly at a contact's end
    succeed (the bytes fit the contact), hence before ``CONTACT_END``.
``RETRANSMIT``
    A lost transfer's backoff expiring re-attempts the transfer; the
    engine only schedules these strictly inside the contact, and at equal
    instants completed transfers land before re-attempts.
``CONTACT_END``
    Precedes creations: a message created the instant a contact ends does
    not see it as active (half-open ``[start, end)`` contact semantics).
``CREATE``
    Message creations come last at any instant.

Only the *relative* order of the kinds matters; the frozen golden
delivery streams depend on it.

Every event except ``TRANSFER_DONE`` and ``RETRANSMIT`` is known before
the run starts: contact starts and ends, creations, expiries and the
seeded churn schedule.  :class:`Timeline` sorts those *static* events
once, as flat columns, and keeps only the *dynamic* ones on a small heap.
It is the cursor of PONS's ``CommonContactPlan.next_event/at`` with a
heap beside it.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Tuple

import numpy as np

__all__ = [
    "EXPIRE",
    "NODE_DOWN",
    "NODE_UP",
    "CONTACT_START",
    "TRANSFER_DONE",
    "RETRANSMIT",
    "CONTACT_END",
    "CREATE",
    "Timeline",
]

EXPIRE = 0
NODE_DOWN = 1
NODE_UP = 2
CONTACT_START = 3
TRANSFER_DONE = 4
RETRANSMIT = 5
CONTACT_END = 6
CREATE = 7

#: ``(time, kind, a, b, c)`` as the timeline yields it
Event = Tuple[float, int, Any, Any, Any]


class Timeline:
    """Presorted static events merged with a heap of dynamic ones.

    The static events are given as parallel numpy columns in *sequence*
    order: ``times``, ``kinds`` and three operand columns ``a``, ``b``,
    ``c`` whose meaning depends on the kind.  Event *i*'s sequence number
    is *i*; one stable lexsort by ``(time, kind)`` puts them in replay
    order.  :meth:`push` numbers dynamic events on from the last static
    one, so iteration yields exactly the order a single ``heapq`` of
    ``(time, kind, sequence)`` would pop: at equal time and kind a static
    event always comes first, because its sequence number is smaller.

    Iterating yields ``(time, kind, a, b, c)`` and may be interleaved with
    :meth:`push`, including pushes earlier than the last event yielded.
    A run that never pushes may walk :attr:`columns` directly instead.
    """

    __slots__ = ("columns", "_heap", "_sequence", "_position")

    def __init__(self, times: np.ndarray, kinds: np.ndarray, a: np.ndarray,
                 b: np.ndarray, c: np.ndarray) -> None:
        order = np.lexsort((kinds, times))  # stable: sequence breaks ties
        #: the static events in replay order, as plain Python lists
        self.columns: Tuple[List, ...] = tuple(
            column[order].tolist() for column in (times, kinds, a, b, c))
        self._heap: List[tuple] = []
        self._sequence = len(order)
        self._position = 0

    def __len__(self) -> int:
        """Events not yet yielded, static and dynamic."""
        return len(self.columns[0]) - self._position + len(self._heap)

    def push(self, time: float, kind: int, a: Any, b: Any, c: Any) -> None:
        """Schedule a dynamic event."""
        heapq.heappush(self._heap, (time, kind, self._sequence, a, b, c))
        self._sequence += 1

    def __iter__(self) -> Iterator[Event]:
        times, kinds, ev_a, ev_b, ev_c = self.columns
        heap = self._heap
        total = len(times)
        while self._position < total or heap:
            position = self._position
            # a dynamic event goes first only when strictly earlier in
            # (time, kind): at a tie the static one has the smaller sequence
            if heap and (position == total or heap[0][:2]
                         < (times[position], kinds[position])):
                top = heapq.heappop(heap)
                yield top[0], top[1], top[3], top[4], top[5]
            else:
                self._position = position + 1
                yield (times[position], kinds[position], ev_a[position],
                       ev_b[position], ev_c[position])
