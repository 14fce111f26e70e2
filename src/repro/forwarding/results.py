"""Simulation outcomes shared by every forwarding engine.

:class:`SimulationResult` (one run) and :class:`DeliveryOutcome` (one
message) are the result types of :mod:`repro.forwarding.simulator` and of
the :mod:`repro.sim` engines, which extend the result with resource
accounting.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .messages import Message

__all__ = ["DeliveryOutcome", "SimulationResult"]


@dataclass(frozen=True)
class DeliveryOutcome:
    """Outcome of a single message under one algorithm."""

    message: Message
    delivered: bool
    delivery_time: Optional[float]
    hop_count: Optional[int]

    @property
    def delay(self) -> Optional[float]:
        """Delivery delay in seconds, or None if not delivered."""
        if not self.delivered or self.delivery_time is None:
            return None
        return self.delivery_time - self.message.creation_time


@dataclass
class SimulationResult:
    """All outcomes of one simulation run.

    ``copies_sent`` counts every successful transfer of a message copy
    between two nodes, delivery hops included (one message creation is not a
    copy).  It is ``None`` on results that predate the counter or that were
    merged from runs without it.
    """

    algorithm: str
    trace_name: str
    outcomes: List[DeliveryOutcome] = field(default_factory=list)
    copies_sent: Optional[int] = None
    # (number of outcomes indexed, id -> outcome); see outcome_for
    _outcome_index: Optional[Tuple[int, Dict[int, DeliveryOutcome]]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_messages(self) -> int:
        return len(self.outcomes)

    @property
    def num_delivered(self) -> int:
        return sum(1 for o in self.outcomes if o.delivered)

    def success_rate(self) -> float:
        """Fraction of messages delivered (the paper's S_A)."""
        if not self.outcomes:
            return 0.0
        return self.num_delivered / len(self.outcomes)

    def delays(self) -> List[float]:
        """Delays of the delivered messages."""
        return [o.delay for o in self.outcomes if o.delivered and o.delay is not None]

    def average_delay(self) -> Optional[float]:
        """Mean delivery delay over delivered messages (the paper's D_A)."""
        delays = self.delays()
        if not delays:
            return None
        return sum(delays) / len(delays)

    def summary(self) -> Dict[str, object]:
        """Headline metrics as one flat dict (for tables, examples, the CLI).

        Keys: ``algorithm``, ``trace``, ``num_messages``, ``num_delivered``,
        ``success_rate``, ``mean_delay_s``, ``median_delay_s``,
        ``copies_sent`` and ``copies_per_delivery``; delay and copy entries
        are ``None`` when nothing was delivered / no counter is available.
        """
        delays = self.delays()
        delivered = self.num_delivered
        mean_delay = self.average_delay()
        median_delay = statistics.median(delays) if delays else None
        copies = self.copies_sent
        return {
            "algorithm": self.algorithm,
            "trace": self.trace_name,
            "num_messages": self.num_messages,
            "num_delivered": delivered,
            "success_rate": self.success_rate(),
            "mean_delay_s": mean_delay,
            "median_delay_s": median_delay,
            "copies_sent": copies,
            "copies_per_delivery": (copies / delivered
                                    if copies is not None and delivered else None),
        }

    def outcome_for(self, message_id: int) -> Optional[DeliveryOutcome]:
        """The outcome of one message, by id (O(1) after the first call).

        The id → outcome index is built lazily and rebuilt whenever the
        length of :attr:`outcomes` has changed since it was built; should
        ids ever collide, the first occurrence wins, matching a front-to-back
        scan.  (Replacing an outcome in place without changing the list
        length is not detected — treat a populated result as read-only.)
        """
        cached = self._outcome_index
        if cached is None or cached[0] != len(self.outcomes):
            index: Dict[int, DeliveryOutcome] = {}
            for outcome in self.outcomes:
                index.setdefault(outcome.message.id, outcome)
            self._outcome_index = cached = (len(self.outcomes), index)
        return cached[1].get(message_id)
