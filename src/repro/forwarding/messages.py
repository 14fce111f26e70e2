"""Message workloads for the forwarding experiments.

Section 6.1 of the paper generates messages "according to a Poisson process
with rate one message per 4 seconds", with source and destination chosen
uniformly at random, only during the first two hours of each 3-hour window
(so every message has at least an hour in which it can be delivered), and
averages results over 10 simulation runs.

Two workload builders are provided:

* :class:`PoissonMessageWorkload` — exactly the paper's process;
* :class:`UniformMessageWorkload` — a fixed number of messages with uniform
  creation times, convenient for the path-enumeration studies where the
  number of messages (not their arrival process) is what matters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..contacts import ContactTrace, NodeId
from ..scenario.base import WorkloadSpec, register_spec

__all__ = [
    "Message",
    "PoissonMessageWorkload",
    "UniformMessageWorkload",
    "messages_from_tuples",
]


@dataclass(frozen=True)
class Message:
    """A unicast message ``(σ, δ, t1)`` with a stable identifier.

    ``size`` (bytes) and ``ttl`` (seconds from creation, ``None`` = never
    expires) are ignored by the idealized trace-driven simulator — the paper
    assumes infinite buffers, instantaneous exchanges and no expiry — and
    consumed by the resource-constrained engine in :mod:`repro.sim`.
    """

    id: int
    source: NodeId
    destination: NodeId
    creation_time: float
    size: float = 1.0
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        # written so that NaN fails too: the engine's event timeline needs
        # a total order on times
        if not self.creation_time >= 0:
            raise ValueError("creation_time must be non-negative")
        if not self.size > 0:
            raise ValueError("size must be positive")
        if self.ttl is not None and not self.ttl > 0:
            raise ValueError("ttl must be positive (or None for no expiry)")

    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.source, self.destination)

    @property
    def expiry_time(self) -> Optional[float]:
        """Absolute time at which the message expires, or None."""
        if self.ttl is None:
            return None
        return self.creation_time + self.ttl


def messages_from_tuples(
    triples: Iterable[Tuple[NodeId, NodeId, float]],
) -> List[Message]:
    """Wrap plain ``(source, destination, creation_time)`` triples."""
    return [
        Message(id=index, source=s, destination=d, creation_time=t)
        for index, (s, d, t) in enumerate(triples)
    ]


def _draw_endpoints(rng: np.random.Generator, nodes: Sequence[NodeId]) -> Tuple[NodeId, NodeId]:
    source_index = int(rng.integers(len(nodes)))
    dest_index = int(rng.integers(len(nodes) - 1))
    if dest_index >= source_index:
        dest_index += 1
    return nodes[source_index], nodes[dest_index]


@register_spec
@dataclass
class PoissonMessageWorkload(WorkloadSpec):
    """Messages arriving as a Poisson process over a generation window.

    Registered as the ``"poisson"`` workload-spec kind (JSON-serializable
    via ``to_dict``/``from_dict``).

    Parameters
    ----------
    rate:
        Message arrival rate in messages per second (the paper uses
        ``1 / 4 = 0.25``).
    generation_window:
        ``(start, end)`` of the interval in which messages are created.  If
        None, the first two-thirds of the trace window is used, matching the
        paper's "first two hours of each three-hour period".
    message_size, ttl:
        Stamped onto every generated message; only the resource-constrained
        engine (:mod:`repro.sim`) interprets them.
    """

    kind: ClassVar[str] = "poisson"

    rate: float = 0.25
    generation_window: Optional[Tuple[float, float]] = None
    message_size: float = 1.0
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def generate(
        self,
        trace: ContactTrace,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> List[Message]:
        """Draw one realisation of the workload for *trace*."""
        if trace.num_nodes < 2:
            raise ValueError("need at least two nodes")
        rng = np.random.default_rng(seed)
        nodes = sorted(trace.nodes)
        window = self.generation_window or (0.0, trace.duration * 2.0 / 3.0)
        lo, hi = window
        if not 0 <= lo < hi <= trace.duration:
            raise ValueError(f"invalid generation window {window}")
        messages: List[Message] = []
        t = lo
        counter = itertools.count()
        while True:
            t += float(rng.exponential(1.0 / self.rate))
            if t >= hi:
                break
            source, destination = _draw_endpoints(rng, nodes)
            messages.append(Message(id=next(counter), source=source,
                                    destination=destination, creation_time=t,
                                    size=self.message_size, ttl=self.ttl))
        return messages


@register_spec
@dataclass
class UniformMessageWorkload(WorkloadSpec):
    """A fixed number of messages with uniformly random creation times.

    Registered as the ``"uniform"`` workload-spec kind.
    """

    kind: ClassVar[str] = "uniform"

    num_messages: int
    generation_window: Optional[Tuple[float, float]] = None
    message_size: float = 1.0
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_messages < 0:
            raise ValueError("num_messages must be non-negative")

    def generate(
        self,
        trace: ContactTrace,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> List[Message]:
        if trace.num_nodes < 2:
            raise ValueError("need at least two nodes")
        rng = np.random.default_rng(seed)
        nodes = sorted(trace.nodes)
        window = self.generation_window or (0.0, trace.duration * 2.0 / 3.0)
        lo, hi = window
        if not 0 <= lo < hi <= trace.duration:
            raise ValueError(f"invalid generation window {window}")
        messages: List[Message] = []
        for index in range(self.num_messages):
            source, destination = _draw_endpoints(rng, nodes)
            messages.append(Message(id=index, source=source, destination=destination,
                                    creation_time=float(rng.uniform(lo, hi)),
                                    size=self.message_size, ttl=self.ttl))
        messages.sort(key=lambda m: m.creation_time)
        return messages
