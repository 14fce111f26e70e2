"""Compatibility layer: the paper's algorithms under the protocol API.

:class:`AlgorithmProtocol` wraps a legacy
:class:`~repro.forwarding.ForwardingAlgorithm` *unchanged*: every lifecycle
hook is a no-op and the forward decision delegates to the algorithm's
``should_forward(carrier, peer, destination, now, history)`` with the
wrapped message's destination.  Because the engines invoke the hooks at
fixed points regardless of the protocol and the hooks do nothing here, a
wrapped algorithm produces byte-identical delivery streams to the
pre-wrapper engines (``tests/test_routing_equivalence.py`` pins this).
"""

from __future__ import annotations

from typing import Union

from ..contacts import ContactTrace, NodeId
from ..forwarding.algorithms import EpidemicForwarding, ForwardingAlgorithm
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message
from .base import RoutingProtocol

__all__ = ["AlgorithmProtocol", "ensure_protocol"]


class AlgorithmProtocol(RoutingProtocol):
    """A legacy :class:`ForwardingAlgorithm` run under the protocol API."""

    stateful = False

    def __init__(self, algorithm: ForwardingAlgorithm) -> None:
        self.algorithm = algorithm
        self.name = algorithm.name
        self.uses_future_knowledge = algorithm.uses_future_knowledge
        self.replication = ("flooding" if algorithm.name == "Epidemic"
                            else "utility")
        self.knowledge = ("oracle" if algorithm.uses_future_knowledge
                          else "history")
        # Epidemic is the one paper algorithm that consults neither the
        # contact history nor any hook, so the engine may run it on
        # the fast path; the other five read the history on every decision
        # and stay on the per-contact fallback.
        if isinstance(algorithm, EpidemicForwarding):
            self.vector_fastpath = True
            self.vector_approvals = self._approve_all

    @staticmethod
    def _approve_all(carrier, peer, messages, now):
        return [True] * len(messages)

    def prepare(self, trace: ContactTrace) -> None:
        self.algorithm.prepare(trace)

    def should_forward(
        self,
        carrier: NodeId,
        peer: NodeId,
        message: Message,
        now: float,
        history: OnlineContactHistory,
    ) -> bool:
        return self.algorithm.should_forward(carrier, peer,
                                             message.destination, now, history)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AlgorithmProtocol {self.name!r}>"


def ensure_protocol(
    algorithm: Union[ForwardingAlgorithm, RoutingProtocol],
) -> RoutingProtocol:
    """Wrap *algorithm* into the protocol API unless it already is one."""
    if isinstance(algorithm, RoutingProtocol):
        return algorithm
    if isinstance(algorithm, ForwardingAlgorithm):
        return AlgorithmProtocol(algorithm)
    raise TypeError(
        f"expected a ForwardingAlgorithm or RoutingProtocol, "
        f"got {type(algorithm).__name__}")
