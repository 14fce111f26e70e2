"""The stateful routing-protocol API.

The paper's six forwarding heuristics (:mod:`repro.forwarding.algorithms`)
all reduce to a stateless per-contact ``should_forward`` test.  The modern
DTN protocols this package adds — spray-and-wait replication budgets,
PRoPHET's learned delivery predictabilities, probabilistic flooding — need
*per-node persistent state* that evolves with the contact process.  A
:class:`RoutingProtocol` therefore sees the full lifecycle of a run:

``prepare(trace)``
    called once at the start of every run; resets all per-run state and
    precomputes oracle state for future-knowledge protocols.
``on_message_created(message, now)``
    a message entered the network at its source (spray protocols allocate
    their copy budget here).
``on_contact_start(a, b, now, history)`` / ``on_contact_end(a, b, now, history)``
    a contact opened/closed (PRoPHET updates predictabilities here).
``should_forward(carrier, peer, message, now, history)``
    the replication-aware forward decision.  Unlike the legacy API it
    receives the *message*, so protocols can consult per-message state
    (remaining copies, token ownership).
``on_forwarded(message, carrier, peer, now)``
    a copy actually moved (this is where copy budgets are *spent* — a
    decision alone costs nothing, so a transfer rejected by a full buffer
    in the constrained engine does not burn budget).
``on_delivered(message, now)``
    the message reached its destination (first delivery only).

Both engines — the resource-constrained :class:`repro.sim.DesSimulator`
and the vector kernel :class:`repro.sim.VectorSimulator` (which also runs
:class:`repro.forwarding.ForwardingSimulator`) — invoke the hooks at the
same points in the same event order, so a deterministic protocol produces
identical delivery streams in both (enforced by
``tests/test_vector_equivalence.py``, and against frozen streams by
``tests/test_golden_streams.py``).  Delivery to the destination itself
remains the engines' *minimal progress* rule and is never a protocol
decision; it does not spend replication budget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..contacts import ContactTrace, NodeId
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message

__all__ = ["RoutingProtocol"]


class RoutingProtocol(ABC):
    """Interface implemented by every stateful routing protocol."""

    #: Human-readable name used in result tables and the leaderboard.
    name: str = "abstract"

    #: Whether the protocol needs the full trace ahead of time.
    uses_future_knowledge: bool = False

    #: Whether the protocol keeps per-node state between decisions.
    stateful: bool = True

    #: Short description of the replication discipline for the zoo table
    #: ("flooding", "single-copy", "L copies", "probabilistic", "utility").
    replication: str = "flooding"

    #: What the protocol knows ("none", "history", "oracle", "learned").
    knowledge: str = "none"

    #: Whether the vector engine may skip history recording and the
    #: per-contact hooks for this protocol (it neither reads the online
    #: contact history nor implements ``on_contact_start``/``end``).
    #: Opt in via :class:`repro.routing.vector.VectorProtocol`.
    vector_fastpath: bool = False

    #: Optional batch twin of ``should_forward`` used by the vector
    #: engine; ``None`` keeps the protocol on the scalar decision path.
    vector_approvals = None

    def prepare(self, trace: ContactTrace) -> None:
        """Reset per-run state and precompute any oracle state.

        Called once before every run; subclasses that keep state must call
        ``super().prepare(trace)`` (or reset themselves) so that one
        instance can be run repeatedly.
        """

    # ------------------------------------------------------------------
    # lifecycle hooks (default: no-ops)
    # ------------------------------------------------------------------
    def on_message_created(self, message: Message, now: float) -> None:
        """*message* entered the network at ``message.source``."""

    def on_contact_start(self, a: NodeId, b: NodeId, now: float,
                         history: OnlineContactHistory) -> None:
        """A contact between *a* and *b* opened at *now*."""

    def on_contact_end(self, a: NodeId, b: NodeId, now: float,
                       history: OnlineContactHistory) -> None:
        """A contact between *a* and *b* closed at *now*."""

    def on_forwarded(self, message: Message, carrier: NodeId, peer: NodeId,
                     now: float) -> None:
        """A copy of *message* actually moved from *carrier* to *peer*."""

    def on_delivered(self, message: Message, now: float) -> None:
        """*message* reached its destination (first delivery only)."""

    # ------------------------------------------------------------------
    @abstractmethod
    def should_forward(
        self,
        carrier: NodeId,
        peer: NodeId,
        message: Message,
        now: float,
        history: OnlineContactHistory,
    ) -> bool:
        """Return True if *carrier* should hand a copy of *message* to *peer*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
