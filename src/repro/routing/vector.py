"""The vectorized fast-path protocol API of the DES engine.

:class:`repro.sim.engine.DesSimulator` screens every contact with
per-node candidate bitmasks before consulting the protocol, and asks the
protocol to judge the surviving candidates *as a batch* instead of one
``should_forward`` call per message.  A protocol opts into that fast path
by mixing in :class:`VectorProtocol` and implementing
:meth:`~VectorProtocol.vector_approvals`; everything else falls back to
the per-message lifecycle-hook API automatically and still runs unchanged.

The mixin carries two independent capabilities:

``vector_fastpath`` (class attribute, default ``False`` on
:class:`~repro.routing.base.RoutingProtocol`)
    Declares that the protocol neither reads the online contact history
    nor implements the ``on_contact_start``/``on_contact_end`` hooks, so
    the engine may skip history recording and the per-contact hook
    calls entirely.  This is where most of the per-event win comes from —
    a 10k-node trace has hundreds of thousands of contact events and the
    vast majority of them move no messages.

``vector_approvals(carrier, peer, messages, now)``
    The batch twin of ``should_forward``: one verdict per offered message,
    evaluated against the protocol's *current* state.  The engine only
    calls it for candidates that already survived the bitmask screen
    (carrier holds a live copy, the peer never held one), and it must
    return exactly what ``should_forward`` would have returned for each
    message in order — the engine charges the same number of forwarding
    decisions/approvals either way, so the resource counters are the same
    bit for bit on the fast path and the per-message path.

Batch evaluation is sound for these protocols because judging one message
never changes the verdict of another in the same batch: ``on_forwarded``
(where budgets are spent and tokens move) only touches the state of the
message that actually moved, which appears exactly once per batch (with
bandwidth or channel faults no copy moves during a batch at all).  A
protocol whose verdicts couple across messages must not implement
``vector_approvals``; declaring only ``vector_fastpath`` (or nothing at
all) keeps it on the scalar path.
"""

from __future__ import annotations

from typing import List, Sequence

from ..contacts import NodeId
from ..forwarding.messages import Message

__all__ = ["VectorProtocol"]


class VectorProtocol:
    """Mixin marking a protocol as capable of the engine's fast path.

    Subclasses implement :meth:`vector_approvals`; see the module
    docstring for the contract.  The mixin is deliberately independent of
    :class:`~repro.routing.base.RoutingProtocol` so wrapper classes (the
    paper-algorithm compatibility layer) can duck-type the same surface.
    """

    #: The engine may skip history recording and contact hooks.
    vector_fastpath: bool = True

    def vector_approvals(self, carrier: NodeId, peer: NodeId,
                         messages: Sequence[Message],
                         now: float) -> List[bool]:
        """One ``should_forward`` verdict per message, batch-evaluated."""
        raise NotImplementedError
