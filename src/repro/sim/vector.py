"""``VectorSimulator``: the one engine under a second name.

The presorted timeline, per-node bitmask offer screen, batched
``vector_approvals`` and hot loop the name stands for are part of
:class:`repro.sim.engine.DesSimulator`.
"""

from __future__ import annotations

from .engine import DesSimulator

__all__ = ["VectorSimulator"]


class VectorSimulator(DesSimulator):
    """:class:`~repro.sim.engine.DesSimulator` under a second name.

    Kept as a distinct class because the end-to-end benchmark imports it
    and wraps its entry points in per-layer spans.
    """
