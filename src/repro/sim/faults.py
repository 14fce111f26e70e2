"""Fault-model specs: lossy/latency channels and node churn.

The paper's forwarding results assume perfect contacts, but the iMote
traces they rest on were collected over radios that drop frames and over
nodes that crash and reboot.  This module declares the two fault models the
DES engine (:mod:`repro.sim.engine`) can apply on top of a contact trace:

:class:`ChannelSpec`
    A per-contact radio channel — the ``bw/loss/delay/jitter`` shape PONS
    attaches to its ``CoreContact`` — minus bandwidth, which
    :class:`~repro.sim.engine.ResourceConstraints` already owns.  Every
    transfer independently fails with probability ``loss``; a lost transfer
    is retransmitted with capped exponential backoff while the contact
    lasts.  Successful receptions arrive after ``delay`` plus a uniform
    ``[0, jitter)`` draw (one-way light time + processing noise).

:class:`ChurnSpec`
    A seeded node crash/reboot schedule.  Crashes arrive per node as a
    Poisson process of rate ``crash_rate``; each crash wipes the node's
    buffer and truncates its open contacts (protocols observe the early
    contact end), and the node rejoins after an exponentially distributed
    downtime.

Both are :class:`~repro.scenario.base.ConstraintSpec` kinds, so they
serialize inside scenario/experiment JSON exactly like every other spec,
and both draw all randomness through :func:`repro.synth.seeding.derive_rng`
("channel" / "churn" labels off the run's master seed), so fault
realisations are byte-reproducible across serial, parallel and resumed
execution.  A *null* spec (all rates zero) applies no faults at all — the
engine takes the same path as without the spec and stays
delivery-stream-identical to such a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Hashable, Iterable, List, Optional, Tuple

from ..scenario.base import ConstraintSpec, register_spec
from ..synth.seeding import derive_rng

__all__ = ["ChannelSpec", "ChurnSpec"]


@register_spec
@dataclass(frozen=True)
class ChannelSpec(ConstraintSpec):
    """A lossy, latency-aware radio channel applied to every contact.

    Registered as the ``"channel"`` constraint-spec kind; attached to a
    scenario through ``ResourceConstraints(channel=...)``.

    Parameters
    ----------
    loss:
        Probability in ``[0, 1)`` that one transfer attempt is lost in
        transit.  Each attempt draws independently.
    delay:
        Fixed propagation delay in seconds (one-way light time) added to
        every successful reception.
    jitter:
        Width of the uniform ``[0, jitter)`` random extra delay added on
        top of ``delay``.
    retx_base:
        Base backoff in seconds before the first retransmission of a lost
        transfer.  Subsequent retransmissions double it.
    retx_cap:
        Upper bound on the backoff, i.e. backoff number *n* waits
        ``min(retx_base * 2**n, retx_cap)`` seconds.
    retx_limit:
        Maximum retransmissions per (message, carrier, peer) attempt run
        (``None`` = keep trying while the contact lasts).  The budget
        resets once the transfer succeeds or gives up.
    """

    kind: ClassVar[str] = "channel"

    loss: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    retx_base: float = 1.0
    retx_cap: float = 30.0
    retx_limit: Optional[int] = None

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be a probability in [0, 1)")
        if not self.delay >= 0:
            raise ValueError("delay must be >= 0")
        if not self.jitter >= 0:
            raise ValueError("jitter must be >= 0")
        if not self.retx_base > 0:
            raise ValueError("retx_base must be positive")
        if not self.retx_cap >= self.retx_base:
            raise ValueError("retx_cap must be >= retx_base")
        if self.retx_limit is not None and self.retx_limit < 0:
            raise ValueError("retx_limit must be >= 0 or None")

    @property
    def is_null(self) -> bool:
        """True when the channel is perfect and the engine may skip it."""
        return self.loss == 0.0 and self.delay == 0.0 and self.jitter == 0.0

    def backoff(self, failures: int) -> float:
        """Seconds to wait before retransmission number ``failures``."""
        return min(self.retx_base * (2.0 ** failures), self.retx_cap)


@register_spec
@dataclass(frozen=True)
class ChurnSpec(ConstraintSpec):
    """A seeded node crash/reboot schedule.

    Registered as the ``"churn"`` constraint-spec kind; attached to a
    scenario through ``ResourceConstraints(churn=...)``.

    Parameters
    ----------
    crash_rate:
        Crashes per node per second (a Poisson process); ``0`` disables
        churn entirely.
    mean_downtime:
        Mean of the exponentially distributed downtime after each crash.
    max_crashes:
        Optional cap on crashes per node over the whole trace.
    """

    kind: ClassVar[str] = "churn"

    crash_rate: float = 0.0
    mean_downtime: float = 60.0
    max_crashes: Optional[int] = None

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not self.crash_rate >= 0:
            raise ValueError("crash_rate must be >= 0")
        if not self.mean_downtime > 0:
            raise ValueError("mean_downtime must be positive")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ValueError("max_crashes must be >= 0 or None")

    @property
    def is_null(self) -> bool:
        """True when no node ever crashes."""
        return self.crash_rate == 0.0 or self.max_crashes == 0

    def schedule(
        self,
        nodes: Iterable[Hashable],
        duration: float,
        master_seed: Optional[int],
    ) -> Dict[Hashable, List[Tuple[float, float]]]:
        """Per-node ``(down, up)`` windows over ``[0, duration)``.

        Each node draws from its own independent child stream
        (``derive_rng(master_seed, "churn", "node-<label>")``), so the
        schedule does not depend on node iteration order and a ``None``
        master seed is the only way to get an irreproducible one.
        """
        windows: Dict[Hashable, List[Tuple[float, float]]] = {}
        if self.is_null or duration <= 0:
            return windows
        for node in nodes:
            rng = derive_rng(master_seed, "churn", f"node-{node}")
            node_windows: List[Tuple[float, float]] = []
            clock = 0.0
            while True:
                if (self.max_crashes is not None
                        and len(node_windows) >= self.max_crashes):
                    break
                clock += float(rng.exponential(1.0 / self.crash_rate))
                if clock >= duration:
                    break
                down = clock
                clock = down + float(rng.exponential(self.mean_downtime))
                node_windows.append((down, clock))
            if node_windows:
                windows[node] = node_windows
        return windows
