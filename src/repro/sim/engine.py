"""The forwarding engine: one discrete-event replay for every run.

The paper's Section 6 model replays contacts under idealized assumptions:
infinite buffers, instantaneous bidirectional exchanges, no message expiry.
:class:`DesSimulator` replays that model and relaxes each assumption
independently via :class:`ResourceConstraints`:

* **finite per-node buffers** with a drop policy (:mod:`repro.sim.buffers`);
* **bandwidth-limited contacts** — a transfer of ``size`` bytes over a link
  with ``bandwidth`` bytes/s occupies the link for ``size / bandwidth``
  seconds; transfers on one link serialize; a transfer that does not finish
  before the contact closes carries its partial progress over and resumes
  on the pair's next contact;
* **message TTL** — copies of an expired message are freed everywhere and no
  delivery can happen at or after the expiry instant;
* **channel faults** (:class:`repro.sim.faults.ChannelSpec`) — each transfer
  is lost with a seeded probability and retransmitted with capped
  exponential backoff while the contact lasts; successful receptions arrive
  after a propagation delay plus uniform jitter;
* **node churn** (:class:`repro.sim.faults.ChurnSpec`) — a seeded crash/
  reboot schedule: a crash wipes the node's buffer and truncates its open
  contacts (the protocol's ``on_contact_end`` hook fires early, so stateful
  protocols observe the loss), and a down node neither sends, receives nor
  sources messages until it reboots.

Idealized model
---------------
With every constraint disabled (the default :data:`UNCONSTRAINED`), the
engine replays the paper's idealized model: contact starts < ends <
creations at equal times, in trace/message order; on contact start both
endpoints offer their carried messages; a received copy relays at once
over every active contact (the zero-time cascade).  Delivery sets,
first-delivery times, hop counts, tie order and copy counts equal the
frozen golden streams of ``tests/golden/delivery_streams.json``
(``tests/test_golden_streams.py``).

Design
------
Every event but transfer completions and retransmissions is known before
the run: one presorted :class:`~repro.sim.events.Timeline` holds them, and
only those two go on a small heap.  Per-node ``carried`` and ``ever_held``
bitmasks over messages screen each contact's offers with
``carried[a] & ~(ever_held[b] | stopped)``, so a contact that can move
nothing costs a few integer operations; protocols mixing in
:class:`~repro.routing.vector.VectorProtocol` judge the surviving offers as
one batch; infinite buffers keep only occupancy counters.  A hot loop with
the contact bookkeeping inlined replays the timeline when the protocol is
fast-path, no tracer or telemetry is attached and no event can be pushed
or cut short; every other run goes through one general loop.

Semantics choices under constraints (documented, deterministic):

* A node that ever held a copy never receives it again — even if the copy
  was evicted (the ``ever_held`` relation; it prevents buffer-drop
  ping-pong).  A node whose buffer *rejected* a copy
  may receive it later.
* Delivery is reception at the destination radio: it always succeeds, even
  when the destination's buffer cannot store a relaying copy.
* An in-flight (bandwidth-delayed) transfer completes even if the carrier
  evicted its copy meanwhile, unless the message expired or was already
  received by the peer — then the bytes were wasted (counted, dropped).
* Forwarding decisions are made when a transfer is scheduled, at the
  current contact history.

Fault semantics (documented, deterministic — all draws flow through
:func:`repro.synth.seeding.derive_rng` off the ``seed`` argument, labels
``"channel"`` and ``"churn"``, so serial, parallel and resumed runs make
byte-identical draws):

* A loss draw happens once per launched transfer, in event order.  A lost
  transfer still spends its bytes and link time; retransmission *n* waits
  ``min(retx_base * 2**n, retx_cap)`` seconds and is only scheduled while
  the contact is still open (and within ``retx_limit``).  Each
  retransmission re-evaluates the forwarding decision at the then-current
  history.
* Delayed receptions complete even if the contact closed meanwhile (the
  bytes were on the air), but are cancelled if the receiver is down, the
  message expired or was already delivered (in stop mode).
* A crash truncates every open contact of the node: the bookkeeping and the
  protocol's ``on_contact_end`` fire at crash time and the trace's own later
  ``CONTACT_END`` for those contacts is suppressed.  A contact that starts
  while either endpoint is down is skipped entirely.  A node that lost its
  copy to a crash never re-receives that message (the ``ever_held``
  relation, as with evictions).  A message created at a down source counts
  as a source rejection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..contacts import ContactTrace
from ..core.fastpath import NodeInterner
from ..forwarding.algorithms import ForwardingAlgorithm
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message
from ..forwarding.results import DeliveryOutcome, SimulationResult
from ..routing.base import RoutingProtocol
from ..routing.compat import ensure_protocol
from ..scenario.base import ConstraintSpec, register_spec
from ..synth.seeding import derive_rng
from .buffers import DROP_OLDEST, DROP_POLICIES, BufferEntry, NodeBuffer
from .events import (
    CONTACT_END,
    CONTACT_START,
    CREATE,
    EXPIRE,
    NODE_DOWN,
    NODE_UP,
    RETRANSMIT,
    TRANSFER_DONE,
    Timeline,
)
from .faults import ChannelSpec, ChurnSpec

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "ResourceConstraints",
    "UNCONSTRAINED",
    "ResourceStats",
    "ConstrainedSimulationResult",
    "DesSimulator",
]

#: :class:`ResourceConstraints` axes a sweep/experiment grid can vary.
SWEEPABLE_PARAMETERS = ("buffer_capacity", "bandwidth", "ttl", "message_size")

#: Human-readable telemetry labels for the event kinds of the main loop.
_KIND_NAMES = {
    CONTACT_START: "contact_start",
    CONTACT_END: "contact_end",
    CREATE: "create",
    TRANSFER_DONE: "transfer_done",
    RETRANSMIT: "retransmit",
    NODE_DOWN: "node_down",
    NODE_UP: "node_up",
    EXPIRE: "expire",
}


@register_spec
@dataclass(frozen=True)
class ResourceConstraints(ConstraintSpec):
    """Resource limits applied by :class:`DesSimulator`.

    Registered as the ``"resource"`` constraint-spec kind, so constraint
    sets round-trip through JSON scenario files (``to_dict``/``from_dict``
    come from :class:`repro.scenario.base.SpecBase`; a scenario dict may
    omit the ``kind`` since this is the default constraint spec).

    Every field defaults to "unlimited"; enable constraints independently.

    Parameters
    ----------
    buffer_capacity:
        Per-node buffer capacity in bytes (``None`` = infinite).
    bandwidth:
        Link bandwidth in bytes/second (``None`` = instantaneous transfers).
        Bytes transferable during one contact = bandwidth × contact duration.
    ttl:
        Default time-to-live in seconds applied to messages whose own
        ``ttl`` is ``None`` (``None`` = no expiry).  A message's explicit
        ``ttl`` always wins.
    message_size:
        When set, overrides every message's ``size`` (bytes) — convenient
        for sweeping load without regenerating workloads.
    drop_policy:
        Buffer eviction policy: ``"drop-oldest"`` (default),
        ``"drop-youngest"`` or ``"drop-largest"``.
    channel:
        Optional :class:`~repro.sim.faults.ChannelSpec` — per-contact loss
        probability, propagation delay and jitter, with retransmission
        backoff.  ``None`` (and a null spec) means a perfect channel.
    churn:
        Optional :class:`~repro.sim.faults.ChurnSpec` — a seeded node
        crash/reboot schedule.  ``None`` (and a null spec) means no churn.
    """

    kind: ClassVar[str] = "resource"

    buffer_capacity: Optional[float] = None
    bandwidth: Optional[float] = None
    ttl: Optional[float] = None
    message_size: Optional[float] = None
    drop_policy: str = DROP_OLDEST
    channel: Optional[ChannelSpec] = None
    churn: Optional[ChurnSpec] = None

    def __post_init__(self) -> None:
        # written so that NaN fails too: a NaN time or rate would break
        # the total order the event timeline sorts by
        for name in ("buffer_capacity", "bandwidth", "ttl", "message_size"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive or None")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(f"unknown drop policy {self.drop_policy!r}; "
                             f"known: {', '.join(DROP_POLICIES)}")
        if self.channel is not None and not isinstance(self.channel,
                                                       ChannelSpec):
            raise ValueError(f"channel must be a ChannelSpec or None, "
                             f"got {self.channel!r}")
        if self.churn is not None and not isinstance(self.churn, ChurnSpec):
            raise ValueError(f"churn must be a ChurnSpec or None, "
                             f"got {self.churn!r}")

    @property
    def is_unconstrained(self) -> bool:
        """True when the engine degenerates to the idealized simulator."""
        return (self.buffer_capacity is None and self.bandwidth is None
                and self.ttl is None and self.active_channel is None
                and self.active_churn is None)

    @property
    def active_channel(self) -> Optional[ChannelSpec]:
        """The channel spec if it actually applies faults, else ``None``."""
        if self.channel is not None and not self.channel.is_null:
            return self.channel
        return None

    @property
    def active_churn(self) -> Optional[ChurnSpec]:
        """The churn spec if it actually applies faults, else ``None``."""
        if self.churn is not None and not self.churn.is_null:
            return self.churn
        return None

    def to_dict(self) -> Dict[str, object]:
        """Like :meth:`SpecBase.to_dict`, but omitting absent fault specs
        so pre-fault scenario JSON (and its golden fixtures) round-trips
        byte-identically."""
        payload = super().to_dict()
        if self.channel is None:
            payload.pop("channel", None)
        if self.churn is None:
            payload.pop("churn", None)
        return payload

    def effective_size(self, message: Message) -> float:
        return self.message_size if self.message_size is not None else message.size

    def effective_expiry(self, message: Message) -> Optional[float]:
        if message.ttl is not None:
            return message.creation_time + message.ttl
        if self.ttl is not None:
            return message.creation_time + self.ttl
        return None

    def with_overrides(self, **changes) -> "ResourceConstraints":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)


#: The idealized configuration: the paper's Section 6.1 model.
UNCONSTRAINED = ResourceConstraints()


def validate_messages(trace: ContactTrace, messages: Sequence[Message]) -> None:
    """Reject a workload the engines cannot replay faithfully.

    Every source and destination must be a node of *trace*, and message ids
    must be unique: the engines key copies and deliveries by id, so a
    repeated id would let one message overwrite another's state.
    """
    nodes = trace.nodes
    seen: Set[int] = set()
    for message in messages:
        if message.source not in nodes:
            raise ValueError(
                f"message {message.id}: unknown source {message.source}")
        if message.destination not in nodes:
            raise ValueError(
                f"message {message.id}: unknown destination "
                f"{message.destination}")
        if message.id in seen:
            raise ValueError(f"message {message.id}: duplicate message id")
        seen.add(message.id)


@dataclass
class ResourceStats:
    """Resource-related counters of one :class:`DesSimulator` run."""

    copies_sent: int = 0
    bytes_sent: float = 0.0
    buffer_evictions: int = 0
    buffer_rejections: int = 0
    source_rejections: int = 0
    expired_messages: int = 0
    expired_copies: int = 0
    partial_transfers: int = 0
    resumed_transfers: int = 0
    cancelled_transfers: int = 0
    peak_buffer_occupancy: float = 0.0
    forwarding_decisions: int = 0
    forwarding_approvals: int = 0
    lost_transfers: int = 0
    retransmissions: int = 0
    node_crashes: int = 0
    churn_dropped_copies: int = 0
    truncated_contacts: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Every counter, in field order."""
        return asdict(self)


@dataclass
class ConstrainedSimulationResult(SimulationResult):
    """A :class:`SimulationResult` plus resource accounting.

    ``telemetry`` is an optional run-telemetry payload (the
    :meth:`repro.obs.EngineTelemetry.as_dict` of the producing run) the
    experiment worker attaches when telemetry collection is on.  It is
    diagnostic only: excluded from equality and from the persisted record
    encoding, so decoded store records still compare equal to fresh runs.
    """

    constraints: ResourceConstraints = UNCONSTRAINED
    stats: ResourceStats = field(default_factory=ResourceStats)
    telemetry: Optional[Dict[str, object]] = field(default=None, repr=False,
                                                   compare=False)

    def summary(self) -> Dict[str, object]:
        """The base summary extended with the resource counters."""
        merged = super().summary()
        merged.update(self.stats.as_dict())
        return merged


class DesSimulator:
    """Event-driven replay of a trace under resource constraints.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    algorithm:
        A :class:`~repro.forwarding.ForwardingAlgorithm` (wrapped by
        :func:`~repro.routing.ensure_protocol`) or a stateful
        :class:`~repro.routing.RoutingProtocol`.
    constraints:
        The resource limits; defaults to :data:`UNCONSTRAINED`, the paper's
        idealized model (the semantics of
        :class:`~repro.forwarding.ForwardingSimulator`).
    copy_semantics, stop_on_delivery:
        As in :class:`~repro.forwarding.ForwardingSimulator`.
    seed:
        Master seed for the fault models (loss/jitter draws and the churn
        schedule derive their independent streams from it via
        :func:`~repro.synth.seeding.derive_rng`).  Irrelevant without
        active faults; ``None`` with faults means irreproducible draws.
    tracer:
        Optional structured-event probe (anything with
        ``emit(event, time, **fields)``, e.g. a
        :class:`repro.obs.RecordingTracer`).  ``None`` (the default)
        disables tracing entirely — every probe site is a single
        ``is not None`` check, and the simulated behaviour never depends
        on the tracer.  Emissions are buffered through
        :class:`repro.obs.BufferedTracer` and reach *tracer* in emit order
        by the end of the run.
    telemetry:
        Optional :class:`repro.obs.EngineTelemetry` collecting event
        counters and buffer-occupancy samples for ``metrics.json``.
    """

    def __init__(
        self,
        trace: ContactTrace,
        algorithm: Union[ForwardingAlgorithm, RoutingProtocol],
        constraints: ResourceConstraints = UNCONSTRAINED,
        copy_semantics: str = "copy",
        stop_on_delivery: bool = True,
        seed: Optional[int] = None,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        if copy_semantics not in ("copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")
        self._trace = trace
        self._protocol = ensure_protocol(algorithm)
        self._constraints = constraints
        self._copy = copy_semantics == "copy"
        self._stop_on_delivery = stop_on_delivery
        self._seed = seed
        self._tracer = tracer
        self._telemetry = telemetry
        self._channel = constraints.active_channel
        self._churn = constraints.active_churn
        # transfers take link time or cross a channel: receptions become
        # dynamic TRANSFER_DONE (and RETRANSMIT) events
        self._linked = (constraints.bandwidth is not None
                        or self._channel is not None)

    @property
    def constraints(self) -> ResourceConstraints:
        return self._constraints

    # ------------------------------------------------------------------
    def run(self, messages: Sequence[Message]) -> ConstrainedSimulationResult:
        """Simulate the delivery of *messages* under the constraints."""
        validate_messages(self._trace, messages)
        protocol = self._protocol
        protocol.prepare(self._trace)
        constraints = self._constraints
        self._fastpath = bool(getattr(protocol, "vector_fastpath", False))
        self._approvals_fn = (getattr(protocol, "vector_approvals", None)
                              if self._fastpath else None)

        interner = NodeInterner(self._trace.nodes)
        index_of = self._index_of = interner.index_of
        num_nodes = self._num_nodes = len(interner)
        self._node_of = interner.nodes
        self._history = OnlineContactHistory()
        self._stats = stats = ResourceStats()

        # messages are interned to single bits, the repro.core.fastpath
        # idiom; containers stay keyed by message id so that every set
        # iteration order — hence the delivery stream — is the frozen one
        self._messages = message_list = list(messages)
        self._by_id = {m.id: m for m in message_list}
        self._bit_of = {m.id: 1 << i for i, m in enumerate(message_list)}
        self._size_of = {m.id: constraints.effective_size(m)
                         for m in message_list}
        self._dest_of = {m.id: index_of(m.destination) for m in message_list}
        self._active_counts: Dict[int, int] = {}
        self._active_peers: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._carried: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._holdings: Dict[int, Dict[int, Tuple[float, int]]] = {}
        self._delivered: Dict[int, Tuple[float, int]] = {}
        # per-node bitmasks over message indices: live copies carried and
        # messages ever held; plus the messages that can no longer move
        # (expired, or delivered in stop mode) and those that launched
        self._carried_bits = [0] * num_nodes
        self._ever_bits = [0] * num_nodes
        self._stop_bits = 0
        self._launched_bits = 0
        # infinite buffers admit everything and never evict, so the only
        # observable buffer state is per-node occupancy and its peak: two
        # float lists updated with the same +=/-=/max sequence NodeBuffer
        # would apply, skipping the BufferEntry allocations entirely
        self._fastbuf = constraints.buffer_capacity is None
        self._buf_used = [0.0] * num_nodes
        self._buf_peak = [0.0] * num_nodes
        self._buffers = [] if self._fastbuf else [
            NodeBuffer(capacity=constraints.buffer_capacity,
                       policy=constraints.drop_policy)
            for _ in range(num_nodes)]
        self._admission_sequence = 0
        # link state: end of the latest open contact per pair, time until
        # which each pair's link is busy, bytes sent in past contacts and
        # hop counts of in-flight transfers, both per (message, carrier,
        # peer); consecutive losses and pending retransmissions, likewise
        self._active_until: Dict[int, float] = {}
        self._link_busy: Dict[int, float] = {}
        self._progress: Dict[Tuple[int, int, int], float] = {}
        self._in_flight: Dict[Tuple[int, int, int], int] = {}
        self._retx_failures: Dict[Tuple[int, int, int], int] = {}
        self._pending_retx: Set[Tuple[int, int, int]] = set()
        self._channel_rng = (derive_rng(self._seed, "channel")
                             if self._channel is not None else None)
        # churn: nodes currently crashed; open contacts (in opening order)
        # and contacts whose CONTACT_END must be skipped (truncated by a
        # crash, or never observed because an endpoint was down)
        self._down: Set[int] = set()
        self._open: Dict[int, Tuple[int, int]] = {}
        self._severed: Set[int] = set()

        tracer = self._tracer
        buffered = self._run_tracer = None
        if tracer is not None:
            from ..obs.tracing import BufferedTracer

            buffered = self._run_tracer = BufferedTracer(tracer)
        timeline = self._timeline = self._build_timeline(message_list)
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.begin(engine="des", algorithm=protocol.name)
        try:
            if (self._fastpath and buffered is None and telemetry is None
                    and not self._linked and self._churn is None):
                self._hot_loop(timeline.columns)
            else:
                self._general_loop(timeline, telemetry)
        finally:
            if buffered is not None:
                # drain into the caller's tracer; closing it remains the
                # caller's responsibility
                buffered.flush()
        if telemetry is not None:
            telemetry.finish()

        outcomes = []
        delivered = self._delivered
        for message in message_list:
            delivery_time, hops = delivered.get(message.id, (None, None))
            outcomes.append(DeliveryOutcome(
                message=message, delivered=message.id in delivered,
                delivery_time=delivery_time, hop_count=hops))
        stats.peak_buffer_occupancy = max(
            self._buf_peak if self._fastbuf
            else (buffer.peak_used for buffer in self._buffers), default=0.0)
        self._timeline = None
        return ConstrainedSimulationResult(
            algorithm=protocol.name, trace_name=self._trace.name,
            outcomes=outcomes, copies_sent=stats.copies_sent,
            constraints=constraints, stats=stats)

    # ------------------------------------------------------------------
    # the timeline and the two dispatch loops
    # ------------------------------------------------------------------
    def _build_timeline(self, messages: List[Message]) -> Timeline:
        """Every static event of the run, as one presorted :class:`Timeline`.

        Operands per kind: contact start/end carry the interned endpoints
        ``a <= b`` and the contact's trace index; creation and expiry the
        message's index; crash and reboot the interned node.  Within each
        kind, sequence order is trace order, message order and churn
        schedule order: the numbering the golden streams pin.
        """
        starts, ends, a_labels, b_labels = self._trace.as_arrays()
        num_contacts = len(starts)
        node_array = np.asarray(self._node_of)
        if (num_contacts and node_array.dtype.kind in "iuf"
                and a_labels.dtype.kind in "iuf"):
            # numeric labels: intern both endpoint columns in two
            # vectorized binary searches over the sorted node table
            a_index = np.searchsorted(node_array, a_labels)
            b_index = np.searchsorted(node_array, b_labels)
        else:
            index_of = self._index_of
            a_index = np.fromiter((index_of(label) for label in a_labels),
                                  dtype=np.int64, count=num_contacts)
            b_index = np.fromiter((index_of(label) for label in b_labels),
                                  dtype=np.int64, count=num_contacts)
        until = np.maximum(ends, starts)
        if self._linked:
            self._until = until.tolist()
        columns: Tuple[list, ...] = ([], [], [], [], [])

        def add(kind, times, a, b=None, c=None):
            count = len(times)
            unused = np.zeros(count, dtype=np.int64)
            columns[0].append(np.asarray(times, dtype=np.float64))
            columns[1].append(np.full(count, kind, dtype=np.int64))
            columns[2].append(np.asarray(a, dtype=np.int64))
            columns[3].append(unused if b is None else b)
            columns[4].append(unused if c is None else c)

        contact_index = np.arange(num_contacts, dtype=np.int64)
        add(CONTACT_START, starts, a_index, b_index, contact_index)
        add(CONTACT_END, until, a_index, b_index, contact_index)
        add(CREATE, [m.creation_time for m in messages], range(len(messages)))
        expiries = [self._constraints.effective_expiry(m) for m in messages]
        expiring = [index for index, expiry in enumerate(expiries)
                    if expiry is not None]
        add(EXPIRE, [expiries[index] for index in expiring], expiring)
        if self._churn is not None:
            schedule = self._churn.schedule(self._trace.nodes,
                                            self._trace.duration, self._seed)
            windows = [(self._index_of(label), down, up)
                       for label, spans in schedule.items()
                       for down, up in spans]
            nodes = [node for node, _, _ in windows]
            add(NODE_DOWN, [down for _, down, _ in windows], nodes)
            add(NODE_UP, [up for _, _, up in windows], nodes)
        return Timeline(*(np.concatenate(column) for column in columns))

    def _hot_loop(self, columns) -> None:
        """The dispatch loop for the common case: fast-path protocol, no
        tracer, no telemetry, and no event that could be pushed or cut a
        contact short (no bandwidth, channel or churn).

        Contact bookkeeping is inlined (no per-event method call, state
        containers bound to locals) so the millions of screened-out
        contact events of a saturated city-scale run cost a handful of
        interpreter ops each.  It does exactly what :meth:`_general_loop`
        and the contact handlers do under those preconditions.
        """
        counts = self._active_counts
        counts_get = counts.get
        counts_pop = counts.pop
        active_peers = self._active_peers
        carried_bits = self._carried_bits
        ever_bits = self._ever_bits
        num_nodes = self._num_nodes
        offer = self._offer
        on_create = self._on_create
        on_expire = self._on_expire
        for time, kind, a, b, _ in zip(*columns):
            if kind == CONTACT_START:
                pair = a * num_nodes + b
                counts[pair] = counts_get(pair, 0) + 1
                active_peers[a].add(b)
                active_peers[b].add(a)
                # the second screen rereads the stop mask because the
                # first direction may deliver
                cand = carried_bits[a] & ~(ever_bits[b] | self._stop_bits)
                if cand:
                    offer(a, b, time, cand)
                cand = carried_bits[b] & ~(ever_bits[a] | self._stop_bits)
                if cand:
                    offer(b, a, time, cand)
            elif kind == CONTACT_END:
                pair = a * num_nodes + b
                remaining = counts_get(pair, 0) - 1
                if remaining <= 0:
                    counts_pop(pair, None)
                    active_peers[a].discard(b)
                    active_peers[b].discard(a)
                else:
                    counts[pair] = remaining
            elif kind == CREATE:
                on_create(time, a)
            else:  # EXPIRE
                on_expire(time, a)

    def _general_loop(self, timeline: Timeline, telemetry) -> None:
        """The dispatch loop for everything else, over the merged timeline."""
        handlers = {
            CONTACT_START: self._on_contact_start,
            CONTACT_END: self._on_contact_end,
            CREATE: self._on_create,
            EXPIRE: self._on_expire,
            TRANSFER_DONE: self._on_transfer_done,
            RETRANSMIT: self._on_retransmit,
            NODE_DOWN: self._on_node_down,
            NODE_UP: self._on_node_up,
        }
        # only bandwidth and channel runs push events; the others walk the
        # static columns without the merge
        linked = self._linked
        events = iter(timeline) if linked else zip(*timeline.columns)
        remaining = len(timeline)
        for time, kind, a, b, c in events:
            handlers[kind](time, a, b, c)
            if telemetry is None:
                continue
            remaining = len(timeline) if linked else remaining - 1
            if telemetry.event(_KIND_NAMES[kind], remaining):
                telemetry.sample_buffers(
                    time, sum(self._buf_used) if self._fastbuf
                    else sum(buffer.used for buffer in self._buffers))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_contact_start(self, time: float, a: int, b: int,
                          contact: int) -> None:
        if self._churn is not None:
            down = self._down
            if a in down or b in down:
                # a contact is only ever observed from its start: with an
                # endpoint down, neither the protocols nor the history see
                # it, and its CONTACT_END is skipped via the severed mark
                self._severed.add(contact)
                self._stats.truncated_contacts += 1
                return
            self._open[contact] = (a, b)
        if self._run_tracer is not None:
            self._run_tracer.emit("contact_start", time,
                                  a=self._node_of[a], b=self._node_of[b])
        if not self._fastpath:
            node_of = self._node_of
            self._history.record(node_of[a], node_of[b], time)
            self._protocol.on_contact_start(node_of[a], node_of[b], time,
                                            self._history)
        pair = a * self._num_nodes + b
        counts = self._active_counts
        counts[pair] = counts.get(pair, 0) + 1
        self._active_peers[a].add(b)
        self._active_peers[b].add(a)
        if self._linked:
            until = self._until[contact]
            existing = self._active_until.get(pair)
            if existing is None or until > existing:
                self._active_until[pair] = until
        # both endpoints offer each other their carried messages; the
        # second screen rereads the stop mask because the first direction
        # may deliver (_offer documents why skipping is counter-neutral)
        carried_bits = self._carried_bits
        ever_bits = self._ever_bits
        cand = carried_bits[a] & ~(ever_bits[b] | self._stop_bits)
        if cand:
            self._offer(a, b, time, cand)
        cand = carried_bits[b] & ~(ever_bits[a] | self._stop_bits)
        if cand:
            self._offer(b, a, time, cand)

    def _on_contact_end(self, time: float, a: int, b: int, contact: int,
                        truncated: bool = False) -> None:
        """Close a contact at its trace end, or early (*truncated*) when a
        crash cuts it short."""
        if self._churn is not None:
            if contact in self._severed:
                # truncated at a crash (bookkeeping and the protocol hook
                # fired then) or never observed (an endpoint was down at
                # the start)
                self._severed.discard(contact)
                return
            del self._open[contact]
            if truncated:
                self._severed.add(contact)
                self._stats.truncated_contacts += 1
        pair = a * self._num_nodes + b
        counts = self._active_counts
        remaining = counts.get(pair, 0) - 1
        if remaining <= 0:
            counts.pop(pair, None)
            self._active_peers[a].discard(b)
            self._active_peers[b].discard(a)
            if self._linked:
                del self._active_until[pair]
        else:
            counts[pair] = remaining
        node_of = self._node_of
        if self._run_tracer is not None:
            flag = {"truncated": True} if truncated else {}
            self._run_tracer.emit("contact_end", time, a=node_of[a],
                                  b=node_of[b], **flag)
        if not self._fastpath:
            self._protocol.on_contact_end(node_of[a], node_of[b], time,
                                          self._history)

    def _on_create(self, time: float, index: int, *_) -> None:
        message = self._messages[index]
        message_id = message.id
        tracer = self._run_tracer
        if tracer is not None:
            tracer.emit("create", time, msg=message_id, src=message.source,
                        dst=message.destination)
        source = self._index_of(message.source)
        if self._down and source in self._down:
            # a down source never emits the message — it counts as a
            # source rejection, like a full source buffer
            self._reject_source(message, time)
            return
        self._protocol.on_message_created(message, time)
        admitted, evicted = self._admit(source, message_id, time)
        if not admitted:
            self._reject_source(message, time)
            return
        bit = self._bit_of[message_id]
        self._holdings[message_id] = {source: (time, 0)}
        # carried-set mutations keep their historical order (add before
        # evicting victims): set iteration order downstream depends on the
        # mutation history, and _offer walks that order
        self._carried[source].add(message_id)
        self._carried_bits[source] |= bit
        self._ever_bits[source] |= bit
        self._launched_bits |= bit
        if evicted:
            self._drop_evicted(source, evicted, time)
        self._cascade(message, source, time)

    def _reject_source(self, message: Message, time: float) -> None:
        self._stats.source_rejections += 1
        if self._run_tracer is not None:
            self._run_tracer.emit("drop", time, msg=message.id,
                                  node=message.source,
                                  reason="source_rejected")

    def _on_expire(self, time: float, index: int, *_) -> None:
        message_id = self._messages[index].id
        bit = self._bit_of[message_id]
        self._stop_bits |= bit
        holders = self._holdings.pop(message_id, None)
        if self._run_tracer is not None:
            self._run_tracer.emit("expire", time, msg=message_id,
                                  copies=len(holders) if holders else 0)
        if holders:
            for node in holders:
                self._forget(node, message_id, bit)
            self._stats.expired_copies += len(holders)
        # a message rejected at its source buffer never existed — it counts
        # as a source rejection, not additionally as an expiry
        if message_id not in self._delivered and self._launched_bits & bit:
            self._stats.expired_messages += 1

    def _on_node_down(self, time: float, node: int, *_) -> None:
        tracer = self._run_tracer
        node_of = self._node_of
        self._down.add(node)
        self._stats.node_crashes += 1
        if tracer is not None:
            tracer.emit("crash", time, node=node_of[node])
        # truncate every open contact touching the node: the pair
        # bookkeeping and the protocol's contact-end hook run now, and the
        # trace's own CONTACT_END for these contacts is suppressed
        for contact, (a, b) in list(self._open.items()):
            if a == node or b == node:
                self._on_contact_end(time, a, b, contact, truncated=True)
        # the crash wipes the node's buffer: every carried copy is lost
        for message_id in list(self._carried[node]):
            self._drop_copy(node, message_id)
            self._stats.churn_dropped_copies += 1
            if tracer is not None:
                tracer.emit("drop", time, msg=message_id,
                            node=node_of[node], reason="churn")

    def _on_node_up(self, time: float, node: int, *_) -> None:
        # the node rejoins empty; contacts that started during the outage
        # stay unobserved for their remainder (a contact is only ever
        # entered at its start event)
        self._down.discard(node)
        if self._run_tracer is not None:
            self._run_tracer.emit("reboot", time, node=self._node_of[node])

    def _on_retransmit(self, time: float, message: Message, carrier: int,
                       peer: int) -> None:
        """A lost transfer's backoff expired: try again, if still sane."""
        self._pending_retx.discard((message.id, carrier, peer))
        # _attempt re-checks every guard (copy still held, contact still
        # open, endpoints up, not delivered/expired) and re-evaluates the
        # forwarding decision at the current history
        self._attempt(message, carrier, peer, time)

    def _on_transfer_done(self, time: float, message: Message, carrier: int,
                          peer: int) -> None:
        """A bandwidth-delayed transfer finished moving its last byte."""
        key = (message.id, carrier, peer)
        hops = self._in_flight.pop(key)
        self._progress.pop(key, None)
        self._retx_failures.pop(key, None)
        # The bytes are already on the air when the carrier evicts its copy,
        # so eviction does not cancel the transfer; expiry, a completed
        # delivery (in stop mode), a duplicate reception and a crashed
        # receiver do.
        bit = self._bit_of[message.id]
        if ((self._stop_bits | self._ever_bits[peer]) & bit
                or peer in self._down):
            self._stats.cancelled_transfers += 1
            if self._run_tracer is not None:
                self._run_tracer.emit("drop", time, msg=message.id,
                                      node=self._node_of[peer],
                                      reason="cancelled")
            return
        self._hand_over(message, carrier, peer, time, hops)

    # ------------------------------------------------------------------
    # the exchange path
    # ------------------------------------------------------------------
    def _offer(self, carrier: int, peer: int, time: float, cand: int) -> None:
        """One direction of a contact's exchange, bitmask-screened.

        *cand* is ``carried[carrier] & ~(ever_held[peer] | stopped)``,
        computed (and found non-zero) by the caller.  The screen removes
        exactly the offers :meth:`_attempt`'s own guards reject (no live
        copy at the carrier, peer already ever held the message, message
        stopped/expired), so skipping them changes neither the delivery
        stream nor the decision counters.  The candidate mask is a
        snapshot taken once per direction; batch soundness of that
        snapshot is argued in :mod:`repro.routing.vector`.
        """
        bit_of = self._bit_of
        by_id = self._by_id
        batch = [by_id[mid] for mid in list(self._carried[carrier])
                 if bit_of[mid] & cand]
        approvals_fn = self._approvals_fn
        if approvals_fn is None:
            for message in batch:
                self._attempt(message, carrier, peer, time)
            return
        node_of = self._node_of
        verdicts = approvals_fn(node_of[carrier], node_of[peer], batch, time)
        for message, approved in zip(batch, verdicts):
            self._attempt(message, carrier, peer, time, approved=approved)

    def _attempt(self, message: Message, carrier: int, peer: int,
                 time: float, cascade: bool = True,
                 approved: Optional[bool] = None) -> bool:
        """Attempt to move *message* from *carrier* to *peer* at *time*.

        Returns True if the peer received a copy instantly (delivery
        included) — a scheduled, bandwidth-delayed transfer returns False
        because the peer holds nothing yet.  This is the engine's one
        forwarding-decision site: *approved* is the verdict of a batch
        that already judged the offer, and without one the protocol
        decides here.  Either way every non-destination offer that passes
        the guards is one forwarding decision in the stats.
        """
        message_id = message.id
        bit = self._bit_of[message_id]
        if not self._carried_bits[carrier] & bit:
            return False
        down = self._down
        if down and (carrier in down or peer in down):
            return False
        if (self._stop_bits | self._ever_bits[peer]) & bit:
            return False
        receive_time, hops = self._holdings[message_id][carrier]
        if time < receive_time:
            return False
        hops += 1
        if peer != self._dest_of[message_id]:
            stats = self._stats
            stats.forwarding_decisions += 1
            if approved is None:
                node_of = self._node_of
                approved = self._protocol.should_forward(
                    node_of[carrier], node_of[peer], message, time,
                    self._history)
            if not approved:
                return False
            stats.forwarding_approvals += 1
        if self._linked:
            self._schedule_transfer(message, carrier, peer, time, hops)
            return False
        return self._hand_over(message, carrier, peer, time, hops, cascade)

    def _cascade(self, message: Message, start_node: int,
                 time: float) -> None:
        """Zero-time relay over active contacts, bit-screened per peer.

        The traversal is a stack with a ``list(set)`` snapshot per node;
        the inline bit tests skip exactly the attempts :meth:`_attempt`'s
        guards would reject, without touching any counter.
        """
        bit = self._bit_of[message.id]
        ever_bits = self._ever_bits
        active_peers = self._active_peers
        attempt = self._attempt
        frontier = [start_node]
        while frontier:
            node = frontier.pop()
            if self._stop_bits & bit:
                # the message was delivered mid-cascade (stop mode): every
                # remaining attempt would be guard-rejected, count-free
                break
            if not self._carried_bits[node] & bit:
                continue  # hand-off moved the copy on; nothing to offer
            for peer in list(active_peers[node]):
                if ever_bits[peer] & bit:
                    continue
                if attempt(message, node, peer, time, cascade=False):
                    frontier.append(peer)

    def _schedule_transfer(self, message: Message, carrier: int, peer: int,
                           time: float, hops: int) -> None:
        """Queue the transfer on the pair's (possibly faulty) link."""
        key = (message.id, carrier, peer)
        in_flight = self._in_flight
        if key in in_flight or key in self._pending_retx:
            return
        if not self._copy and any(
                flight[0] == message.id and flight[1] == carrier
                for flight in in_flight):
            # hand-off: the carrier's single copy is already committed to an
            # in-flight transfer; offering it to a second peer would fork it
            return
        pair = (carrier * self._num_nodes + peer if carrier <= peer
                else peer * self._num_nodes + carrier)
        contact_end = self._active_until.get(pair)
        if contact_end is None:
            return
        rate = self._constraints.bandwidth
        size = self._size_of[message.id]
        if rate is None:
            # channel faults without a bandwidth model: the link itself is
            # instantaneous (no serialization, no partial progress), only
            # loss and propagation delay apply
            self._launch(message, carrier, peer, time, hops, size, time,
                         contact_end)
            return
        stats = self._stats
        start = max(time, self._link_busy.get(pair, time))
        if start >= contact_end:
            return  # no link capacity left in this contact
        already_sent = self._progress.get(key, 0.0)
        if already_sent > 0.0:
            stats.resumed_transfers += 1
        remaining = max(size - already_sent, 0.0)
        completion = start + remaining / rate
        if completion <= contact_end:
            self._link_busy[pair] = completion
            self._launch(message, carrier, peer, time, hops, remaining,
                         completion, contact_end)
        else:
            sent_now = rate * (contact_end - start)
            self._progress[key] = already_sent + sent_now
            self._link_busy[pair] = contact_end
            stats.bytes_sent += sent_now
            stats.partial_transfers += 1

    def _launch(self, message: Message, carrier: int, peer: int, time: float,
                hops: int, size: float, completion: float,
                contact_end: float) -> None:
        """Put *size* bytes on the air; the channel decides their fate.

        Without a channel spec the reception fires at *completion*.  With
        one, the transfer is lost with probability ``loss`` — the bytes
        and link time are spent either way — and a lost transfer schedules
        a retransmission after a capped exponential backoff, strictly
        within the contact.
        """
        stats = self._stats
        key = (message.id, carrier, peer)
        channel = self._channel
        tracer = self._run_tracer
        node_of = self._node_of
        stats.bytes_sent += size
        if channel is not None and channel.loss > 0.0 \
                and self._channel_rng.random() < channel.loss:
            stats.lost_transfers += 1
            if tracer is not None:
                tracer.emit("loss", time, msg=message.id,
                            src=node_of[carrier], dst=node_of[peer])
            self._progress.pop(key, None)  # the lost bytes resend in full
            failures = self._retx_failures.get(key, 0)
            retry_at = completion + channel.backoff(failures)
            if (channel.retx_limit is None or failures < channel.retx_limit) \
                    and retry_at < contact_end:
                self._retx_failures[key] = failures + 1
                self._pending_retx.add(key)
                stats.retransmissions += 1
                if tracer is not None:
                    tracer.emit("retransmit", time, msg=message.id,
                                src=node_of[carrier], dst=node_of[peer],
                                at=retry_at)
                self._timeline.push(retry_at, RETRANSMIT, message, carrier,
                                    peer)
            else:
                # give up for this contact; a fresh offer (next contact
                # start, or a later cascade) restarts the backoff ladder
                self._retx_failures.pop(key, None)
            return
        self._in_flight[key] = hops
        arrival = completion
        if channel is not None:
            arrival += channel.delay
            if channel.jitter > 0.0:
                arrival += channel.jitter * self._channel_rng.random()
        self._timeline.push(arrival, TRANSFER_DONE, message, carrier, peer)

    # ------------------------------------------------------------------
    # buffers and copies
    # ------------------------------------------------------------------
    def _admit(self, node: int, message_id: int, time: float):
        """Store a copy at *node*: ``(admitted, evicted entries)``."""
        size = self._size_of[message_id]
        if self._fastbuf:
            used = self._buf_used[node] + size
            self._buf_used[node] = used
            if used > self._buf_peak[node]:
                self._buf_peak[node] = used
            return True, None
        sequence = self._admission_sequence
        self._admission_sequence += 1
        return self._buffers[node].admit(BufferEntry(
            message_id=message_id, size=size, receive_time=time,
            sequence=sequence))

    def _hand_over(self, message: Message, carrier: int, peer: int,
                   time: float, hops: int, cascade: bool = True) -> bool:
        """Hand a copy from *carrier* to *peer*; True if it was received.

        Delivery at the destination always succeeds and neither cascades
        nor costs the carrier its copy.  A relaying copy is stored only if
        the buffer admits it; then the protocol hook, the probe, the
        hand-off removal and (with *cascade*) the zero-time cascade follow.
        """
        stats = self._stats
        message_id = message.id
        is_destination = peer == self._dest_of[message_id]
        tracer = self._run_tracer
        node_of = self._node_of
        if self._fastbuf:  # _admit's first branch, inlined on this hot path
            used = self._buf_used[peer] + self._size_of[message_id]
            self._buf_used[peer] = used
            if used > self._buf_peak[peer]:
                self._buf_peak[peer] = used
            admitted, evicted = True, None
        else:
            admitted, evicted = self._admit(peer, message_id, time)
            if not admitted and not is_destination:
                stats.buffer_rejections += 1
                if tracer is not None:
                    tracer.emit("drop", time, msg=message_id,
                                node=node_of[peer], reason="rejected")
                return False
        bit = self._bit_of[message_id]
        self._ever_bits[peer] |= bit
        stats.copies_sent += 1
        if is_destination and message_id not in self._delivered:
            self._delivered[message_id] = (time, hops)
            if self._stop_on_delivery:
                self._stop_bits |= bit
            self._protocol.on_delivered(message, time)
            if tracer is not None:
                tracer.emit("deliver", time, msg=message_id,
                            node=node_of[peer], hops=hops,
                            delay=time - message.creation_time,
                            src=node_of[carrier])
        if admitted:
            # holdings exist while the message lives: it launched, and an
            # expired one is stopped before any copy could move
            self._holdings[message_id][peer] = (time, hops)
            self._carried[peer].add(message_id)
            self._carried_bits[peer] |= bit
            if evicted:
                self._drop_evicted(peer, evicted, time)
        if is_destination:
            return True
        self._protocol.on_forwarded(message, node_of[carrier], node_of[peer],
                                    time)
        if tracer is not None:
            tracer.emit("forward", time, msg=message_id, src=node_of[carrier],
                        dst=node_of[peer], hops=hops)
        if not self._copy:
            self._drop_copy(carrier, message_id)
        if cascade:
            self._cascade(message, peer, time)
        return True

    def _forget(self, node: int, message_id: int, bit: int) -> None:
        """Free *node*'s stored copy (its holdings entry is the caller's)."""
        self._carried[node].discard(message_id)
        self._carried_bits[node] &= ~bit
        if self._fastbuf:
            self._buf_used[node] -= self._size_of[message_id]
        else:
            self._buffers[node].remove(message_id)

    def _drop_copy(self, node: int, message_id: int) -> None:
        """Remove one node's copy, if it still holds one (hand-off or a
        crash)."""
        bit = self._bit_of[message_id]
        if not self._carried_bits[node] & bit:
            return
        self._holdings[message_id].pop(node, None)
        self._forget(node, message_id, bit)

    def _drop_evicted(self, node: int, evicted: List[BufferEntry],
                      time: float) -> None:
        """Unregister copies the node's buffer just evicted (removing them
        from the buffer again is a no-op)."""
        for entry in evicted:
            self._drop_copy(node, entry.message_id)
            if self._run_tracer is not None:
                self._run_tracer.emit("drop", time, msg=entry.message_id,
                                      node=self._node_of[node],
                                      reason="evicted")
        self._stats.buffer_evictions += len(evicted)
