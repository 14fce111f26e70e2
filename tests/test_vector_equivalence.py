"""The vector fast path against the plain DES path, in the one engine.

:class:`repro.sim.DesSimulator` takes the speed-ups of the former vector
kernel whenever a run allows it: the per-node bitmask offer screen, the
batched ``vector_approvals`` of fast-path protocols (which also skip the
contact history and the per-contact hooks), and the hot dispatch loop,
entered when the protocol is fast-path, no tracer or telemetry is
attached and no event can be pushed or cut short.  None of that may
change a result.  This suite runs each fast-path protocol both ways: bare
(the hot loop, batched decisions) and wrapped by :class:`_PlainPath`,
which hides the fast path, with telemetry attached (the general loop,
one ``should_forward`` per offer, every hook) — on all four paper dataset
stand-ins, across the constraints the hot loop handles (buffers with all
three drop policies, ttl, message sizes, hand-off, continued flooding),
and, driven by hypothesis, on tie-heavy random workloads.  It also
property-tests the timeline merge that orders every event.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden_streams as golden
from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import Message, PoissonMessageWorkload
from repro.obs import EngineTelemetry
from repro.routing import RoutingProtocol
from repro.routing.registry import protocol_by_name, protocol_catalogue, protocol_names
from repro.sim import DesSimulator, ResourceConstraints
from repro.sim.events import Timeline

_SCALE = 0.15
_RATE = 0.01

FASTPATH_PROTOCOLS = [name for name in protocol_names()
                      if protocol_by_name(name).vector_fastpath]
HOOK_ONLY_PROTOCOLS = [name for name in protocol_names()
                       if not protocol_by_name(name).vector_fastpath]


class _PlainPath(RoutingProtocol):
    """*inner* with its fast path hidden: the engine asks one
    ``should_forward`` per offer and calls every lifecycle hook."""

    def __init__(self, inner: RoutingProtocol) -> None:
        self.inner = inner
        self.name = inner.name

    def prepare(self, trace):
        self.inner.prepare(trace)

    def on_message_created(self, message, now):
        self.inner.on_message_created(message, now)

    def on_contact_start(self, a, b, now, history):
        self.inner.on_contact_start(a, b, now, history)

    def on_contact_end(self, a, b, now, history):
        self.inner.on_contact_end(a, b, now, history)

    def on_forwarded(self, message, carrier, peer, now):
        self.inner.on_forwarded(message, carrier, peer, now)

    def on_delivered(self, message, now):
        self.inner.on_delivered(message, now)

    def should_forward(self, carrier, peer, message, now, history):
        return self.inner.should_forward(carrier, peer, message, now, history)


def _assert_results_equal(reference, candidate, context=""):
    assert candidate.algorithm == reference.algorithm, context
    assert candidate.trace_name == reference.trace_name, context
    assert len(candidate.outcomes) == len(reference.outcomes), context
    for position, (expected, actual) in enumerate(
            zip(reference.outcomes, candidate.outcomes)):
        where = f"{context} message {expected.message.id} (#{position})"
        assert actual.message == expected.message, where
        assert actual.delivered == expected.delivered, where
        assert actual.delivery_time == expected.delivery_time, where
        assert actual.hop_count == expected.hop_count, where
    assert candidate.copies_sent == reference.copies_sent, context
    assert candidate.stats.as_dict() == reference.stats.as_dict(), context


def _run_both(trace, messages, protocol_name, **options):
    """``(plain DES path, vector fast path)`` results of one run."""
    reference = DesSimulator(trace, _PlainPath(protocol_by_name(protocol_name)),
                             telemetry=EngineTelemetry(), **options
                             ).run(messages)
    candidate = DesSimulator(trace, protocol_by_name(protocol_name),
                             **options).run(messages)
    return reference, candidate


def _workload(trace, seed=11):
    return PoissonMessageWorkload(rate=_RATE).generate(trace, seed=seed)


# ----------------------------------------------------------------------
# the paper stand-ins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_vector_equals_des_on_paper_standins(dataset_key):
    """Delivery streams and counters match on every stand-in, every
    fast-path protocol."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace)
    assert messages, "workload must not be empty for the test to mean anything"
    for protocol_name in FASTPATH_PROTOCOLS:
        reference, candidate = _run_both(trace, messages, protocol_name)
        _assert_results_equal(reference, candidate,
                              context=f"{dataset_key} {protocol_name}")


@pytest.mark.parametrize("constraints", [
    ResourceConstraints(buffer_capacity=3.0),
    ResourceConstraints(buffer_capacity=3.0, drop_policy="drop-youngest"),
    ResourceConstraints(buffer_capacity=120.0, message_size=30.0,
                        drop_policy="drop-largest"),
    ResourceConstraints(ttl=900.0),
    ResourceConstraints(buffer_capacity=4.0, ttl=1200.0),
], ids=["drop-oldest", "drop-youngest", "drop-largest", "ttl", "buffer+ttl"])
def test_vector_equals_des_under_native_constraints(constraints):
    """Buffers (all drop policies), sizes and ttl run on the hot loop —
    the streams and stat counters must still match the plain path."""
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=23)
    for protocol_name in ("Epidemic", "Binary Spray-and-Wait"):
        reference, candidate = _run_both(trace, messages, protocol_name,
                                         constraints=constraints)
        _assert_results_equal(reference, candidate,
                              context=f"{constraints} {protocol_name}")


def test_vector_equals_des_with_handoff_and_no_stop():
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=31)
    for options in ({"copy_semantics": "handoff"},
                    {"stop_on_delivery": False},
                    {"copy_semantics": "handoff", "stop_on_delivery": False}):
        for protocol_name in ("Epidemic", "First Contact"):
            reference, candidate = _run_both(trace, messages, protocol_name,
                                             **options)
            _assert_results_equal(reference, candidate,
                                  context=f"{options} {protocol_name}")


def test_vector_falls_back_to_hooks_for_stateful_protocols():
    """Protocols without a fast path (PRoPHET et al.) stay off the hot
    loop even with no probe attached: they see every contact hook and
    reproduce their golden streams."""
    assert "PRoPHET" in HOOK_ONLY_PROTOCOLS
    trace, messages = golden.ideal_inputs("infocom06-9-12")

    class Spy(_PlainPath):
        starts = ends = 0

        def on_contact_start(self, a, b, now, history):
            Spy.starts += 1
            super().on_contact_start(a, b, now, history)

        def on_contact_end(self, a, b, now, history):
            Spy.ends += 1
            super().on_contact_end(a, b, now, history)

    for protocol_name in ("PRoPHET", "Greedy"):
        Spy.starts = Spy.ends = 0
        result = DesSimulator(trace, Spy(protocol_by_name(protocol_name))
                              ).run(messages)
        assert Spy.starts == Spy.ends == len(trace), protocol_name
        golden.assert_ideal(result, golden.ideal_key("infocom06-9-12",
                                                     protocol_name))


# ----------------------------------------------------------------------
# hypothesis: timing edge cases
# ----------------------------------------------------------------------
@st.composite
def tie_heavy_workloads(draw):
    """A small trace plus messages whose timestamps all land on a coarse
    grid, so same-instant contact starts/ends/creations are the norm."""
    num_nodes = draw(st.integers(min_value=3, max_value=8))
    contacts = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        a = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=num_nodes - 2))
        if b >= a:
            b += 1
        start = 10.0 * draw(st.integers(min_value=0, max_value=8))
        length = 10.0 * draw(st.integers(min_value=0, max_value=3))
        contacts.append(Contact(start, start + length, a, b))
    messages = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        destination = draw(st.integers(min_value=0, max_value=num_nodes - 2))
        if destination >= source:
            destination += 1
        messages.append(Message(
            id=index, source=source, destination=destination,
            creation_time=10.0 * draw(st.integers(min_value=0, max_value=10)),
            ttl=draw(st.sampled_from([None, 20.0, 40.0]))))
    trace = ContactTrace(contacts, nodes=range(num_nodes), duration=120.0,
                         name="hyp")
    return trace, messages


@st.composite
def merge_schedules(draw):
    """Static events in sequence order, plus the dynamic pushes made after
    each dispatched event — coarse times, so equal times and kinds (and
    pushes into the past) are the norm."""
    instants = st.integers(min_value=0, max_value=6).map(float)
    kinds = st.integers(min_value=0, max_value=7)
    static = draw(st.lists(st.tuples(instants, kinds), max_size=30))
    pushes = draw(st.lists(st.lists(st.tuples(instants, kinds), max_size=3),
                           max_size=40))
    return static, pushes


@settings(max_examples=200, deadline=None)
@given(schedule=merge_schedules())
def test_same_timestamp_batches_tie_break_like_the_des_heap(schedule):
    """The presorted static events and the dynamic heap merge into exactly
    the order one ``heapq`` of ``(time, kind, sequence)`` pops, with the
    dynamic sequence numbers following the static ones."""
    static, pushes = schedule
    times = np.array([time for time, _ in static], dtype=np.float64)
    kinds = np.array([kind for _, kind in static], dtype=np.int64)
    labels = np.arange(len(static))  # each static event's sequence number
    timeline = Timeline(times, kinds, labels, labels, labels)
    heap = [(time, kind, sequence, sequence)
            for sequence, (time, kind) in enumerate(static)]
    heapq.heapify(heap)
    sequence = len(static)
    merged, expected = [], []
    for step, event in enumerate(timeline):
        merged.append(event[:3])
        popped = heapq.heappop(heap)
        expected.append((popped[0], popped[1], popped[3]))
        for time, kind in (pushes[step] if step < len(pushes) else ()):
            label = ("dynamic", sequence)
            timeline.push(time, kind, label, None, None)
            heapq.heappush(heap, (time, kind, sequence, label))
            sequence += 1
        assert len(timeline) == len(heap)
    assert merged == expected
    assert not heap


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=tie_heavy_workloads())
def test_hook_fallback_agrees_with_des_on_random_workloads(payload):
    """The fast path and the plain hook path agree on tie-heavy random
    workloads, for the budgeted and token-passing protocols too."""
    trace, messages = payload
    for protocol_name in ("Epidemic", "Binary Spray-and-Wait",
                          "First Contact"):
        reference, candidate = _run_both(trace, messages, protocol_name)
        _assert_results_equal(reference, candidate, context=protocol_name)


# ----------------------------------------------------------------------
# catalogue, plumbing
# ----------------------------------------------------------------------
def test_protocol_catalogue_reports_vector_support():
    rows = protocol_catalogue()
    by_name = {row["protocol"]: row["vector"] for row in rows}
    assert by_name["Epidemic"] == "fast-path"
    assert by_name["Binary Spray-and-Wait"] == "fast-path"
    assert by_name["PRoPHET"] != "fast-path"


def test_experiment_spec_rejects_unknown_engine_naming_vector():
    from repro.exp import ExperimentSpec

    with pytest.raises(ValueError, match="des, trace, vector"):
        ExperimentSpec(name="x", scenarios=("paper-ideal",), engine="warp")


# ----------------------------------------------------------------------
# the columnar trace view the kernel builds on
# ----------------------------------------------------------------------
def test_contact_trace_as_arrays_matches_contacts_and_caches():
    contacts = [Contact(5.0, 15.0, 2, 0), Contact(0.0, 10.0, 1, 3),
                Contact(0.0, 0.0, 0, 3)]
    trace = ContactTrace(contacts, nodes=range(4), duration=60.0, name="a")
    starts, ends, a, b = trace.as_arrays()
    # columns follow the trace's canonical (start, end, a, b) sort order
    assert starts.tolist() == [c.start for c in trace]
    assert ends.tolist() == [c.end for c in trace]
    assert a.tolist() == [c.a for c in trace]
    assert b.tolist() == [c.b for c in trace]
    assert np.all(a <= b)  # Contact stores endpoints canonically
    # built once, then cached
    assert trace.as_arrays()[0] is starts
