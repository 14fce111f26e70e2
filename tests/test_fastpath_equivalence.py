"""Delivery-stream equivalence: fast engine vs the reference enumerator.

The fast engine (interned ids, bitmask path sets, prebuilt step indexes,
lazy path reconstruction) must reproduce the reference engine's delivery
stream *exactly* — same paths, same arrival times, same order (including
ties), same ``stopped_early`` flag — on every dataset.  This suite checks
that on all four paper dataset stand-ins plus adversarial small traces, and
also pins the batch/parallel entry points to the serial stream.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import run_path_explosion_study
from repro.contacts import Contact, ContactTrace
from repro.core import (
    PathEnumerator,
    SpaceTimeGraph,
    enumerate_batch,
    random_messages,
)
from repro.datasets import PAPER_DATASET_KEYS, load_dataset

#: Scaled-down populations keep the suite fast while preserving the regime
#: where stores saturate and the k-cap replacement logic is exercised.
_SCALE = 0.2
_K = 60
_NUM_MESSAGES = 6


def _assert_streams_equal(fast, reference, context=""):
    assert fast.source == reference.source, context
    assert fast.destination == reference.destination, context
    assert fast.creation_time == reference.creation_time, context
    assert fast.stopped_early == reference.stopped_early, context
    assert fast.steps_processed == reference.steps_processed, context
    assert fast.num_deliveries == reference.num_deliveries, context
    for position, (a, b) in enumerate(zip(fast.deliveries, reference.deliveries)):
        where = f"{context} delivery {position}"
        assert a.time == b.time, where
        assert a.step == b.step, where
        assert a.path == b.path, where


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_paper_dataset_stream_equivalence(dataset_key):
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=_K, engine="fast")
    reference = PathEnumerator(graph, k=_K, engine="reference")
    for message in random_messages(trace, _NUM_MESSAGES, seed=99):
        source, destination, creation_time = message
        fast_result = fast.enumerate(source, destination, creation_time,
                                     max_total_deliveries=_K)
        ref_result = reference.enumerate(source, destination, creation_time,
                                         max_total_deliveries=_K)
        _assert_streams_equal(fast_result, ref_result,
                              context=f"{dataset_key} {message}")


def test_equivalence_without_delivery_cap():
    """Uncapped enumeration exercises the k-per-step stop rule in both."""
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=25, engine="fast")
    reference = PathEnumerator(graph, k=25, engine="reference")
    for message in random_messages(trace, 4, seed=17):
        source, destination, creation_time = message
        _assert_streams_equal(
            fast.enumerate(source, destination, creation_time),
            reference.enumerate(source, destination, creation_time),
            context=f"uncapped {message}",
        )


def test_equivalence_with_max_steps_horizon():
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=_K, engine="fast")
    reference = PathEnumerator(graph, k=_K, engine="reference")
    source, destination, creation_time = random_messages(trace, 1, seed=3)[0]
    for horizon in (1, 7, 40):
        _assert_streams_equal(
            fast.enumerate(source, destination, creation_time, max_steps=horizon),
            reference.enumerate(source, destination, creation_time,
                                max_steps=horizon),
            context=f"horizon={horizon}",
        )


def test_equivalence_undeliverable_message():
    """A destination with no contacts: both engines exhaust the window."""
    contacts = [Contact(0.0, 20.0, 0, 1), Contact(40.0, 60.0, 1, 2)]
    trace = ContactTrace(contacts, nodes=range(4), duration=100.0, name="iso")
    graph = SpaceTimeGraph(trace, delta=10.0)
    for engine in ("fast", "reference"):
        result = PathEnumerator(graph, k=10, engine=engine).enumerate(0, 3, 0.0)
        assert not result.delivered
        assert not result.stopped_early
        assert result.steps_processed == graph.num_steps


def test_equivalence_tiny_tie_heavy_trace():
    """Many same-step same-hop deliveries: tie order must match too."""
    contacts = [
        Contact(0.0, 30.0, 0, 1),
        Contact(0.0, 30.0, 0, 2),
        Contact(0.0, 30.0, 0, 3),
        Contact(10.0, 30.0, 1, 4),
        Contact(10.0, 30.0, 2, 4),
        Contact(10.0, 30.0, 3, 4),
        Contact(12.0, 30.0, 1, 2),
        Contact(14.0, 30.0, 2, 3),
    ]
    trace = ContactTrace(contacts, nodes=range(5), duration=60.0, name="ties")
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=50, engine="fast")
    reference = PathEnumerator(graph, k=50, engine="reference")
    _assert_streams_equal(fast.enumerate(0, 4, 0.0), reference.enumerate(0, 4, 0.0),
                          context="tie-heavy")


def test_seed_stream_preserved_across_store_reinsertion():
    """Pruning the store must not change processing order vs the seed.

    Node A (20) delivers at step 1, its store entry is pruned, and it
    re-receives at step 4.  In the seed implementation the store key kept
    its original dict position (first-insertion order); both engines must
    reproduce that, otherwise the k-cap keeps different equal-hop paths.
    The expected streams below were captured from the seed commit.
    """
    contacts = [
        Contact(0.0, 5.0, 10, 20),    # S-A
        Contact(10.0, 15.0, 20, 99),  # A-D: A delivers, store entry pruned
        Contact(20.0, 25.0, 10, 30),  # S-B
        Contact(30.0, 35.0, 10, 40),  # S-X
        Contact(40.0, 45.0, 10, 20),  # S-A again: A re-receives
        Contact(50.0, 55.0, 20, 50),  # A-C
        Contact(50.0, 55.0, 30, 50),  # B-C
        Contact(50.0, 55.0, 40, 50),  # X-C
        Contact(60.0, 65.0, 50, 99),  # C-D
    ]
    trace = ContactTrace(contacts, nodes=[10, 20, 30, 40, 50, 99],
                         duration=80.0, name="reinsertion")
    graph = SpaceTimeGraph(trace, delta=10.0)
    expected_by_k = {
        1: [(10, 20, 99)],
        2: [(10, 20, 99), (10, 20, 50, 99), (10, 30, 50, 99)],
        3: [(10, 20, 99), (10, 20, 50, 99), (10, 30, 50, 99),
            (10, 40, 50, 99)],
    }
    for k, expected in expected_by_k.items():
        for engine in ("fast", "reference"):
            result = PathEnumerator(graph, k=k, engine=engine).enumerate(10, 99, 0.0)
            assert [d.path.nodes for d in result.deliveries] == expected, \
                f"engine={engine} k={k}"


def test_batch_matches_single_message_calls():
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    messages = random_messages(trace, 5, seed=23)
    enumerator = PathEnumerator(graph, k=_K)
    batch = enumerator.enumerate_batch(messages, max_total_deliveries=_K)
    assert len(batch) == len(messages)
    for message, batched in zip(messages, batch):
        source, destination, creation_time = message
        single = enumerator.enumerate(source, destination, creation_time,
                                      max_total_deliveries=_K)
        _assert_streams_equal(batched, single, context=f"batch {message}")


def test_module_level_batch_from_trace():
    trace = load_dataset("conext06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = random_messages(trace, 3, seed=31)
    results = enumerate_batch(trace, messages, k=_K, max_total_deliveries=_K)
    assert [r.source for r in results] == [m[0] for m in messages]
    # the cap stops enumeration at the end of the step where it is reached,
    # so a delivering message reports at least one path and stops early once
    # the cap is crossed
    for result in results:
        if result.num_deliveries >= _K:
            assert result.stopped_early


def test_parallel_study_matches_serial():
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    kwargs = dict(num_messages=6, n_explosion=40, seed=13)
    serial = run_path_explosion_study(trace, **kwargs)
    parallel = run_path_explosion_study(trace, parallel=True, n_workers=2, **kwargs)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.source == b.source
        assert a.destination == b.destination
        assert a.creation_time == b.creation_time
        assert a.num_paths == b.num_paths
        assert a.optimal_duration == b.optimal_duration
        assert a.time_to_explosion == b.time_to_explosion
        assert a.arrival_durations == b.arrival_durations
        assert a.hop_counts == b.hop_counts


def test_engines_agree_across_delta():
    """Equivalence holds for non-default Δ discretisations too."""
    trace = load_dataset("infocom05", scale=0.3, contact_scale=0.3)
    for delta in (5.0, 30.0):
        graph = SpaceTimeGraph(trace, delta=delta)
        fast = PathEnumerator(graph, k=30, engine="fast")
        reference = PathEnumerator(graph, k=30, engine="reference")
        for message in random_messages(trace, 3, seed=41):
            source, destination, creation_time = message
            _assert_streams_equal(
                fast.enumerate(source, destination, creation_time,
                               max_total_deliveries=30),
                reference.enumerate(source, destination, creation_time,
                                    max_total_deliveries=30),
                context=f"delta={delta} {message}",
            )


@st.composite
def _grid_contact(draw, num_nodes, destination):
    a = draw(st.integers(0, num_nodes - 1))
    b = draw(st.integers(0, num_nodes - 2))
    if b >= a:
        b += 1
    earliest = 8 if destination in (a, b) else 0
    start = 5.0 * draw(st.integers(earliest, 16))
    return Contact(start, start + 5.0 * draw(st.integers(0, 10)), a, b)


@st.composite
def _tie_heavy_case(draw):
    """A tiny trace's nodes and contacts on a coarse grid, one message, a
    ``k`` and a delivery cap.

    Contact starts and ends fall on 5 s marks with Δ = 10 s, so many edges
    open in the same step and equal-hop paths tie; contacts last up to five
    steps, so edges stay active (non-fresh) across steps.  Contacts with
    the destination start no earlier than 40 s, so stores fill up (and
    evict) before paths are delivered.  The message is created at step 0,
    inside a contact (ongoing edges at its first step) or at any grid mark.
    """
    num_nodes = draw(st.integers(4, 12))
    source = draw(st.integers(0, num_nodes - 1))
    destination = draw(st.integers(0, num_nodes - 2))
    if destination >= source:
        destination += 1
    contacts = draw(st.lists(_grid_contact(num_nodes, destination),
                             min_size=24, max_size=60))
    when = draw(st.sampled_from(("zero", "mid-contact", "grid")))
    if when == "zero":
        created = 0.0
    elif when == "mid-contact":
        contact = draw(st.sampled_from(contacts))
        created = contact.start + (contact.end - contact.start) * draw(
            st.sampled_from((0.0, 0.25, 0.5, 0.75)))
    else:
        created = 5.0 * draw(st.integers(0, 28))
    k = draw(st.integers(1, 6))
    cap = draw(st.sampled_from((None, k)))
    return num_nodes, contacts, (source, destination, created), k, cap


@given(case=_tie_heavy_case())
@settings(max_examples=200, deadline=None, report_multiple_bugs=False,
          suppress_health_check=[HealthCheck.too_slow])
def test_fast_engine_equals_reference_on_random_tie_heavy_traces(case):
    """Eviction order, the ongoing-edge rule and the stop rules agree with
    the reference engine, tie order included."""
    num_nodes, contacts, (source, destination, created), k, cap = case
    trace = ContactTrace(contacts, nodes=range(num_nodes), duration=140.0,
                         name="hypothesis")
    graph = SpaceTimeGraph(trace, delta=10.0)
    results = [PathEnumerator(graph, k=k, engine=engine).enumerate(
        source, destination, created, max_total_deliveries=cap)
        for engine in ("fast", "reference")]
    _assert_streams_equal(*results, context=f"k={k} cap={cap}")


def test_rejects_unknown_engine():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(2),
                         duration=20.0, name="mini")
    graph = SpaceTimeGraph(trace, delta=10.0)
    with pytest.raises(ValueError):
        PathEnumerator(graph, k=5, engine="turbo")
