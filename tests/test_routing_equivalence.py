"""The protocol zoo against the idealized model's golden streams.

Mirrors ``tests/test_sim_equivalence.py`` for the stateful protocols: in
the unconstrained :class:`~repro.sim.DesSimulator` every protocol must
reproduce the delivery streams — deliveries, first-delivery times, hop
counts and total copy counts — recorded in
``tests/golden/delivery_streams.json`` on the four paper dataset
stand-ins.  It also pins the compatibility guarantee: the six paper
algorithms behave byte-identically whether run raw (pre-wrapper API) or
through the protocol registry, in both engines.
"""

from __future__ import annotations

import pytest

import golden_streams as golden
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import ForwardingSimulator, PoissonMessageWorkload
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.routing import NEW_PROTOCOL_NAMES, protocol_by_name
from repro.sim import DesSimulator


def _assert_results_equal(reference, candidate, context=""):
    assert candidate.algorithm == reference.algorithm, context
    assert len(candidate.outcomes) == len(reference.outcomes), context
    for position, (expected, actual) in enumerate(
            zip(reference.outcomes, candidate.outcomes)):
        where = f"{context} message {expected.message.id} (#{position})"
        assert actual.message == expected.message, where
        assert actual.delivered == expected.delivered, where
        assert actual.delivery_time == expected.delivery_time, where
        assert actual.hop_count == expected.hop_count, where
    assert candidate.copies_sent == reference.copies_sent, context


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_new_protocols_identical_across_engines(dataset_key):
    """Every zoo protocol: unconstrained DES == the golden streams."""
    trace, messages = golden.ideal_inputs(dataset_key)
    assert messages, "workload must not be empty for the test to mean anything"
    for protocol_name in NEW_PROTOCOL_NAMES:
        result = DesSimulator(
            trace, protocol_by_name(protocol_name)).run(messages)
        golden.assert_ideal(result, golden.ideal_key(dataset_key,
                                                     protocol_name))


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS[:1])
def test_paper_algorithms_unchanged_under_wrapper(dataset_key):
    """Raw legacy API == registry-wrapped, in both engines (acceptance)."""
    trace, messages = golden.ideal_inputs(dataset_key)
    for name in algorithm_names():
        key = golden.ideal_key(dataset_key, name)
        for simulator_class in (ForwardingSimulator, DesSimulator):
            for strategy in (algorithm_by_name(name), protocol_by_name(name)):
                golden.assert_ideal(
                    simulator_class(trace, strategy).run(messages), key)


def test_new_protocols_identical_without_stop_on_delivery():
    """Continued propagation after delivery must match too."""
    trace, messages = golden.ideal_inputs("infocom06-3-6")
    for protocol_name in ("Binary Spray-and-Wait", "PRoPHET", "Hypergossip"):
        result = DesSimulator(trace, protocol_by_name(protocol_name),
                              stop_on_delivery=False).run(messages)
        golden.assert_ideal(result, golden.ideal_key(
            "infocom06-3-6", protocol_name, stop_on_delivery=False))


def test_new_protocols_are_run_reproducible():
    """Two runs of the same protocol instance give the same stream (state
    resets through prepare), and a fresh registry instance agrees."""
    trace = load_dataset("conext06-9-12", scale=golden.IDEAL_SCALE,
                         contact_scale=golden.IDEAL_SCALE)
    messages = PoissonMessageWorkload(rate=golden.IDEAL_RATE).generate(
        trace, seed=23)
    for protocol_name in NEW_PROTOCOL_NAMES:
        protocol = protocol_by_name(protocol_name)
        first = ForwardingSimulator(trace, protocol).run(messages)
        second = ForwardingSimulator(trace, protocol).run(messages)
        fresh = ForwardingSimulator(
            trace, protocol_by_name(protocol_name)).run(messages)
        _assert_results_equal(first, second, context=f"rerun {protocol_name}")
        _assert_results_equal(first, fresh, context=f"fresh {protocol_name}")
