"""The unconstrained DES engine against the idealized model's golden streams.

With every resource constraint disabled, :class:`repro.sim.DesSimulator`
must reproduce the paper's idealized model *exactly*: the delivery set,
the first-delivery times, the hop counts (which pin the zero-time cascade
traversal order, i.e. the tie order among simultaneous receptions) and the
total copy count (which pins the entire transfer relation) recorded in
``tests/golden/delivery_streams.json`` (see ``tests/golden_streams.py``).
This suite enforces that on all four paper dataset stand-ins for the six
paper algorithms passed raw (the pre-wrapper API), across the simulator
options (hand-off semantics, continued flooding after delivery), on
adversarial timing, and with constraint objects that must change nothing.
"""

from __future__ import annotations

import pytest

import golden_streams as golden
from repro.datasets import PAPER_DATASET_KEYS
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.sim import DesSimulator, ResourceConstraints, UNCONSTRAINED


def _check_des(trace_name, algorithm_name, copy_semantics="copy",
               stop_on_delivery=True, **options):
    trace, messages = golden.ideal_inputs(trace_name)
    assert messages, "workload must not be empty for the test to mean anything"
    result = DesSimulator(trace, algorithm_by_name(algorithm_name),
                          copy_semantics=copy_semantics,
                          stop_on_delivery=stop_on_delivery,
                          **options).run(messages)
    golden.assert_ideal(result, golden.ideal_key(
        trace_name, algorithm_name, copy_semantics, stop_on_delivery))


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_unconstrained_des_equals_trace_simulator(dataset_key):
    """Delivery streams match on every paper stand-in, all six algorithms."""
    for algorithm_name in algorithm_names():
        _check_des(dataset_key, algorithm_name)


def test_explicitly_unconstrained_constraints_object():
    """Passing UNCONSTRAINED (or an equivalent instance) changes nothing."""
    for constraints in (UNCONSTRAINED, ResourceConstraints()):
        assert constraints.is_unconstrained
        _check_des("infocom06-9-12", "Epidemic", constraints=constraints)


def test_equivalence_with_handoff_semantics():
    for algorithm_name in ("Epidemic", "Greedy", "Dynamic Programming"):
        _check_des("conext06-9-12", algorithm_name, copy_semantics="handoff")


def test_equivalence_without_stop_on_delivery():
    """Continued flooding after delivery must match too."""
    for algorithm_name in ("Epidemic", "FRESH"):
        _check_des("infocom06-3-6", algorithm_name, stop_on_delivery=False)


def test_equivalence_zero_duration_and_simultaneous_contacts():
    """Adversarial timing: zero-duration contacts, shared instants, a
    message created exactly when a contact ends."""
    for algorithm_name in algorithm_names():
        _check_des("adversarial", algorithm_name)


def test_equivalence_overlapping_pair_contacts():
    """Overlapping contacts of the same pair (reference counting)."""
    for algorithm_name in algorithm_names():
        _check_des("overlap", algorithm_name)


def test_message_size_override_alone_keeps_equivalence():
    """message_size without buffers/bandwidth/ttl has no observable effect."""
    constraints = ResourceConstraints(message_size=1e9)
    assert constraints.is_unconstrained
    _check_des("conext06-3-6", "Epidemic", constraints=constraints)
