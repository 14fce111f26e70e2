"""The forwarding engines against frozen golden delivery streams.

``tests/golden/delivery_streams.json`` was recorded once (see
``tests/golden_streams.py`` for the cases and the regeneration command);
these tests replay every case and require the same delivery stream, copy
count and, for catalogue scenarios, resource counters.  Unlike the
engine-versus-engine suites, the oracle here does not move when an engine
changes.
"""

from __future__ import annotations

import pytest

import golden_streams as golden
from repro.forwarding import ForwardingSimulator
from repro.routing.registry import protocol_by_name, protocol_names
from repro.sim import DesSimulator, VectorSimulator

IDEALISED_ENGINES = {
    "forwarding": ForwardingSimulator,
    "des": DesSimulator,
    "vector": VectorSimulator,
}

#: scenarios whose full replay takes minutes (Dynamic Programming and
#: PRoPHET over 1000 nodes, in either engine, and every protocol on DES);
#: checked through the vector kernel's fast-path protocols only
SLOW_SCENARIOS = ("rwp-city-1k",)


@pytest.mark.parametrize("engine", sorted(IDEALISED_ENGINES))
@pytest.mark.parametrize("trace_name", golden.IDEAL_TRACES)
def test_idealised_engines_match_golden(trace_name, engine):
    """Every protocol × copy/hand-off × stop on/off, on one trace."""
    trace, messages = golden.ideal_inputs(trace_name)
    simulator_class = IDEALISED_ENGINES[engine]
    for protocol in protocol_names():
        for copy_semantics, stop in golden.OPTIONS:
            result = simulator_class(
                trace, protocol_by_name(protocol),
                copy_semantics=copy_semantics,
                stop_on_delivery=stop).run(messages)
            golden.assert_ideal(result, golden.ideal_key(
                trace_name, protocol, copy_semantics, stop))


@pytest.mark.parametrize("scenario_name", golden.CATALOGUE)
def test_catalogue_matches_golden(scenario_name):
    """DES and the vector kernel reproduce each scenario's streams and
    resource counters under its own constraints."""
    scenario, trace, messages = golden.catalogue_inputs(scenario_name)
    slow = scenario_name in SLOW_SCENARIOS
    engines = (VectorSimulator,) if slow else (DesSimulator, VectorSimulator)
    for protocol in protocol_names():
        if slow and not protocol_by_name(protocol).vector_fastpath:
            continue
        key = golden.catalogue_key(scenario_name, protocol)
        for simulator_class in engines:
            result = simulator_class(
                trace, protocol_by_name(protocol),
                constraints=scenario.constraints,
                copy_semantics=scenario.copy_semantics,
                seed=scenario.seed).run(messages)
            golden.assert_catalogue(result, key)


def test_fixture_covers_every_case():
    fixture = golden.load()
    assert set(fixture["ideal"]) == {
        golden.ideal_key(name, protocol, copy_semantics, stop)
        for name in golden.IDEAL_TRACES for protocol in protocol_names()
        for copy_semantics, stop in golden.OPTIONS}
    assert set(fixture["catalogue"]) == {
        golden.catalogue_key(name, protocol)
        for name in golden.CATALOGUE for protocol in protocol_names()}
