"""The forwarding engine against frozen golden delivery streams.

``tests/golden/delivery_streams.json`` was recorded once (see
``tests/golden_streams.py`` for the cases and the regeneration command);
these tests replay every case and require the same delivery stream, copy
count and, for scenario cases, resource counters.  The oracle does not
move when the engine changes.
"""

from __future__ import annotations

import pytest

import golden_streams as golden
from repro.forwarding import ForwardingSimulator
from repro.obs import EngineTelemetry
from repro.routing.registry import protocol_by_name, protocol_names
from repro.sim import DesSimulator

#: the paths an idealised run can take through the one engine: the
#: paper's entry point, the general dispatch loop (forced by attaching
#: telemetry) and the hot loop fast-path protocols take without probes,
#: the loop the vector kernel contributed
IDEALISED_PATHS = {
    "forwarding": lambda trace, protocol, **options: ForwardingSimulator(
        trace, protocol, **options),
    "des": lambda trace, protocol, **options: DesSimulator(
        trace, protocol, telemetry=EngineTelemetry(), **options),
    "vector": DesSimulator,
}

#: protocols left out of the rwp-city-1k replay, with their run time there
#: on one core of a shared 2-vCPU x86-64 host (the other ten take 0.2-1.2 s
#: each): Dynamic Programming's oracle precomputes earliest arrivals over
#: all 1000 nodes, and PRoPHET ages and updates its predictability tables
#: on every one of the 104k contacts
SLOW_CITY_PROTOCOLS = {"Dynamic Programming": "172 s", "PRoPHET": "56 s"}


@pytest.mark.parametrize("engine", sorted(IDEALISED_PATHS))
@pytest.mark.parametrize("trace_name", golden.IDEAL_TRACES)
def test_idealised_engines_match_golden(trace_name, engine):
    """Every protocol × copy/hand-off × stop on/off, on one trace."""
    trace, messages = golden.ideal_inputs(trace_name)
    simulator_class = IDEALISED_PATHS[engine]
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
    """Each scenario's streams and resource counters under its own
    constraints, every protocol (see :data:`SLOW_CITY_PROTOCOLS`)."""
    scenario, trace, messages = golden.catalogue_inputs(scenario_name)
    for protocol in protocol_names():
        if scenario_name == "rwp-city-1k" and protocol in SLOW_CITY_PROTOCOLS:
            continue
        result = DesSimulator(
            trace, protocol_by_name(protocol),
            constraints=scenario.constraints,
            copy_semantics=scenario.copy_semantics,
            seed=scenario.seed).run(messages)
        golden.assert_catalogue(result, golden.catalogue_key(scenario_name,
                                                             protocol))


@pytest.mark.parametrize("case", sorted(golden.FAULTED))
def test_faulted_matches_golden(case):
    """Churn, channel loss, delay and jitter on top of buffers, TTL and
    bandwidth: streams and every resource counter, all protocols."""
    for protocol in protocol_names():
        golden.assert_catalogue(golden.run_faulted(case, protocol),
                                golden.catalogue_key(case, protocol),
                                family="faulted")


@pytest.mark.parametrize("case", golden.TRACED)
def test_traced_run_bytes_match_golden(case, tmp_path):
    """A tracer sees the frozen event stream, byte for byte."""
    digest = golden.traced_digest(case, tmp_path / "trace.jsonl")
    assert digest == golden.load()["traces"][case]


def test_fixture_covers_every_case():
    fixture = golden.load()
    assert set(fixture["ideal"]) == {
        golden.ideal_key(name, protocol, copy_semantics, stop)
        for name in golden.IDEAL_TRACES for protocol in protocol_names()
        for copy_semantics, stop in golden.OPTIONS}
    assert set(fixture["catalogue"]) == {
        golden.catalogue_key(name, protocol)
        for name in golden.CATALOGUE for protocol in protocol_names()}
    assert set(fixture["faulted"]) == {
        golden.catalogue_key(name, protocol)
        for name in golden.FAULTED for protocol in protocol_names()}
    assert set(fixture["traces"]) == set(golden.TRACED)
