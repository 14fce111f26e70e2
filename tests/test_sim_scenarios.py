"""Scenario registry, runner, sweep, CLI, seeding contract, and summaries."""

from __future__ import annotations

import json

import pytest

from repro.analysis import format_table, run_constraint_sweep
from repro.contacts import Contact, ContactTrace
from repro.forwarding import ForwardingSimulator, Message
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.sim import (
    DatasetTraceSpec,
    ResourceConstraints,
    Scenario,
    get_scenario,
    run_scenario,
    scenario_names,
    scenarios,
    sweep_scenario,
)
from repro.sim.cli import main
from repro.synth import derive_rng
from repro.synth.workloads import AllPairsBurstWorkload, HotspotMessageWorkload


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_meets_acceptance_criteria():
    names = scenario_names()
    assert len(names) >= 6
    constrained = [name for name in names
                   if get_scenario(name).is_constrained]
    assert len(constrained) >= 2
    # names are unique by construction; every spec round-trips via lookup
    for name in names:
        assert get_scenario(name).name == name


def test_every_scenario_runs_end_to_end():
    for name in scenario_names():
        nodes = get_scenario(name).node_count()
        if nodes is not None and nodes > 500:
            # city-scale scenarios (rwp-city-*) are replayed by the golden
            # streams (1k) and bench_sim_engines.py (10k); the 10k trace
            # build and replay alone would add about 20 s here
            continue
        result = run_scenario(name)
        assert result.num_messages > 0, name
        summaries = result.summaries()
        assert set(summaries) == set(get_scenario(name).algorithms), name
        for summary in summaries.values():
            assert 0.0 <= summary["success_rate"] <= 1.0, name
        # the formatted table renders without blowing up
        assert "algorithm" in format_table(result.table_rows())


def test_unknown_scenario_and_algorithm_raise():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("definitely-not-registered")
    with pytest.raises(KeyError, match="unknown algorithm"):
        algorithm_by_name("Telepathy")
    # scenarios validate names against the routing registry, which also
    # covers the paper algorithms; the error names the valid protocols
    with pytest.raises(ValueError, match="valid protocols"):
        Scenario(name="bad", description="", trace=DatasetTraceSpec(key="infocom05"),
                 workload=None, algorithms=("Telepathy",))
    # with_overrides revalidates: a bad override fails at the call site,
    # not deep inside a run
    with pytest.raises(ValueError, match="unknown protocol 'Telepathy'"):
        get_scenario("paper-ideal").with_overrides(algorithms=("Telepathy",))


def test_scenario_runs_are_reproducible():
    first = run_scenario("rwp-courtyard-lossy")
    second = run_scenario("rwp-courtyard-lossy")
    assert first.trace_name == second.trace_name
    for name in first.results:
        a = first.pooled(name)
        b = second.pooled(name)
        assert [o.delivery_time for o in a.outcomes] == \
            [o.delivery_time for o in b.outcomes]
        assert a.copies_sent == b.copies_sent
    # a different master seed changes the workload
    reseeded = run_scenario("rwp-courtyard-lossy", seed=12345)
    assert reseeded.num_messages != first.num_messages or any(
        [o.message for o in reseeded.pooled(name).outcomes] !=
        [o.message for o in first.pooled(name).outcomes]
        for name in first.results
    )


def test_parallel_scenario_run_matches_serial():
    serial = run_scenario("paper-buffer-crunch", num_runs=2)
    parallel = run_scenario("paper-buffer-crunch", num_runs=2,
                            parallel=True, n_workers=2)
    for name in serial.results:
        a, b = serial.pooled(name), parallel.pooled(name)
        assert [(o.delivered, o.delivery_time, o.hop_count) for o in a.outcomes] == \
            [(o.delivered, o.delivery_time, o.hop_count) for o in b.outcomes]
        assert a.stats.as_dict() == b.stats.as_dict()


def test_sweep_is_paired_and_ordered():
    values = [2.0, 6.0, None]
    sweep = sweep_scenario("paper-buffer-crunch", "buffer_capacity", values)
    assert sweep.values == values
    rows = sweep.table_rows()
    algorithms = get_scenario("paper-buffer-crunch").algorithms
    assert len(rows) == len(values) * len(algorithms)
    # monotone-ish sanity: unlimited buffers deliver at least as much as
    # 2-message buffers for every algorithm (same trace, same workload)
    for name in algorithms:
        tight = sweep.by_value[2.0][name].summary()["success_rate"]
        loose = sweep.by_value[None][name].summary()["success_rate"]
        assert loose >= tight


def test_ttl_sweep_rejects_per_message_ttl_workloads():
    """Message-level ttl beats the constraints-level default, so sweeping
    ttl over such a workload would be a silent no-op — refuse it."""
    from repro.forwarding import PoissonMessageWorkload

    base = get_scenario("paper-ttl-tight")
    stamped = base.with_overrides(
        name="stamped-ttl",
        workload=PoissonMessageWorkload(rate=0.01, ttl=600.0))
    with pytest.raises(ValueError, match="per-message ttl"):
        sweep_scenario(stamped, "ttl", [300.0, None])
    # other axes remain sweepable on the same scenario
    sweep = sweep_scenario(stamped, "buffer_capacity", [4.0, None])
    assert sweep.values == [4.0, None]


def test_run_constraint_sweep_via_analysis():
    sweep = run_constraint_sweep("paper-ttl-tight", "ttl", [300.0, None])
    assert sweep.parameter == "ttl"
    success_at = {value: sweep.by_value[value]["Epidemic"].summary()["success_rate"]
                  for value in (300.0, None)}
    assert success_at[None] >= success_at[300.0]
    with pytest.raises(ValueError, match="cannot sweep"):
        run_constraint_sweep("paper-ttl-tight", "drop_policy", ["drop-oldest"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_and_run(capsys, tmp_path):
    assert main(["sim", "list"]) == 0
    captured = capsys.readouterr().out
    for name in scenario_names():
        assert name in captured

    out_path = tmp_path / "run.json"
    assert main(["sim", "run", "paper-ttl-tight", "--json", str(out_path)]) == 0
    captured = capsys.readouterr().out
    assert "paper-ttl-tight" in captured
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == "paper-ttl-tight"
    assert payload["rows"]


def test_cli_sweep(tmp_path):
    out_path = tmp_path / "sweep.json"
    assert main(["sim", "sweep", "paper-buffer-crunch",
                 "--param", "buffer_capacity", "--values", "2,8,inf",
                 "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["parameter"] == "buffer_capacity"
    assert len(payload["rows"]) == 3 * len(
        get_scenario("paper-buffer-crunch").algorithms)


# ----------------------------------------------------------------------
# seeding contract
# ----------------------------------------------------------------------
def test_derive_rng_determinism_and_independence():
    assert derive_rng(7, "trace").integers(1 << 30) == \
        derive_rng(7, "trace").integers(1 << 30)
    assert derive_rng(7, "trace").integers(1 << 30) != \
        derive_rng(7, "workload").integers(1 << 30)
    assert derive_rng(7, "a", "b").integers(1 << 30) != \
        derive_rng(7, "ab").integers(1 << 30)


def test_scenario_traces_and_workloads_are_bit_reproducible():
    scenario = get_scenario("rwp-courtyard")
    trace_a, trace_b = scenario.build_trace(), scenario.build_trace()
    assert trace_a == trace_b
    messages_a = scenario.build_messages(trace_a, run_index=0)
    messages_b = scenario.build_messages(trace_b, run_index=0)
    assert messages_a == messages_b
    assert scenario.build_messages(trace_a, run_index=1) != messages_a


def test_workload_generators_follow_seed_contract():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(8),
                         duration=600.0, name="w")
    burst = AllPairsBurstWorkload(burst_times=(0.0, 100.0),
                                  max_pairs_per_burst=10)
    assert burst.generate(trace, seed=3) == burst.generate(trace, seed=3)
    full = AllPairsBurstWorkload(burst_times=(50.0,))
    assert len(full.generate(trace, seed=0)) == 8 * 7

    hotspot = HotspotMessageWorkload(num_messages=40, num_hotspots=2,
                                     hotspot_share=1.0, mode="source")
    messages = hotspot.generate(trace, seed=5)
    assert messages == hotspot.generate(trace, seed=5)
    sources = {message.source for message in messages}
    assert sources <= set(hotspot.hotspot_nodes(trace, seed=5))
    assert len(sources) <= 2

    # a single sink hotspot must not crash even when the uniformly drawn
    # source would have collided with it
    sink = HotspotMessageWorkload(num_messages=40, num_hotspots=1,
                                  hotspot_share=1.0, mode="sink")
    for seed in range(5):
        drain = sink.generate(trace, seed=seed)
        (the_sink,) = set(message.destination for message in drain)
        assert all(message.source != the_sink for message in drain)


# ----------------------------------------------------------------------
# SimulationResult.summary
# ----------------------------------------------------------------------
def test_simulation_result_summary_keys_and_values():
    contacts = [Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 1, 2)]
    trace = ContactTrace(contacts, nodes=range(4), duration=50.0, name="s")
    messages = [Message(id=0, source=0, destination=2, creation_time=0.0),
                Message(id=1, source=0, destination=3, creation_time=0.0)]
    result = ForwardingSimulator(trace, algorithm_by_name("Epidemic")).run(messages)
    summary = result.summary()
    assert summary["num_messages"] == 2
    assert summary["num_delivered"] == 1
    assert summary["success_rate"] == pytest.approx(0.5)
    assert summary["mean_delay_s"] == pytest.approx(20.0)
    assert summary["median_delay_s"] == pytest.approx(20.0)
    # copies: message 0 hops 0->1 (t=0) and 1->2 (delivery, t=20); message 1
    # is epidemic-copied 0->1 (t=0) and 1->2 (t=20) -> 4 copies total
    assert summary["copies_sent"] == 4
    assert summary["copies_per_delivery"] == pytest.approx(4.0)


def test_summary_handles_empty_and_undelivered():
    from repro.forwarding import SimulationResult
    empty = SimulationResult(algorithm="X", trace_name="t")
    summary = empty.summary()
    assert summary["mean_delay_s"] is None
    assert summary["copies_per_delivery"] is None
    assert summary["success_rate"] == 0.0


def test_all_six_algorithms_available_by_name():
    assert len(algorithm_names()) == 6
    for name in algorithm_names():
        assert algorithm_by_name(name).name == name


# ----------------------------------------------------------------------
# merge validation
# ----------------------------------------------------------------------
def test_merge_rejects_mismatched_runs():
    """Pooling runs of different algorithms/traces/constraints used to
    silently report everything under runs[0]'s labels; it must refuse."""
    from repro.sim.runner import merge_constrained_results

    run = run_scenario("paper-ttl-tight")
    epidemic = run.results["Epidemic"][0]
    fresh = run.results["FRESH"][0]
    with pytest.raises(ValueError, match="algorithm"):
        merge_constrained_results([epidemic, fresh])

    other_trace = run_scenario("rwp-courtyard").results["Epidemic"][0]
    with pytest.raises(ValueError, match="trace"):
        merge_constrained_results([epidemic, other_trace])

    relaxed = run_scenario(
        "paper-ttl-tight",
        constraints=ResourceConstraints(ttl=1800.0)).results["Epidemic"][0]
    with pytest.raises(ValueError, match="constraints"):
        merge_constrained_results([epidemic, relaxed])

    # an explicit opt-out still allows deliberate cross-label pools
    merged = merge_constrained_results([epidemic, other_trace],
                                       validate=False)
    assert merged.num_messages == \
        epidemic.num_messages + other_trace.num_messages


def test_merge_accepts_matching_runs_and_pools_fields():
    from repro.sim.runner import merge_constrained_results

    run = run_scenario("paper-buffer-crunch", num_runs=2)
    runs = run.results["Epidemic"]
    merged = merge_constrained_results(runs)
    assert merged.algorithm == "Epidemic"
    assert merged.num_messages == sum(r.num_messages for r in runs)
    assert merged.stats.copies_sent == sum(r.stats.copies_sent for r in runs)
    assert merged.stats.peak_buffer_occupancy == \
        max(r.stats.peak_buffer_occupancy for r in runs)
