"""The per-layer view: which program calls become spans, and the metrics
computed from those spans and from the calls' public outputs.

Layers are named after the program's modules.  :func:`install` wraps the
public entry points of each layer (see the table in README.md);
:func:`layer_metrics` turns one traced pass into the ``per_layer`` metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from spans import Patcher, SpanRecorder
from stats import median, tail


def _count_trace(calls: str, contacts: str):
    def on_result(counts, args, kwargs, trace):
        counts[calls] += 1
        counts[contacts] += len(trace)
    return on_result


def _count_messages(counts, args, kwargs, messages):
    counts["scenario.messages"] += len(messages)


def _count_graph(counts, args, kwargs, result):
    counts["core.graph.steps"] += args[0].num_steps


def _count_enumeration(counts, args, kwargs, result):
    counts["core.enumeration.messages"] += 1
    counts["core.enumeration.paths"] += result.num_deliveries


def _count_explosion(counts, args, kwargs, record):
    counts["core.enumeration.exploded"] += int(record.exploded)


def _count_forwarding(counts, args, kwargs, result):
    counts["forwarding.runs"] += 1
    counts["forwarding.copies_sent"] += result.copies_sent or 0
    counts["forwarding.deliveries"] += result.num_delivered


def _count_engine(prefix: str):
    def on_result(counts, args, kwargs, result):
        stats = result.stats
        counts[f"{prefix}.runs"] += 1
        counts[f"{prefix}.forwarding_decisions"] += stats.forwarding_decisions
        counts[f"{prefix}.forwarding_approvals"] += stats.forwarding_approvals
        counts[f"{prefix}.copies_sent"] += stats.copies_sent
        counts[f"{prefix}.deliveries"] += result.num_delivered
        counts[f"{prefix}.retransmissions"] += stats.retransmissions
        counts[f"{prefix}.node_crashes"] += stats.node_crashes
    return on_result


def _count_vector(counts, args, kwargs, result):
    _count_engine("sim.vector")(counts, args, kwargs, result)
    # the kernel's replay timeline holds a start and an end per contact,
    # one creation per message and one expiry per message that can expire;
    # EngineTelemetry would give the same count but switches the kernel
    # off its fast path, so the count is taken from the inputs instead
    simulator, messages = args[0], args[1]
    expiring = sum(1 for message in messages
                   if simulator.constraints.effective_expiry(message)
                   is not None)
    counts["sim.vector.events"] += (2 * len(simulator.e2ebench_trace)
                                    + len(messages) + expiring)


def _fetched_bytes(counts, args, kwargs, record):
    # the stored length the store's index reports for the record fetched;
    # records the flat store encodes are counted from its file instead
    store, job_hash = args[0], args[1]
    counts["exp.records.bytes"] += store.entry_for(job_hash)["length"]


def _count_put(prefix: str):
    def on_result(counts, args, kwargs, result):
        counts[f"{prefix}.puts"] += 1
    return on_result


def _count_query(counts, args, kwargs, rows):
    counts["svc.store.queries"] += 1
    counts["svc.store.query_rows"] += len(rows)


def _count_jobs(counts, args, kwargs, plan):
    counts["exp.plan.jobs"] += len(plan)


def _count_failed(counts, args, kwargs, result):
    counts["exp.executor.failed"] += result.num_failed


FIGURES = ("figure4_duration_and_explosion_cdfs", "figure5_duration_vs_explosion",
           "figure6_path_growth", "figure8_pair_type_scatter",
           "figure9_delay_vs_success", "figure10_delay_distributions",
           "figure11_reception_times", "figure13_pair_type_performance",
           "figure14_hop_rates", "figure15_rate_ratios")


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every layer's public entry points with span recorders."""
    from repro.analysis import figures
    from repro.core import explosion
    from repro.core.enumeration import PathEnumerator
    from repro.core.space_time_graph import SpaceTimeGraph
    from repro.datasets import DatasetSpec
    from repro.exp import orchestrator, plan, records
    from repro.exp.store import ResultStore
    from repro.forwarding.simulator import ForwardingSimulator
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.engine import DesSimulator
    from repro.sim.vector import VectorSimulator
    from repro.svc.store import ShardedResultStore

    def span(layer, name, on_result=None):
        return lambda fn: recorder.span(layer, name, fn, on_result)

    patcher.method(ScenarioSpec, "build_trace",
                   span("scenario", "build_trace",
                        _count_trace("scenario.build_trace.calls",
                                     "scenario.contacts")))
    patcher.method(ScenarioSpec, "build_messages",
                   span("scenario", "build_messages", _count_messages))
    patcher.method(DatasetSpec, "generate",
                   span("datasets", "load", _count_trace("datasets.calls",
                                             "datasets.contacts")))
    patcher.method(SpaceTimeGraph, "__init__",
                   span("core.graph", "build", _count_graph))
    patcher.method(SpaceTimeGraph, "step_tables",
                   span("core.graph", "step_tables"))
    patcher.method(PathEnumerator, "enumerate",
                   span("core.enumeration", "enumerate", _count_enumeration))
    patcher.function(explosion, "analyze_message",
                     span("core.enumeration", "analyze_message",
                          _count_explosion))
    patcher.method(ForwardingSimulator, "run",
                   span("forwarding", "run", _count_forwarding))
    patcher.method(DesSimulator, "run",
                   span("sim.engine", "run", _count_engine("sim.engine")))

    def remember_trace(original):
        def init(self, trace, *args, **kwargs):
            original(self, trace, *args, **kwargs)
            self.e2ebench_trace = trace
        return init

    patcher.method(VectorSimulator, "__init__", remember_trace)
    patcher.method(VectorSimulator, "run",
                   span("sim.vector", "run", _count_vector))
    patcher.function(records, "encode_record", span("exp.records", "encode"))
    patcher.function(records, "decode_result", span("exp.records", "decode"))
    patcher.function(plan, "build_plan",
                     span("exp.plan", "build_plan", _count_jobs))
    patcher.function(orchestrator, "run_experiment",
                     span("exp.orchestrator", "run_experiment",
                          _count_failed))
    for attr in ("load", "get", "leaderboard", "refresh_entries"):
        patcher.method(ResultStore, attr, span("exp.store", attr))
    patcher.method(ResultStore, "put",
                   span("exp.store", "put", _count_put("exp.store")))
    for attr in ("load", "leaderboard", "refresh_entries", "put_many"):
        patcher.method(ShardedResultStore, attr, span("svc.store", attr))
    patcher.method(ShardedResultStore, "get",
                   span("svc.store", "get", _fetched_bytes))
    patcher.method(ShardedResultStore, "put",
                   span("svc.store", "put", _count_put("svc.store")))
    patcher.method(ShardedResultStore, "query_entries",
                   span("svc.store", "query_entries", _count_query))
    for name in FIGURES:
        patcher.function(figures, name, span("analysis.figures", name))


# ----------------------------------------------------------------------
# metrics of one traced pass
# ----------------------------------------------------------------------
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark_metrics(section: str) -> List[tuple]:
    """``(name, unit)`` of one metric list of BENCHMARK.json, in its order."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


PER_LAYER = benchmark_metrics("per_layer")

# span-name self times that make up each ``*_s`` metric
_NAME_TIMES = {
    "exp.plan.build_s": [("exp.plan", "build_plan")],
    "scenario.build_trace_s": [("scenario", "build_trace")],
    "scenario.build_messages_s": [("scenario", "build_messages")],
    "datasets.load_s": [("datasets", "load")],
    "core.graph.build_s": [("core.graph", "build")],
    "core.graph.step_tables_s": [("core.graph", "step_tables")],
    "core.enumeration.enumerate_s": [("core.enumeration", "enumerate"),
                                     ("core.enumeration", "analyze_message")],
    "forwarding.run_s": [("forwarding", "run")],
    "sim.engine.run_s": [("sim.engine", "run")],
    "sim.vector.run_s": [("sim.vector", "run")],
    "exp.records.encode_s": [("exp.records", "encode")],
    "exp.records.decode_s": [("exp.records", "decode")],
    "exp.store.put_s": [("exp.store", "put")],
    "exp.store.load_s": [("exp.store", "load")],
    "svc.store.load_s": [("svc.store", "load")],
    "svc.store.put_s": [("svc.store", "put"), ("svc.store", "put_many")],
    "svc.store.query_s": [("svc.store", "query_entries")],
    "svc.store.get_s": [("svc.store", "get")],
    "svc.store.leaderboard_s": [("svc.store", "leaderboard")],
    "svc.store.refresh_s": [("svc.store", "refresh_entries")],
    "exp.orchestrator.self_s": [("exp.orchestrator", "run_experiment")],
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, extra: Dict[str, float]) -> \
        Dict[str, float]:
    """The ``per_layer`` metrics of one traced pass.

    *extra* carries what the spans cannot see: engine event totals from
    ``metrics.json``, store bytes from ``summary()`` and the flat store's
    records file, the traced and untraced timed-phase walls and the
    benchmark's own generation time.
    """
    by_name: Dict[tuple, float] = {}
    for record, own in zip(recorder.spans, recorder.self_times()):
        key = (record[1], record[0])
        by_name[key] = by_name.get(key, 0.0) + own
    counts = recorder.counts
    out: Dict[str, float] = {
        name: float(counts.get(name, 0.0) + extra.get(name, 0.0))
        for name, _unit in PER_LAYER}
    for metric, keys in _NAME_TIMES.items():
        out[metric] = sum(by_name.get(key, 0.0) for key in keys)
    out["analysis.figures_s"] = sum(
        (value for (layer, _name), value in by_name.items()
         if layer == "analysis.figures"), 0.0)
    out["core.enumeration.paths_per_s"] = _ratio(
        out["core.enumeration.paths"], out["core.enumeration.enumerate_s"])
    for engine in ("sim.engine", "sim.vector"):
        out[f"{engine}.events_per_s"] = _ratio(out[f"{engine}.events"],
                                               out[f"{engine}.run_s"])
    out["sim.engine.approval_ratio"] = _ratio(
        counts.get("sim.engine.forwarding_approvals", 0),
        counts.get("sim.engine.forwarding_decisions", 0))
    out["sim.engine.copies_per_delivery"] = _ratio(
        counts.get("sim.engine.copies_sent", 0),
        counts.get("sim.engine.deliveries", 0))
    writes = recorder.durations(("put", "put_many"), run_prefix="round")
    if writes:
        out["write_p50_ms"] = median(writes) * 1000.0
        out["write_tail_ms"] = tail(writes)[0] * 1000.0
    else:
        out["write_p50_ms"] = out["write_tail_ms"] = 0.0
    traced = extra["traced_wall_s"]
    # both walls paced (see pace.py), so the VM's spells do not show
    out["bench.trace_overhead"] = (extra["traced_paced_wall_s"]
                                   / extra["untraced_paced_wall_s"] - 1.0)
    out["bench.span_coverage"] = _ratio(
        recorder.root_covered_s("round"), traced)
    return out
