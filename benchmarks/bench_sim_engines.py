#!/usr/bin/env python3
"""Benchmark: the one DES engine, idealized, constrained and at city scale.

Two sections share one ``BENCH_sim.json`` artifact:

* **dataset records** — the Section 6 forwarding replay of one Poisson
  workload on the benchmark-scale primary dataset (a) on the idealized
  model (``vector_s``: the hot loop fast-path protocols take, and what
  ``ForwardingSimulator`` runs) and (b) under a representative constraint
  set (``des_constrained_s``);
* **vector record** — the city-scale headline: Epidemic on an
  ``rwp-city-*`` scenario (``rwp-city-1k`` in ``--quick`` mode,
  ``rwp-city-10k`` in full mode), with its event throughput.

There is one engine, so no ratio between engines is recorded; the
times are informational for ``python -m repro obs bench-check``.
Medians are written to ``BENCH_sim.json`` at the repo root so the numbers
are tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_sim_engines.py [--quick]
        [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE, _HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.datasets import load_dataset  # noqa: E402
from repro.forwarding import PoissonMessageWorkload  # noqa: E402
from repro.forwarding.algorithms import algorithm_by_name  # noqa: E402
from repro.routing.registry import protocol_by_name  # noqa: E402
from repro.sim import DesSimulator, ResourceConstraints, get_scenario  # noqa: E402

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_sim.json"
ALGORITHMS = ("Epidemic", "Greedy", "Dynamic Programming")
CONSTRAINED = ResourceConstraints(buffer_capacity=8.0, ttl=2700.0)
VECTOR_PROTOCOL = "Epidemic"


def _time_runs(factory, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        factory()
        samples.append(time.perf_counter() - started)
    return samples


def _bench_dataset_engines(quick: bool) -> dict:
    scale = 0.2 if quick else 0.5
    repeats = 3 if quick else 5
    rate = 0.02 if quick else 0.05
    trace = load_dataset("infocom06-9-12", scale=scale, contact_scale=scale)
    messages = PoissonMessageWorkload(rate=rate).generate(trace, seed=77)
    print(f"dataset: {trace.name} ({trace.num_nodes} nodes, {len(trace)} "
          f"contacts), {len(messages)} messages, {repeats} repetitions\n")

    records = {}
    for name in ALGORITHMS:
        vector_samples = _time_runs(
            lambda: DesSimulator(trace, algorithm_by_name(name)).run(messages),
            repeats)
        constrained_samples = _time_runs(
            lambda: DesSimulator(trace, algorithm_by_name(name),
                                 constraints=CONSTRAINED).run(messages),
            repeats)
        vector_median = statistics.median(vector_samples)
        constrained_median = statistics.median(constrained_samples)
        records[name] = {
            "vector_s": vector_median,
            "des_constrained_s": constrained_median,
            "samples": {
                "vector": vector_samples,
                "des_constrained": constrained_samples,
            },
        }
        print(f"  {name:<22s} idealized {vector_median * 1e3:8.1f} ms   "
              f"constrained {constrained_median * 1e3:8.1f} ms")
    return {"dataset": trace.name, "num_messages": len(messages),
            "repeats": repeats, "records": records}


def _bench_vector_kernel(quick: bool) -> dict:
    scenario = get_scenario("rwp-city-1k" if quick else "rwp-city-10k")
    repeats = 3
    print(f"\ncity scale: scenario {scenario.name!r} (building the trace...)")
    trace = scenario.build_trace()
    messages = scenario.build_messages(trace, 0)
    num_events = 2 * len(trace) + len(messages)
    print(f"  {trace.num_nodes} nodes, {len(trace)} contacts, "
          f"{len(messages)} messages")

    def _run():
        return DesSimulator(trace, protocol_by_name(VECTOR_PROTOCOL),
                            constraints=scenario.constraints,
                            seed=scenario.seed).run(messages)

    delivered = _run().num_delivered  # untimed warmup
    samples = _time_runs(_run, repeats)
    median = statistics.median(samples)
    print(f"  {median:8.2f} s   (best of {repeats}: {min(samples):.2f} s), "
          f"{delivered}/{len(messages)} delivered")
    return {
        "scenario": scenario.name,
        "protocol": VECTOR_PROTOCOL,
        "num_nodes": trace.num_nodes,
        "num_contacts": len(trace),
        "num_messages": len(messages),
        "num_delivered": delivered,
        "vector_s": median,
        "vector_events_per_s": num_events / median,
        "samples": {"vector": samples},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset, fewer repetitions, and the "
                             "1k-node (not 10k-node) city scenario")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    dataset_section = _bench_dataset_engines(args.quick)
    vector_section = _bench_vector_kernel(args.quick)

    payload = {
        "benchmark": "sim_engines",
        "dataset": dataset_section["dataset"],
        "num_messages": dataset_section["num_messages"],
        "repeats": dataset_section["repeats"],
        "python": platform.python_version(),
        "records": dataset_section["records"],
        "vector": vector_section,
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
