#!/usr/bin/env python3
"""Benchmark: the protocol zoo on the paper dataset stand-ins.

Times one Poisson-workload replay of every registered protocol (the paper
six through the compatibility wrapper plus the stateful zoo) on the
unconstrained event engine on the benchmark-scale primary dataset, and
records the delivery / overhead profile (success rate, copies per
delivery) so the routing subsystem's perf *and* quality trajectory is
tracked across PRs.  Medians are written to ``BENCH_routing.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/bench_routing.py [--quick]
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
from repro.routing import protocol_by_name, protocol_names  # noqa: E402
from repro.sim import DesSimulator  # noqa: E402

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_routing.json"


def _time_runs(factory, repeats: int):
    """Wall-clock samples of *repeats* calls, and the last call's result."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = factory()
        samples.append(time.perf_counter() - started)
    return samples, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset and fewer repetitions")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    scale = 0.2 if args.quick else 0.4
    repeats = 3 if args.quick else 5
    rate = 0.02 if args.quick else 0.04
    trace = load_dataset("infocom06-9-12", scale=scale, contact_scale=scale)
    messages = PoissonMessageWorkload(rate=rate).generate(trace, seed=77)
    print(f"dataset: {trace.name} ({trace.num_nodes} nodes, {len(trace)} "
          f"contacts), {len(messages)} messages, {repeats} repetitions\n")

    records = {}
    for name in protocol_names():
        samples, result = _time_runs(
            lambda: DesSimulator(trace, protocol_by_name(name)).run(messages),
            repeats)
        summary = result.summary()
        median = statistics.median(samples)
        records[name] = {
            "run_s": median,
            "success_rate": summary["success_rate"],
            "copies_sent": summary["copies_sent"],
            "copies_per_delivery": summary["copies_per_delivery"],
            "samples": {"run": samples},
        }
        overhead = summary["copies_per_delivery"]
        print(f"  {name:<22s} {median * 1e3:8.1f} ms   "
              f"success {summary['success_rate']:5.2f}   "
              f"copies/delivery "
              f"{overhead if overhead is None else round(overhead, 2)}")

    payload = {
        "benchmark": "routing_protocols",
        "dataset": trace.name,
        "num_messages": len(messages),
        "repeats": repeats,
        "python": platform.python_version(),
        "records": records,
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
