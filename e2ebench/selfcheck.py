#!/usr/bin/env python3
"""Injected-slowdown self-check of the benchmark's bounds and predictions.

Wraps one layer's entry point — ``DesSimulator.run`` (``sim.engine``) or
``PathEnumerator.enumerate`` (``core.enumeration``) — so that every call
spins for an extra share of its own duration, then runs each workload
with and without the slowdown and reports, per end-to-end metric, the
change of the median against the bound in BENCHMARK.json.  The prediction
table in README.md says which workload should trip: ``sim.engine`` on
paper-campaign, ``core.enumeration`` on paper-figures, nothing elsewhere.

    python3 e2ebench/selfcheck.py --target sim.engine --runs 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TARGETS = {
    "sim.engine": ("repro.sim.engine", "DesSimulator", "run"),
    "core.enumeration": ("repro.core.enumeration", "PathEnumerator",
                         "enumerate"),
}


def install_slowdown(patcher, target: str, fraction: float) -> None:
    """Make every call of *target* busy for *fraction* of its own time."""
    from importlib import import_module

    module, owner, attr = TARGETS[target]
    cls = getattr(import_module(module), owner)

    def slow(original):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            until = time.perf_counter() + fraction * (time.perf_counter()
                                                      - started)
            while time.perf_counter() < until:
                pass
            return result
        return wrapper

    patcher.method(cls, attr, slow)


def run(workload: str, seed: int, seconds: float, inject=None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        command += ["--inject-slowdown", inject]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=300, check=True)
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: value["value"] for name, value in
            summary["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", choices=sorted(TARGETS), required=True)
    parser.add_argument("--fraction", type=float, default=0.15)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="all")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ([item["name"] for item in spec["workloads"]]
             if args.workloads == "all" else args.workloads.split(","))
    seconds = spec["run_seconds"]
    inject = f"{args.target}={args.fraction}"
    tripped = {}
    for name in names:
        base, slow = [], []
        # alternate which side runs first; seed i is shared by both sides
        for index in range(args.runs):
            pair = [(base, None), (slow, inject)]
            for bucket, flag in (pair if index % 2 == 0 else pair[::-1]):
                bucket.append(run(name, 100 + index, seconds, flag))
        tripped[name] = []
        for metric in spec["end_to_end"]:
            key = metric["name"]
            before = statistics.median(values[key] for values in base)
            after = statistics.median(values[key] for values in slow)
            worse = ((before - after) / before if metric["better"] == "higher"
                     else (after - before) / before)
            trips = worse > metric["bound"]
            if trips:
                tripped[name].append(key)
            print(f"{name:<15} {key:<12} base {before:>11.5g} slowed "
                  f"{after:>11.5g} worse by {worse:+7.1%} (bound "
                  f"{metric['bound']:.0%}){'  TRIPS' if trips else ''}")
    print(json.dumps({"target": args.target, "fraction": args.fraction,
                      "runs": args.runs, "tripped": tripped}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
