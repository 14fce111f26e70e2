#!/usr/bin/env python3
"""End-to-end benchmark of the repro program: one command, four workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper-campaign --seed 1 \\
        --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1     # every workload

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes the same untraced pass, then a second pass over the
same inputs with span wrappers installed on every layer, and reports the
per-layer metrics.  Every metric is printed by name with its unit and
sample count; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Per-run samples,
digests and the environment go to ``.e2ebench/results/`` in the checkout.

The command exits 1 when an output check fails and 2 when the program
cannot be found.  See README.md in this directory for the workloads, the
metrics and the predictions they carry.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".e2ebench"
EXPECTED = HERE / "expected.json"

from layers import (PER_LAYER, benchmark_metrics, install,  # noqa: E402
                    layer_metrics)
from pace import Pace  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402
from stats import median, tail  # noqa: E402
from workloads import WORKLOADS, OpClock  # noqa: E402

END_TO_END = benchmark_metrics("end_to_end")
#: probes timed on each side of a set-up, and before and after a pass
SETUP_PROBES = 10


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(setup) -> tuple:
    """``(raw, paced)`` seconds of one call of *setup*, paced by the
    probes taken just before and just after it."""
    pace = Pace()
    for _ in range(SETUP_PROBES):
        pace.probe()
    started = time.perf_counter()
    setup()
    raw = time.perf_counter() - started
    for _ in range(SETUP_PROBES):
        pace.probe()
    return raw, raw * pace.factor(started)


def probe_setup(name: str, seed: int, seconds: float) -> tuple:
    """Time one cold set-up (imports included) in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    timed = json.loads(completed.stdout.strip().splitlines()[-1])
    return timed["raw_s"], timed["paced_s"]


def run_pass(workload, label: str, recorder=None, pace=None,
             between_ops: bool = True) -> dict:
    """Every round of *workload*, each checked after its timed interval.

    With a *pace*, probes are timed before the first round and after the
    last, and (*between_ops*) between ops; a round's wall time leaves them
    out.  The traced pass probes only before and after, so that no probe
    falls inside a span.
    """
    clock = OpClock(pace if between_ops else None)
    walls, ends, round_ops, digests, problems, failed = [], [], [], [], [], 0
    if recorder is not None:
        recorder.run_id = "setup"
    workload.begin_pass(label)
    if pace is not None:
        for _ in range(SETUP_PROBES):
            pace.probe()
    for index in range(workload.rounds):
        before = len(clock.samples)
        probed = clock.probe_s
        # every timed interval starts from a collected heap, so a pass does
        # not inherit the collector debt of the checks before it
        gc.collect()
        if recorder is not None:
            recorder.run_id = f"round-{index}"
        wall, outputs = workload.run_round(index, clock,
                                           traced=recorder is not None)
        ends.append(time.perf_counter())
        if recorder is not None:
            recorder.run_id = "check"
        walls.append(wall - (clock.probe_s - probed))
        round_ops.append(len(clock.samples) - before)
        round_digest, round_problems = workload.check_round(index, outputs)
        digests.append(round_digest)
        if round_problems:
            failed += len(clock.samples) - before
            problems.extend(round_problems)
    workload.end_pass()
    if pace is not None:
        for _ in range(SETUP_PROBES):
            pace.probe()
    return {"walls": walls, "ends": ends, "round_ops": round_ops,
            "digests": digests,
            "problems": problems, "failed": failed, "samples": clock.samples,
            "kinds": clock.kinds, "op_ends": clock.ends, "pace": pace}


def measure(name: str, seed: int, seconds: float, traced: bool,
            workdir: Path, inject=None) -> dict:
    """One run of workload *name*: set-up, untraced pass, traced pass."""
    workload = WORKLOADS[name](seed, seconds, workdir)
    setup_samples = []
    generate_s = 0.0
    if workload.setup_imports:
        gc.collect()
        setup_samples.append(timed_setup(workload.setup))
        if not traced:
            setup_samples += [probe_setup(name, seed, seconds) for _ in
                              range(workload.setup_repeats - 1)]
    else:
        started = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - started
        for _ in range(1 if traced else workload.setup_repeats):
            gc.collect()
            setup_samples.append(timed_setup(workload.setup))
    patcher = Patcher()
    if inject:
        from selfcheck import install_slowdown

        install_slowdown(patcher, *inject)
    try:
        untraced = run_pass(workload, "untraced", pace=Pace())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_pass = None
        recorder = None
        if traced:
            recorder = SpanRecorder()
            install(recorder, patcher)
            workload.setup()
            traced_pass = run_pass(workload, "traced", recorder, Pace(),
                                   between_ops=False)
    finally:
        patcher.restore()
    return {"workload": workload, "setup_samples": setup_samples,
            "generate_s": generate_s, "untraced": untraced,
            "traced": traced_pass, "recorder": recorder,
            "peak_rss_mb": peak_rss_mb}


def paced(untraced: dict) -> tuple:
    """``(op samples, timed wall)`` of an untraced pass in reference time.

    Each op is scaled by the pace around its midpoint, the pass's timed
    wall time by the pace of the whole pass.
    """
    pace = untraced["pace"]
    samples = [value * pace.factor(end - value / 2.0)
               for value, end in zip(untraced["samples"], untraced["op_ends"])]
    return samples, sum(untraced["walls"]) * pace.overall()


def end_to_end(run: dict) -> tuple:
    """``(metrics, notes, extra)``: the end-to-end values, their sample
    counts, and the values reported beside them.

    Timing metrics are paced (see pace.py); their raw wall-clock values
    are reported beside them as ``raw_*``.
    """
    untraced = run["untraced"]
    raw_samples = untraced["samples"]
    raw_wall = sum(untraced["walls"])
    samples, wall = paced(untraced)
    tail_value, slowest, count = tail(samples)
    setups = run["setup_samples"]
    metrics = {
        "ops_per_s": len(samples) / wall,
        "op_p50_ms": median(samples) * 1000.0,
        "op_tail_ms": tail_value * 1000.0,
        "setup_s": median([paced_s for _raw, paced_s in setups]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    rounds = len(untraced["walls"])
    probes = untraced["pace"].probes
    notes = {
        "ops_per_s": f"{count} ops in {rounds} rounds, {wall:.3f} s paced",
        "op_p50_ms": f"n={count}",
        "op_tail_ms": f"mean of the slowest {slowest} of {count}",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "ru_maxrss after the untraced pass",
    }
    raw_tail = tail(raw_samples)[0]
    # reported beside the contract metrics: the raw timings, the pace,
    # failures and store appends
    extra = {
        "raw_ops_per_s": (len(raw_samples) / raw_wall, "ops/s",
                          f"{raw_wall:.3f} s wall"),
        "raw_op_p50_ms": (median(raw_samples) * 1000.0, "ms", f"n={count}"),
        "raw_op_tail_ms": (raw_tail * 1000.0, "ms",
                           f"slowest {slowest} of {count}"),
        "raw_setup_s": (median([raw for raw, _paced in setups]), "s",
                        f"median of {len(setups)}"),
        "pace": (untraced["pace"].overall(), "ratio",
                 f"reference / mean of {len(probes)} probes"),
        "failed_share": (untraced["failed"] / len(samples), "ratio",
                         f"{untraced['failed']} of {count} ops")}
    writes = [value for value, kind in zip(samples, untraced["kinds"])
              if kind == "append"]
    if writes:
        write_tail, write_slowest, write_count = tail(writes)
        extra["write_p50_ms"] = (median(writes) * 1000.0, "ms",
                                 f"n={write_count}")
        extra["write_tail_ms"] = (write_tail * 1000.0, "ms",
                                  f"mean of the slowest {write_slowest} "
                                  f"of {write_count}")
    return metrics, notes, extra


def expected_digests(name: str, seed: int) -> list:
    try:
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    if recorded.get("seed") != seed:
        return []
    return recorded.get("digests", {}).get(name, [])


def run_one(args) -> int:
    name = args.workload
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inject = None
    if args.inject_slowdown:
        target, _, fraction = args.inject_slowdown.partition("=")
        inject = (target, float(fraction or 0.15))
    try:
        run = measure(name, args.seed, args.seconds, bool(args.trace),
                      workdir, inject)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    untraced = run["untraced"]
    problems = list(untraced["problems"])
    attempted = len(untraced["samples"])
    failed = untraced["failed"]
    expected = [] if args.record else expected_digests(name, args.seed)
    for index, (got, want) in enumerate(zip(untraced["digests"], expected)):
        if got != want:
            problems.append(f"round {index}: digest {got[:12]} differs from "
                            f"the recorded {want[:12]}")
            failed = attempted
    metrics, notes, extra = end_to_end(run)
    layer_values = layer_self = None
    if run["traced"] is not None:
        traced = run["traced"]
        problems += traced["problems"]
        attempted += len(traced["samples"])
        failed += traced["failed"]
        if traced["digests"] != untraced["digests"]:
            problems.append("the traced pass's digests differ from the "
                            "untraced pass's")
            failed = attempted
        recorder = run["recorder"]
        extra_counts = dict(run["workload"].extra)
        extra_counts.update({
            "traced_wall_s": sum(traced["walls"]),
            "traced_paced_wall_s": sum(traced["walls"])
            * traced["pace"].overall(),
            "untraced_paced_wall_s": paced(untraced)[1],
            "bench.generate_s": run["generate_s"]})
        layer_values = layer_metrics(recorder, extra_counts)
        recorder.dump(STATE / "results" /
                      f"spans-{name}-seed{args.seed}.jsonl")
        layer_self = recorder.layer_self_s("round")
    if args.record:
        recorded = (json.loads(EXPECTED.read_text(encoding="utf-8"))
                    if EXPECTED.exists() else {})
        if recorded.get("seed") != args.seed:
            recorded = {"seed": args.seed, "digests": {}}
        recorded["digests"][name] = untraced["digests"]
        EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")

    environment = {"commit": commit(), "python": platform.python_version(),
                   "nproc": os.cpu_count(), "platform": platform.platform()}
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"commit {environment['commit']}  python {environment['python']}"
          f"  nproc {environment['nproc']}")
    for metric, unit in END_TO_END:
        print(f"  {metric:<14} {metrics[metric]:>14.6g} {unit:<6} "
              f"({notes[metric]})")
    for metric, (value, unit, note) in extra.items():
        print(f"  {metric:<14} {value:>14.6g} {unit:<6} ({note})")
    if layer_values is not None:
        print("  per-layer (traced pass):")
        for metric, unit in PER_LAYER:
            print(f"    {metric:<34} {layer_values[metric]:>14.6g} {unit}")
        dominant = sorted(layer_self.items(), key=lambda item: -item[1])
        total = sum(layer_self.values()) or 1.0
        print("  self time by layer: " + ", ".join(
            f"{layer} {seconds / total:.1%}" for layer, seconds in dominant))
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    results = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "end_to_end": metrics, "notes": notes,
        "extra": {key: value for key, (value, _u, _n) in extra.items()},
        "per_layer": layer_values,
        "layer_self_s": layer_self,
        "setup_samples_s": run["setup_samples"],
        "generate_s": run["generate_s"],
        "round_walls_s": untraced["walls"], "digests": untraced["digests"],
        "probe_s": untraced["pace"].probes,
        "probe_at_s": untraced["pace"].times, "op_ends_s": untraced["op_ends"],
        "round_ends_s": untraced["ends"], "round_ops": untraced["round_ops"],
        "op_samples_s": untraced["samples"], "op_kinds": untraced["kinds"],
        "problems": problems,
    }
    out = STATE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results) + "\n", encoding="utf-8")

    if layer_values is not None:
        reported = {metric: {"value": layer_values[metric], "unit": unit}
                    for metric, unit in PER_LAYER}
    else:
        reported = {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if not problems else 1


def run_many(args, names) -> int:
    """Each workload in its own fresh process, then one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            correct = False
            continue
        summary = json.loads(lines[-1])
        correct = correct and summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        for metric, value in summary["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma "
                             f"list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's round digests as the "
                             "expected ones for its seed")
    parser.add_argument("--inject-slowdown", metavar="LAYER=FRACTION",
                        help="self-check only: add busy time to one layer "
                             "(sim.engine or core.enumeration)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: the program's sources are missing "
                         f"({SRC.relative_to(ROOT)}/repro)\n")
        return 2
    sys.path.insert(0, str(SRC))
    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    if args.setup_probe:
        workload = WORKLOADS[names[0]](args.seed, args.seconds, STATE)
        raw, paced_s = timed_setup(workload.setup)
        print(json.dumps({"raw_s": raw, "paced_s": paced_s}))
        return 0
    if len(names) > 1:
        return run_many(args, names)
    args.workload = names[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
