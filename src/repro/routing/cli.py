"""The ``python -m repro routing`` subcommands.

Wired into the main parser by :mod:`repro.sim.cli`::

    python -m repro routing list                   # the protocol zoo
    python -m repro routing run <scenario> \\
        --protocols PRoPHET,Epidemic [...]         # one scenario, chosen protocols
    python -m repro routing tournament \\
        --scenarios paper-ideal,rwp-courtyard \\
        --protocols all --seed 7 [...]             # the leaderboard

Protocol names are case- and separator-insensitive (``prophet`` ==
``PRoPHET``, ``binary-spray-and-wait`` == ``Binary Spray-and-Wait``), so
none of them need shell quoting.
"""

from __future__ import annotations

import argparse
import time
from typing import List

from ..analysis.tables import format_table
from .registry import protocol_by_name, protocol_catalogue, protocol_names

__all__ = ["add_routing_commands", "dispatch_routing_command"]


def add_routing_commands(commands: argparse._SubParsersAction) -> None:
    """Attach the ``routing`` command tree to the main parser."""
    routing = commands.add_parser(
        "routing", help="stateful protocol zoo and cross-scenario tournament")
    routing_commands = routing.add_subparsers(dest="routing_command",
                                              required=True)

    routing_commands.add_parser("list", help="list the registered protocols")

    run = routing_commands.add_parser(
        "run", help="run one scenario under chosen protocols")
    run.add_argument("scenario", help="a scenario name (see 'repro sim list')")
    run.add_argument("--protocols", default="all",
                     help="comma-separated protocol names, or 'all' "
                          "(default: all)")
    run.add_argument("--runs", type=int, default=None,
                     help="override the scenario's number of workload runs")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's master seed")
    run.add_argument("--parallel", action="store_true",
                     help="fan (run x protocol) simulations over a process pool")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool size (default: CPU count)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the result rows as JSON")

    tournament = routing_commands.add_parser(
        "tournament", help="rank protocols across scenarios and seeds")
    tournament.add_argument("--scenarios", default="all",
                            help="comma-separated scenario names, or 'all' "
                                 "(default: all)")
    tournament.add_argument("--protocols", default="all",
                            help="comma-separated protocol names, or 'all' "
                                 "(default: all)")
    tournament.add_argument("--seeds", "--seed", dest="seeds", default="7",
                            help="comma-separated master seeds (default: 7)")
    tournament.add_argument("--runs", type=int, default=None,
                            help="override each scenario's number of "
                                 "workload runs")
    tournament.add_argument("--parallel", action="store_true",
                            help="fan each scenario cell over a process pool")
    tournament.add_argument("--workers", type=int, default=None)
    tournament.add_argument("--lossy", nargs="?", const=0.1, default=None,
                            type=float, metavar="LOSS",
                            help="rank under a lossy channel: run each "
                                 "selected scenario as its '+lossy' variant "
                                 "with this transfer-loss probability "
                                 "(default when given: 0.1)")
    tournament.add_argument("--json", metavar="PATH", default=None,
                            help="also write leaderboard + per-cell rows "
                                 "as JSON")
    tournament.add_argument("--leaderboard-json", metavar="PATH",
                            default=None,
                            help="write just the final ranked leaderboard "
                                 "rows as JSON (machine-readable, for CI "
                                 "assertions and the explain report)")
    tournament.add_argument("--explain", metavar="A,B", default=None,
                            help="after the run, explain the leaderboard "
                                 "gap between two protocols from their "
                                 "traces (requires --trace-dir)")
    tournament.add_argument("--live", action="store_true",
                            help="print live standings as grid cells "
                                 "complete, not only the final leaderboard")
    tournament.add_argument("--live-every", type=int, default=None,
                            metavar="N",
                            help="with --live, redraw after every N "
                                 "completed jobs (default: one redraw per "
                                 "~10%% of the grid)")
    tournament.add_argument("--trace-dir", default=None, metavar="DIR",
                            help="write one JSONL trace file per executed "
                                 "job into DIR")
    tournament.add_argument("--metrics-json", default=None, metavar="PATH",
                            help="write a run-telemetry metrics.json "
                                 "artifact for the tournament grid")
    tournament.add_argument("--profile", action="store_true",
                            help="collect engine telemetry even without "
                                 "--metrics-json (implies per-job "
                                 "telemetry)")


def _parse_names(raw: str) -> List[str]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise SystemExit("expected a non-empty, comma-separated name list")
    return names


def _parse_protocols(raw: str):
    if raw.strip().lower() == "all":
        return "all"
    # resolve through the registry so typos fail before any simulation
    return [protocol_by_name(name).name for name in _parse_names(raw)]


def _cmd_routing_list() -> int:
    print(format_table(protocol_catalogue()))
    print(f"\n{len(protocol_names())} protocols registered "
          f"(paper six + stateful zoo)")
    return 0


def _cmd_routing_run(args: argparse.Namespace, write_json) -> int:
    from ..sim.runner import run_scenario
    from ..sim.scenarios import get_scenario

    scenario = get_scenario(args.scenario)
    selected = _parse_protocols(args.protocols)
    if selected == "all":
        selected = protocol_names()
    spec = scenario.with_overrides(algorithms=tuple(selected))
    started = time.perf_counter()
    result = run_scenario(spec, num_runs=args.runs, seed=args.seed,
                          parallel=args.parallel, n_workers=args.workers)
    elapsed = time.perf_counter() - started
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"trace: {result.trace_name}  ({result.num_nodes} nodes, "
          f"{result.num_contacts} contacts)")
    print(f"protocols: {', '.join(selected)}")
    print(f"workload: {result.num_messages} messages over "
          f"{result.scenario.num_runs} run(s)\n")
    rows = result.table_rows()
    print(format_table(rows))
    print(f"\ncompleted in {elapsed:.2f}s")
    write_json(args.json, {"scenario": scenario.name,
                           "trace": result.trace_name, "rows": rows})
    return 0


def _cmd_routing_tournament(args: argparse.Namespace, write_json) -> int:
    from .tournament import lossy_variant, run_tournament

    protocols = _parse_protocols(args.protocols)
    scenarios = ("all" if args.scenarios.strip().lower() == "all"
                 else _parse_names(args.scenarios))
    if args.lossy is not None:
        if not 0.0 <= args.lossy < 1.0:
            raise SystemExit(f"--lossy must be in [0, 1), got {args.lossy}")
        from ..sim.scenarios import scenario_names

        selected = scenario_names() if scenarios == "all" else scenarios
        # inline variants: the registry and its golden catalogue stay as-is
        scenarios = [lossy_variant(name, loss=args.lossy)
                     for name in selected]
    try:
        seeds = [int(token) for token in _parse_names(args.seeds)]
    except ValueError:
        raise SystemExit(f"--seeds must be integers, got {args.seeds!r}")
    explain_pair = None
    if args.explain is not None:
        explain_pair = _parse_names(args.explain)
        if len(explain_pair) != 2:
            raise SystemExit("--explain takes exactly two protocol names, "
                             "e.g. --explain Epidemic,PRoPHET")
        explain_pair = [protocol_by_name(name).name for name in explain_pair]
        if not args.trace_dir:
            raise SystemExit("--explain needs per-job traces: "
                             "pass --trace-dir as well")
    obs = None
    if args.trace_dir or args.metrics_json or args.profile:
        from ..obs.telemetry import ObsConfig

        obs = ObsConfig(trace_dir=args.trace_dir,
                        metrics_path=args.metrics_json,
                        profile=args.profile)
    progress = None
    if args.live:
        from ..obs.feed import LiveLeaderboard

        board = LiveLeaderboard()
        live_state = {"settled": 0, "total": 0}
        redraw_every = args.live_every or 0

        def progress(event, job, value):
            if event == "plan":
                live_state["total"] = len(value.jobs)
                return
            live_state["settled"] += 1
            if event != "failed":
                board.observe(job.protocol, value)
            every = redraw_every
            if every <= 0:
                # ~10 redraws over the grid (at least one per completion
                # on tiny grids)
                every = max(1, live_state["total"] // 10)
            if live_state["settled"] % every == 0 \
                    and live_state["settled"] < live_state["total"]:
                print(f"\n[{live_state['settled']}/{live_state['total']} "
                      f"jobs] current standings:")
                print(board.table(), flush=True)

    started = time.perf_counter()
    result = run_tournament(protocols=protocols, scenarios=scenarios,
                            seeds=seeds, num_runs=args.runs,
                            parallel=args.parallel, n_workers=args.workers,
                            obs=obs, progress=progress)
    elapsed = time.perf_counter() - started
    print(f"tournament: {len(result.protocols)} protocols × "
          f"{len(result.scenarios)} scenarios × {len(result.seeds)} seed(s)")
    print(f"scenarios: {', '.join(result.scenarios)}")
    if obs is not None:
        if obs.trace_dir:
            print(f"traces: {obs.trace_dir}/")
        if obs.metrics_path:
            print(f"metrics: {obs.metrics_path}")
    print()
    print(result.leaderboard_table())
    print(f"\ncompleted in {elapsed:.2f}s")
    if explain_pair is not None:
        explanation = result.explain(explain_pair[0], explain_pair[1],
                                     trace_dir=args.trace_dir)
        print()
        print(explanation.report())
    write_json(args.json, {
        "protocols": result.protocols,
        "scenarios": result.scenarios,
        "seeds": result.seeds,
        "leaderboard": result.leaderboard_rows(),
        "cells": result.cell_rows(),
    })
    write_json(args.leaderboard_json, {
        "leaderboard": result.leaderboard_rows(),
    })
    return 0


def dispatch_routing_command(args: argparse.Namespace, write_json) -> int:
    """Route a parsed ``routing`` command to its handler."""
    if args.routing_command == "list":
        return _cmd_routing_list()
    if args.routing_command == "run":
        return _cmd_routing_run(args, write_json)
    return _cmd_routing_tournament(args, write_json)
