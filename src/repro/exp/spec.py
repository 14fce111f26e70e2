"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a grid — scenarios × protocols × one
optional constraint axis × seeds × runs × engine — and nothing else: no
imperative fan-out, no merge logic, no result shapes.  The planner
(:mod:`repro.exp.plan`) expands it into content-hashed jobs, the orchestrator
(:mod:`repro.exp.orchestrator`) executes them through the shared pool, and
the store (:mod:`repro.exp.store`) makes re-runs resumable.

Specs are expressible as plain dicts / JSON files so experiments can be
launched from the command line (``python -m repro exp run spec.json``)::

    {
      "name": "buffer-study",
      "scenarios": ["paper-buffer-crunch"],
      "protocols": ["Epidemic", "Binary Spray-and-Wait"],
      "seeds": [7, 8, 9],
      "num_runs": 2,
      "sweep": {"parameter": "buffer_capacity", "values": [2, 4, 8, null]},
      "constraints": {"ttl": 1800}
    }

Every field except ``name`` and ``scenarios`` is optional; omitted fields
fall back to each scenario's own registry values.  A ``scenarios`` entry is
either a registry name or an *inline scenario definition* — a full
:class:`repro.scenario.ScenarioSpec` dict (``{"kind": "scenario", ...}``,
see :mod:`repro.scenario`) — so a single JSON file can carry a whole
experiment including scenarios nobody registered; inline definitions are
validated eagerly at load and content-hashed by the planner exactly like
named scenarios.  The legacy entrypoints (:func:`repro.sim.run_scenario`,
:func:`repro.sim.sweep_scenario`, :func:`repro.routing.run_tournament`)
are thin adapters that build one of these specs internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..routing.registry import protocol_by_name, protocol_names
from ..sim.engine import SWEEPABLE_PARAMETERS, ResourceConstraints
from ..sim.scenarios import Scenario, get_scenario

__all__ = ["ENGINES", "ExperimentSpec", "SweepAxis", "constraints_to_dict"]

#: Accepted engine names: three values, one engine.  ``"trace"`` asks for
#: the idealized model (the plan rejects constrained grid points for it);
#: all three run :class:`~repro.sim.engine.DesSimulator`.  The names are
#: kept because the value is hashed into every stored job.
ENGINES = ("des", "trace", "vector")


def _normalize_scenario(entry: Union[str, Scenario, Mapping]) -> \
        Union[str, Scenario]:
    """One ``scenarios`` entry, validated eagerly.

    Names are checked against the registry (so a typo fails at spec load,
    not at plan time), inline definition dicts become :class:`Scenario`
    objects (whose own construction validates trace/workload/protocols),
    and :class:`Scenario` objects pass through.
    """
    if isinstance(entry, Scenario):
        return entry
    if isinstance(entry, str):
        get_scenario(entry)  # raises KeyError naming the known scenarios
        return entry
    if isinstance(entry, Mapping):
        return Scenario.from_dict(entry)
    raise ValueError(
        f"a scenarios entry must be a registry name, an inline scenario "
        f"definition dict, or a Scenario object; got {entry!r}")


@dataclass(frozen=True)
class SweepAxis:
    """One swept constraint axis: a parameter and its grid values.

    ``None`` values mean "unlimited" for that grid point, exactly as in
    :func:`repro.sim.sweep_scenario`.
    """

    parameter: str
    values: Tuple[Optional[float], ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"cannot sweep {self.parameter!r}; "
                f"choose one of {', '.join(SWEEPABLE_PARAMETERS)}")
        if not self.values:
            raise ValueError("a sweep axis needs at least one value")
        object.__setattr__(self, "values", tuple(
            None if value is None else float(value) for value in self.values))

    def to_dict(self) -> Dict[str, object]:
        return {"parameter": self.parameter, "values": list(self.values)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepAxis":
        return cls(parameter=payload["parameter"],
                   values=tuple(payload["values"]))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative grid of simulation jobs.

    Parameters
    ----------
    name:
        Experiment label, recorded on every stored :data:`RunRecord` (it is
        *not* part of job identity, so renaming an experiment keeps its
        stored results reusable).
    scenarios:
        Scenario registry names, inline scenario definition dicts
        (normalized to :class:`Scenario` eagerly), or — from code —
        :class:`Scenario` objects.
    protocols:
        Protocol names to run in every scenario; ``None`` uses each
        scenario's own algorithm list.
    seeds:
        Master seeds, each overriding the scenario's seed; ``None`` uses the
        scenario's own seed.
    num_runs:
        Workload runs per grid cell; ``None`` uses each scenario's own.
    constraints:
        Base resource constraints overriding every scenario's own.
    sweep:
        Optional :class:`SweepAxis` gridded on top of the base constraints.
    engine:
        ``"des"`` (default), ``"vector"`` or ``"trace"`` (the paper's
        idealized model: requires unconstrained grid points).  All three
        run the one engine; the value only enters the job hash, so
        existing specs and stored jobs stay valid.
    copy_semantics:
        ``"copy"`` / ``"handoff"`` override; ``None`` uses each scenario's.
    """

    name: str
    scenarios: Tuple[Union[str, Scenario], ...]
    protocols: Optional[Tuple[str, ...]] = None
    seeds: Optional[Tuple[int, ...]] = None
    num_runs: Optional[int] = None
    constraints: Optional[ResourceConstraints] = None
    sweep: Optional[SweepAxis] = None
    engine: str = "des"
    copy_semantics: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an experiment needs a name")
        if not self.scenarios:
            raise ValueError("an experiment needs at least one scenario")
        object.__setattr__(self, "scenarios",
                           tuple(_normalize_scenario(entry)
                                 for entry in self.scenarios))
        if self.protocols is not None:
            if not self.protocols:
                raise ValueError("protocols must be None or non-empty")
            object.__setattr__(self, "protocols", tuple(self.protocols))
            for name in self.protocols:
                try:
                    protocol_by_name(name)
                except KeyError:
                    raise ValueError(
                        f"unknown protocol {name!r}; valid protocols: "
                        f"{', '.join(protocol_names())}") from None
        if self.seeds is not None:
            if not self.seeds:
                raise ValueError("seeds must be None or non-empty")
            for seed in self.seeds:
                if int(seed) != seed:
                    raise ValueError(f"seeds must be integers, got {seed!r}")
            object.__setattr__(self, "seeds",
                               tuple(int(seed) for seed in self.seeds))
        if self.num_runs is not None and self.num_runs < 1:
            raise ValueError("num_runs must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"known: {', '.join(ENGINES)}")
        if self.copy_semantics not in (None, "copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The spec as a JSON-serializable dict.

        Named scenarios stay names; inline :class:`Scenario` objects
        serialize to their full scenario definition dicts (which requires
        their trace/workload to be registered spec types — a custom
        code-only workload raises :class:`TypeError` here).
        """
        payload: Dict[str, object] = {
            "name": self.name,
            "scenarios": [scenario if isinstance(scenario, str)
                          else scenario.to_dict()
                          for scenario in self.scenarios],
        }
        if self.protocols is not None:
            payload["protocols"] = list(self.protocols)
        if self.seeds is not None:
            payload["seeds"] = list(self.seeds)
        if self.num_runs is not None:
            payload["num_runs"] = self.num_runs
        if self.constraints is not None:
            payload["constraints"] = constraints_to_dict(self.constraints)
        if self.sweep is not None:
            payload["sweep"] = self.sweep.to_dict()
        if self.engine != "des":
            payload["engine"] = self.engine
        if self.copy_semantics is not None:
            payload["copy_semantics"] = self.copy_semantics
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentSpec":
        """Build a spec from a plain dict (the JSON file format).

        ``scenarios`` entries may be registry names or inline scenario
        definition dicts; see :meth:`repro.scenario.ScenarioSpec.from_dict`
        for the inline format.
        """
        known = {"name", "scenarios", "protocols", "seeds", "num_runs",
                 "constraints", "sweep", "engine", "copy_semantics"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown experiment spec fields: "
                             f"{', '.join(sorted(unknown))}")
        constraints = payload.get("constraints")
        if constraints is not None and not isinstance(
                constraints, ResourceConstraints):
            if not isinstance(constraints, dict):
                raise ValueError(
                    f"'constraints' must be an object of constraint "
                    f"fields, got {constraints!r}")
            # from_dict (not **kwargs) so nested channel/churn fault specs
            # decode through their registered spec kinds
            constraints = ResourceConstraints.from_dict(constraints)
        sweep = payload.get("sweep")
        if sweep is not None and not isinstance(sweep, SweepAxis):
            if not isinstance(sweep, dict) or \
                    not {"parameter", "values"} <= set(sweep):
                raise ValueError(
                    f"'sweep' must be an object with 'parameter' and "
                    f"'values', got {sweep!r}")
            sweep = SweepAxis.from_dict(sweep)
        return cls(
            name=payload["name"],
            scenarios=tuple(payload["scenarios"]),
            protocols=(tuple(payload["protocols"])
                       if payload.get("protocols") is not None else None),
            seeds=(tuple(payload["seeds"])
                   if payload.get("seeds") is not None else None),
            num_runs=payload.get("num_runs"),
            constraints=constraints,
            sweep=sweep,
            engine=payload.get("engine", "des"),
            copy_semantics=payload.get("copy_semantics"),
        )

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file (the ``exp`` CLI input format)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def constraints_to_dict(constraints: ResourceConstraints) -> Dict[str, object]:
    """*constraints* as the dict ``ResourceConstraints.from_dict`` rebuilds
    — the one serialization specs and RunRecords share.  The fault specs
    are emitted only when present, so pre-fault records and spec files
    keep their exact historical shape."""
    payload: Dict[str, object] = {
        "buffer_capacity": constraints.buffer_capacity,
        "bandwidth": constraints.bandwidth,
        "ttl": constraints.ttl,
        "message_size": constraints.message_size,
        "drop_policy": constraints.drop_policy,
    }
    if constraints.channel is not None:
        payload["channel"] = constraints.channel.to_dict()
    if constraints.churn is not None:
        payload["churn"] = constraints.churn.to_dict()
    return payload
