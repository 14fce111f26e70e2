"""Resource-constrained discrete-event forwarding simulation.

This package extends the paper's idealized Section 6 evaluation with one
event-driven engine (:mod:`repro.sim.engine`, over the presorted event
timeline of :mod:`repro.sim.events`) that models finite buffers,
bandwidth-limited contacts, message TTL, channel faults and node churn, a
scenario registry (:mod:`repro.sim.scenarios`), a batch/sweep runner
(:mod:`repro.sim.runner`) and the ``python -m repro`` command line
(:mod:`repro.sim.cli`).

With all constraints disabled the engine replays the paper's idealized
Section 6.1 model; :class:`repro.forwarding.ForwardingSimulator` is the
engine fixed to that configuration, and
:class:`~repro.sim.vector.VectorSimulator` is the engine under the former
vector kernel's name.  The paper's six forwarding algorithms run
unchanged, wrapped by :func:`repro.routing.ensure_protocol`.
"""

from .buffers import (
    DROP_LARGEST,
    DROP_OLDEST,
    DROP_POLICIES,
    DROP_YOUNGEST,
    BufferEntry,
    NodeBuffer,
)
from .engine import (
    UNCONSTRAINED,
    ConstrainedSimulationResult,
    DesSimulator,
    ResourceConstraints,
    ResourceStats,
)
from .faults import ChannelSpec, ChurnSpec
from .vector import VectorSimulator
from .runner import ScenarioRunResult, SweepResult, run_scenario, sweep_scenario
from .scenarios import (
    DatasetTraceSpec,
    FileTraceSpec,
    RandomWaypointTraceSpec,
    Scenario,
    ScenarioSpec,
    TwoClassTraceSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    scenarios,
)

__all__ = [
    "DROP_LARGEST",
    "DROP_OLDEST",
    "DROP_POLICIES",
    "DROP_YOUNGEST",
    "BufferEntry",
    "NodeBuffer",
    "UNCONSTRAINED",
    "ConstrainedSimulationResult",
    "DesSimulator",
    "ResourceConstraints",
    "ResourceStats",
    "VectorSimulator",
    "ChannelSpec",
    "ChurnSpec",
    "ScenarioRunResult",
    "SweepResult",
    "run_scenario",
    "sweep_scenario",
    "DatasetTraceSpec",
    "FileTraceSpec",
    "RandomWaypointTraceSpec",
    "Scenario",
    "ScenarioSpec",
    "TwoClassTraceSpec",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenarios",
]
