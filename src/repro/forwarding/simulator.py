"""Trace-driven forwarding simulation (Section 6.1 of the paper).

The simulator replays a contact trace in time order and lets a forwarding
algorithm decide, at every contact, whether the encountered node should
receive a copy of each message the carrier holds.  The modelling assumptions
follow the paper exactly:

* nodes have **infinite buffers** and keep every copy until the end of the
  simulation;
* exchanges are **bidirectional** and instantaneous;
* **minimal progress**: a node holding a message always delivers it when it
  meets the destination, whatever the algorithm says;
* messages can relay across several nodes "at the same instant" when the
  receiving node is itself in contact with further nodes (the zero-weight
  chaining of the space-time graph).

Only the *first* delivery of each message is recorded (later copies arriving
at the destination do not change success rate or delay).  By default message
propagation stops once the message is delivered, which does not affect any
reported metric but keeps large epidemic simulations fast; pass
``stop_on_delivery=False`` to keep flooding after delivery.

These are the semantics of the resource-constrained engines of
:mod:`repro.sim` with every constraint disabled and no message expiring,
so the replay itself is the array-native kernel
:class:`~repro.sim.vector.VectorSimulator` fixed to
:data:`~repro.sim.engine.UNCONSTRAINED`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union

from ..contacts import ContactTrace
from ..routing.base import RoutingProtocol
from ..sim.vector import VectorSimulator
from .algorithms import ForwardingAlgorithm
from .messages import Message
from .results import DeliveryOutcome, SimulationResult

__all__ = ["DeliveryOutcome", "SimulationResult", "ForwardingSimulator", "simulate"]


class ForwardingSimulator(VectorSimulator):
    """Replay a trace under one forwarding algorithm.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    algorithm:
        The forwarding strategy: a legacy
        :class:`~repro.forwarding.ForwardingAlgorithm` (wrapped
        transparently, behaviour byte-identical) or a stateful
        :class:`~repro.routing.RoutingProtocol`.  ``prepare`` is called
        once per run with the full trace; protocols additionally receive
        the lifecycle hooks (message creation, contact start/end,
        forwarded, delivered) in event order.
    copy_semantics:
        ``"copy"`` (default) — the carrier keeps its copy after forwarding,
        as assumed throughout the paper (infinite buffers, nodes hold
        messages forever).  ``"handoff"`` — single-copy forwarding where the
        carrier relinquishes the message, provided for cost-oriented
        extension experiments.
    stop_on_delivery:
        Stop propagating a message once it has been delivered.  Does not
        change success rate or delay.
    tracer:
        Optional structured-event probe (any object with
        ``emit(event, time, **fields)``; see :mod:`repro.obs.tracing`).
    telemetry:
        Optional :class:`repro.obs.EngineTelemetry` collecting event
        counts and wall-clock for the run.  ``None`` disables it.
    """

    def __init__(
        self,
        trace: ContactTrace,
        algorithm: Union[ForwardingAlgorithm, RoutingProtocol],
        copy_semantics: str = "copy",
        stop_on_delivery: bool = True,
        tracer=None,
        telemetry=None,
    ) -> None:
        super().__init__(trace, algorithm, copy_semantics=copy_semantics,
                         stop_on_delivery=stop_on_delivery, tracer=tracer,
                         telemetry=telemetry)

    def run(self, messages: Sequence[Message]) -> SimulationResult:
        """Simulate the delivery of *messages* and return the outcomes.

        The idealized model has no expiry, so a message's own ``ttl`` is
        ignored, and the result is a plain :class:`SimulationResult`: there
        is no resource accounting to report.
        """
        if any(message.ttl is not None for message in messages):
            timeless = [replace(message, ttl=None) for message in messages]
            result = super().run(timeless)
            outcomes = [replace(outcome, message=message) for outcome, message
                        in zip(result.outcomes, messages)]
        else:
            result = super().run(messages)
            outcomes = result.outcomes
        return SimulationResult(algorithm=result.algorithm,
                                trace_name=result.trace_name,
                                outcomes=outcomes,
                                copies_sent=result.copies_sent)


def simulate(
    trace: ContactTrace,
    algorithm: Union[ForwardingAlgorithm, RoutingProtocol],
    messages: Sequence[Message],
    copy_semantics: str = "copy",
    stop_on_delivery: bool = True,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`ForwardingSimulator`."""
    simulator = ForwardingSimulator(trace, algorithm, copy_semantics=copy_semantics,
                                    stop_on_delivery=stop_on_delivery)
    return simulator.run(messages)
