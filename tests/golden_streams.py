"""Frozen golden delivery streams: the cases, the digest and the recorder.

``tests/golden/delivery_streams.json`` pins what the forwarding engines
deliver, independently of any engine: one entry per case holding the
SHA-256 of the canonical ``(id, delivered, delivery_time, hop_count)``
stream, ``copies_sent`` and, for catalogue scenarios, the DES
``ResourceStats.as_dict()``.  Two case families:

* **idealised** — the five dataset stand-ins (scale 0.2, Poisson rate
  0.01, workload seed 11) plus two hand-built adversarial traces, each
  under every registered protocol × copy/hand-off × stop on/off;
* **catalogue** — every built-in scenario except ``rwp-city-10k`` under
  every registered protocol, run 0, with the scenario's own constraints,
  copy semantics and seed on the DES engine.

Regenerate the fixture (only when a change of behaviour is intended, and
say so in the change log) from the repository root with::

    PYTHONPATH=src python tests/golden_streams.py

Recording replays ``rwp-city-1k`` on the DES engine and takes a few
minutes.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import ForwardingSimulator, Message, PoissonMessageWorkload
from repro.routing.registry import protocol_by_name, protocol_names
from repro.sim import DesSimulator, get_scenario, scenario_names

FIXTURE = Path(__file__).resolve().parent / "golden" / "delivery_streams.json"

IDEAL_SCALE = 0.2
IDEAL_RATE = 0.01
IDEAL_SEED = 11
DATASET_KEYS = PAPER_DATASET_KEYS + ("infocom05",)
IDEAL_TRACES = DATASET_KEYS + ("adversarial", "overlap")
#: (copy_semantics, stop_on_delivery) of every idealised case
OPTIONS = (("copy", True), ("copy", False),
           ("handoff", True), ("handoff", False))
CATALOGUE = tuple(name for name in scenario_names() if name != "rwp-city-10k")


def _adversarial() -> Tuple[ContactTrace, List[Message]]:
    """Zero-duration contacts, shared instants, a message created exactly
    when a contact ends."""
    contacts = [
        Contact(0.0, 0.0, 0, 1),    # zero-duration sighting at t=0
        Contact(0.0, 30.0, 1, 2),
        Contact(10.0, 10.0, 2, 3),  # zero-duration while 1-2 active
        Contact(10.0, 40.0, 0, 3),
        Contact(40.0, 50.0, 3, 4),  # starts as 0-3 ends
        Contact(50.0, 60.0, 0, 4),
    ]
    trace = ContactTrace(contacts, nodes=range(5), duration=80.0, name="adv")
    messages = [
        Message(id=0, source=0, destination=4, creation_time=0.0),
        Message(id=1, source=0, destination=2, creation_time=10.0),
        Message(id=2, source=1, destination=3, creation_time=30.0),  # at 1-2 end
        Message(id=3, source=2, destination=0, creation_time=40.0),
    ]
    return trace, messages


def _overlap() -> Tuple[ContactTrace, List[Message]]:
    """Overlapping contacts of the same pair (reference counting)."""
    contacts = [
        Contact(0.0, 40.0, 0, 1),
        Contact(10.0, 20.0, 0, 1),   # nested duplicate
        Contact(15.0, 60.0, 1, 2),
        Contact(30.0, 35.0, 2, 3),
    ]
    trace = ContactTrace(contacts, nodes=range(4), duration=80.0, name="overlap")
    messages = [Message(id=0, source=0, destination=3, creation_time=5.0),
                Message(id=1, source=3, destination=0, creation_time=25.0)]
    return trace, messages


@functools.lru_cache(maxsize=None)
def ideal_inputs(name: str) -> Tuple[ContactTrace, List[Message]]:
    """The trace and message workload of one idealised case family."""
    if name == "adversarial":
        return _adversarial()
    if name == "overlap":
        return _overlap()
    trace = load_dataset(name, scale=IDEAL_SCALE, contact_scale=IDEAL_SCALE)
    messages = PoissonMessageWorkload(rate=IDEAL_RATE).generate(
        trace, seed=IDEAL_SEED)
    return trace, messages


@functools.lru_cache(maxsize=None)
def catalogue_inputs(name: str):
    """``(scenario, trace, messages)`` of one catalogue case family."""
    scenario = get_scenario(name)
    trace = scenario.build_trace()
    return scenario, trace, scenario.build_messages(trace, 0)


def ideal_key(trace: str, protocol: str, copy_semantics: str = "copy",
              stop_on_delivery: bool = True) -> str:
    stop = "stop" if stop_on_delivery else "flood"
    return f"{trace}/{protocol}/{copy_semantics}/{stop}"


def catalogue_key(scenario: str, protocol: str) -> str:
    return f"{scenario}/{protocol}"


def stream_digest(result) -> str:
    """SHA-256 of the canonical ``(id, delivered, delivery_time,
    hop_count)`` stream, in outcome order."""
    rows = [[int(o.message.id), bool(o.delivered),
             None if o.delivery_time is None else float(o.delivery_time),
             None if o.hop_count is None else int(o.hop_count)]
            for o in result.outcomes]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def entry(result, with_stats: bool = False) -> Dict[str, object]:
    """The fixture entry of one result."""
    recorded: Dict[str, object] = {"stream": stream_digest(result),
                                   "copies_sent": result.copies_sent}
    if with_stats:
        recorded["stats"] = result.stats.as_dict()
    return recorded


@functools.lru_cache(maxsize=None)
def load() -> Dict[str, Dict[str, Dict[str, object]]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def assert_ideal(result, key: str) -> None:
    """*result* reproduces the idealised fixture entry *key*."""
    assert entry(result) == load()["ideal"][key], key


def assert_catalogue(result, key: str) -> None:
    """*result* reproduces the catalogue fixture entry *key*, stats included."""
    assert entry(result, with_stats=True) == load()["catalogue"][key], key


def record() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Every case, run on the idealised simulator and the DES engine."""
    ideal = {}
    for name in IDEAL_TRACES:
        trace, messages = ideal_inputs(name)
        for protocol in protocol_names():
            for copy_semantics, stop in OPTIONS:
                result = ForwardingSimulator(
                    trace, protocol_by_name(protocol),
                    copy_semantics=copy_semantics,
                    stop_on_delivery=stop).run(messages)
                ideal[ideal_key(name, protocol, copy_semantics, stop)] = \
                    entry(result)
    catalogue = {}
    for name in CATALOGUE:
        scenario, trace, messages = catalogue_inputs(name)
        for protocol in protocol_names():
            result = DesSimulator(
                trace, protocol_by_name(protocol),
                constraints=scenario.constraints,
                copy_semantics=scenario.copy_semantics,
                seed=scenario.seed).run(messages)
            catalogue[catalogue_key(name, protocol)] = entry(
                result, with_stats=True)
    return {"ideal": ideal, "catalogue": catalogue}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
