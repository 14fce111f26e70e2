"""Frozen golden enumeration streams: the cases, the digest and the recorder.

``tests/golden/enumeration_streams.json`` pins what the path enumerator of
Figure 3 emits, independently of either engine's code: for every case (one
paper dataset stand-in × one ``k``) it holds one entry per message with the
SHA-256 of the canonical delivery stream — each delivery's ``(hops, time,
step)``, in emission order — plus ``stopped_early`` and
``steps_processed``.  Messages are enumerated the way
:func:`repro.core.explosion.analyze_message` enumerates them, with the
delivery cap equal to ``k`` (``n_explosion = k``).

The stand-ins are loaded at the scale the paper-figures benchmark uses, so
``k = 200`` fills node stores and exercises the k-shortest eviction, and
``k = 7`` saturates them almost at once.

Regenerate the fixture (only when a change of behaviour is intended, and
say so in the change log) from the repository root with::

    PYTHONPATH=src python tests/enumeration_streams.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.core import PathEnumerator, SpaceTimeGraph, random_messages
from repro.datasets import PAPER_DATASET_KEYS, load_dataset

FIXTURE = Path(__file__).resolve().parent / "golden" / "enumeration_streams.json"

SCALE = 0.5
NUM_MESSAGES = 10
MESSAGE_SEED = 2007
KS = (200, 7)


@functools.lru_cache(maxsize=None)
def inputs(dataset: str):
    """``(graph, messages)`` of one dataset stand-in."""
    trace = load_dataset(dataset, scale=SCALE, contact_scale=SCALE)
    return (SpaceTimeGraph(trace),
            random_messages(trace, NUM_MESSAGES, seed=MESSAGE_SEED))


def case_key(dataset: str, k: int) -> str:
    return f"{dataset}/k={k}"


def stream_digest(result) -> str:
    """SHA-256 of the canonical ``(hops, time, step)`` delivery stream."""
    rows = [[[[node, float(time)] for node, time in delivery.path.hops],
             float(delivery.time), int(delivery.step)]
            for delivery in result.deliveries]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def entry(result) -> Dict[str, object]:
    """The fixture entry of one enumeration result."""
    return {"source": result.source, "destination": result.destination,
            "creation_time": result.creation_time,
            "deliveries": result.num_deliveries,
            "stream": stream_digest(result),
            "stopped_early": result.stopped_early,
            "steps_processed": result.steps_processed}


def run_case(dataset: str, k: int) -> List[Dict[str, object]]:
    """The fast engine's entries for every message of one case, in order."""
    graph, messages = inputs(dataset)
    enumerator = PathEnumerator(graph, k=k)
    return [entry(enumerator.enumerate(source, destination, created,
                                       max_total_deliveries=k))
            for source, destination, created in messages]


@functools.lru_cache(maxsize=None)
def load() -> Dict[str, List[Dict[str, object]]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def record() -> Dict[str, List[Dict[str, object]]]:
    return {case_key(dataset, k): run_case(dataset, k)
            for dataset in PAPER_DATASET_KEYS for k in KS}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
