"""Structured trace events: an opt-in probe API for the engine.

A tracer is any object with ``emit(event, time, **fields)``.
:class:`~repro.sim.DesSimulator` (hence also
:class:`~repro.forwarding.ForwardingSimulator`) accepts one via its
``tracer`` argument; the default is ``None`` and every probe site is
guarded by a single ``is not None`` check, so a tracerless run allocates
nothing on the hot path.  Attaching a tracer never changes the simulated
behaviour, and the JSONL bytes of two traced runs are frozen in
``tests/golden/delivery_streams.json``.

Event vocabulary (fields beyond ``event``/``t`` vary per event):

=================  =====================================================
``contact_start``  a contact opened (``a``, ``b``)
``contact_end``    a contact closed (``a``, ``b``; ``truncated`` when a
                   crash cut it short)
``create``         a message entered the system (``msg``, ``src``, ``dst``)
``forward``        a relay copy moved (``msg``, ``src``, ``dst``, ``hops``)
``deliver``        first arrival at the destination (``msg``, ``node``,
                   ``hops``, ``delay``; ``src`` names the carrier that
                   completed the delivering hop)
``drop``           a copy was lost (``msg``, ``node``, ``reason`` — one of
                   :data:`DROP_REASONS`)
``loss``           the channel ate a transfer (``msg``, ``src``, ``dst``)
``retransmit``     a lost transfer was rescheduled (``msg``, ``src``,
                   ``dst``, ``at``)
``crash``          a node went down (``node``)
``reboot``         a node came back (``node``)
``expire``         a message's TTL fired (``msg``, ``copies``)
=================  =====================================================

:class:`RecordingTracer` buffers events in memory (tests, notebooks);
:class:`JsonlTracer` appends one JSON object per line to a file — the
format ``exp run --trace-dir`` writes per job — validating each payload
against :data:`EVENT_FIELDS` so a malformed event fails fast at its
source rather than corrupting downstream analysis.  :func:`iter_trace`
streams a trace file back without materializing it;
:mod:`repro.obs.journeys` folds that stream into per-message causal
journeys.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["TRACE_EVENTS", "DROP_REASONS", "EVENT_FIELDS", "validate_event",
           "Tracer", "RecordingTracer", "JsonlTracer", "BufferedTracer",
           "iter_trace",
           "read_trace"]

#: Every event name the engines emit (the vocabulary above).
TRACE_EVENTS = (
    "contact_start", "contact_end", "create", "forward", "deliver",
    "drop", "loss", "retransmit", "crash", "reboot", "expire",
)

#: The documented ``drop`` reason taxonomy.  Every ``drop`` event names
#: exactly one of these:
#:
#: ``evicted``          a finite buffer pushed the copy out for a newer one
#: ``rejected``         a relay's buffer refused the incoming copy
#: ``source_rejected``  the message never launched (source buffer full or
#:                      the source was down at creation time)
#: ``expired``          the copy died with its message's TTL
#: ``churn``            a node crash wiped the copy
#: ``cancelled``        an in-flight transfer arrived uselessly (message
#:                      expired / already delivered / duplicate / receiver
#:                      down) — the bytes were wasted, no copy changed hands
DROP_REASONS = ("evicted", "rejected", "source_rejected", "expired",
                "churn", "cancelled")

#: Per-event payload schema: ``{event: (required fields, optional fields)}``
#: beyond the universal ``event``/``t`` pair.  :func:`validate_event`
#: checks an emission against this table; :class:`JsonlTracer` applies it
#: on every emit.
EVENT_FIELDS: Dict[str, tuple] = {
    "contact_start": (frozenset({"a", "b"}), frozenset()),
    "contact_end": (frozenset({"a", "b"}), frozenset({"truncated"})),
    "create": (frozenset({"msg", "src", "dst"}), frozenset()),
    "forward": (frozenset({"msg", "src", "dst", "hops"}), frozenset()),
    # src (the delivering carrier) is optional so traces recorded before
    # the field existed still parse
    "deliver": (frozenset({"msg", "node", "hops", "delay"}),
                frozenset({"src"})),
    "drop": (frozenset({"msg", "node", "reason"}), frozenset()),
    "loss": (frozenset({"msg", "src", "dst"}), frozenset()),
    "retransmit": (frozenset({"msg", "src", "dst", "at"}), frozenset()),
    "crash": (frozenset({"node"}), frozenset()),
    "reboot": (frozenset({"node"}), frozenset()),
    "expire": (frozenset({"msg", "copies"}), frozenset()),
}


def validate_event(event: str, fields: Dict[str, object]) -> Optional[str]:
    """Check one emission against the vocabulary; a problem description,
    or ``None`` when the payload is well-formed.

    Validates the event name, the exact field set (missing required or
    unknown extra fields both fail) and, for ``drop`` events, that the
    reason is one of :data:`DROP_REASONS`.
    """
    schema = EVENT_FIELDS.get(event)
    if schema is None:
        known = ", ".join(TRACE_EVENTS)
        return f"unknown event {event!r} (known events: {known})"
    required, optional = schema
    present = set(fields)
    missing = required - present
    if missing:
        return (f"{event} event is missing required field(s) "
                f"{sorted(missing)}")
    extra = present - required - optional
    if extra:
        return f"{event} event carries unknown field(s) {sorted(extra)}"
    if event == "drop" and fields.get("reason") not in DROP_REASONS:
        return (f"drop reason {fields.get('reason')!r} is not in the "
                f"taxonomy {DROP_REASONS}")
    return None


class Tracer:
    """Base tracer: the probe interface both engines call.

    Subclasses implement :meth:`emit`; :meth:`close` is optional and the
    class is a context manager closing itself on exit.
    """

    def emit(self, event: str, time: float, **fields) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (flush files, etc.).  Idempotent."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RecordingTracer(Tracer):
    """Buffers every event as a dict in :attr:`events` (in emit order)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def emit(self, event: str, time: float, **fields) -> None:
        record = {"event": event, "t": time}
        record.update(fields)
        self.events.append(record)

    def by_event(self, event: str) -> List[Dict[str, object]]:
        """The recorded events of one kind, in emit order."""
        return [record for record in self.events if record["event"] == event]


class JsonlTracer(Tracer):
    """Streams events to a JSONL file, one canonical JSON object per line.

    The file (and its parent directories) is created on first emit, so a
    run that never traces leaves nothing behind.  Writes are buffered;
    :meth:`close` flushes and releases the handle.

    Every payload is checked against :data:`EVENT_FIELDS` before it hits
    the file (``validate=False`` opts out): a malformed emission raises
    ``ValueError`` naming the line it would have become, so a probe-site
    bug fails at its source instead of poisoning every downstream reader.
    """

    def __init__(self, path: Union[str, Path], validate: bool = True) -> None:
        self.path = Path(path)
        self.validate = validate
        self._handle = None
        self.num_events = 0

    def emit(self, event: str, time: float, **fields) -> None:
        if self.validate:
            problem = validate_event(event, fields)
            if problem is not None:
                raise ValueError(
                    f"malformed trace event at {self.path} line "
                    f"{self.num_events + 1}: {problem}")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        record = {"event": event, "t": time}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self.num_events += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class BufferedTracer(Tracer):
    """Buffers emissions and forwards them to an inner tracer in batches.

    The engine emits contact events from a tight array-driven loop where
    even the inner tracer's per-event validation/formatting work is
    measurable; buffering decouples the event loop from the sink while
    preserving the exact event stream: events are flushed strictly in emit
    order (the JSONL time-ordering contract survives), and :meth:`close`
    drains the buffer before closing the inner tracer, so the resulting
    file is byte-identical to an unbuffered run.
    """

    def __init__(self, inner: Tracer, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.inner = inner
        self.capacity = capacity
        self._pending: List[tuple] = []

    def emit(self, event: str, time: float, **fields) -> None:
        self._pending.append((event, time, fields))
        if len(self._pending) >= self.capacity:
            self.flush()

    def flush(self) -> None:
        """Forward every buffered event to the inner tracer, in order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        emit = self.inner.emit
        for event, time, fields in pending:
            emit(event, time, **fields)

    def close(self) -> None:
        self.flush()
        self.inner.close()


def iter_trace(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Stream a JSONL trace file one event dict at a time.

    The file is never materialized, so arbitrarily long traces analyze in
    constant memory.  The error contract matches
    :meth:`repro.exp.store.ResultStore.refresh`: a half-written **final**
    line (a tracer killed mid-write) is silently ignored, while a corrupt
    line *followed by* valid ones — real damage, not an interrupted append
    — is skipped with a warning naming the line.
    """
    path = Path(path)
    pending: List[int] = []  # bad line numbers awaiting a later good line
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                # only a *non-final* bad line is worth a warning; hold it
                # until we know whether anything follows
                pending.append(number)
                continue
            for bad in pending:
                warnings.warn(f"skipping corrupt trace line {bad} in {path}")
            pending.clear()
            yield record
    # whatever is still pending ends the file; the last entry is an
    # interrupted append (ignored silently), anything before it is real
    for bad in pending[:-1]:
        warnings.warn(f"skipping corrupt trace line {bad} in {path}")


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL trace file back into a list of event dicts.

    A thin materializing wrapper over :func:`iter_trace` (same truncated
    final-line tolerance); prefer the iterator for large traces.
    """
    return list(iter_trace(path))
