"""Span recorder and runtime layer wrappers for the traced run.

The benchmark never edits ``src/``.  For the traced run it replaces public
functions and methods of the program with thin wrappers at runtime; each
wrapper records one span (layer, name, start, end, parent span, run id)
into an in-memory list and, after the span has closed, folds counts from
the call's public return value into per-layer counters; that counting is
timed as a child span of layer ``bench``, so no layer's self time holds
it.  Spans are written to a JSONL file when the run ends.

A span's *self time* is its duration minus the time its child spans
cover; every ``<layer>.*_s`` metric is a sum of self times, so the layer
times of one run never count the same second twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

# span record layout (a list, mutated once when the span closes)
NAME, LAYER, START, END, PARENT, RUN = range(6)
#: layer of the spans that time the benchmark's own counting
BENCH = "bench"


class SpanRecorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.run_id = "setup"
        self._stack: List[int] = []

    def span(self, layer: str, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """*fn* wrapped so that every call records one span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0,
                      stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_result is not None:
                # the benchmark's own counting is a span of layer "bench"
                # under the caller's span, so it is no layer's self time
                counting = [name, BENCH, clock(), 0.0,
                            stack[-1] if stack else None, self.run_id]
                spans.append(counting)
                on_result(self.counts, args, kwargs, result)
                counting[END] = clock()
            return result

        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time (duration minus child-span durations)."""
        own = [record[END] - record[START] for record in self.spans]
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                own[parent] -= record[END] - record[START]
        return own

    def layer_self_s(self, run_prefix: str = "") -> Dict[str, float]:
        """Self seconds per layer, over spans whose run id starts with
        *run_prefix*."""
        totals: Dict[str, float] = defaultdict(float)
        for record, own in zip(self.spans, self.self_times()):
            if record[RUN].startswith(run_prefix):
                totals[record[LAYER]] += own
        return dict(totals)

    def root_covered_s(self, run_prefix: str) -> float:
        """Seconds covered by root layer spans (one thread: roots never
        overlap)."""
        return sum(record[END] - record[START] for record in self.spans
                   if record[PARENT] is None and record[LAYER] != BENCH
                   and record[RUN].startswith(run_prefix))

    def durations(self, names, run_prefix: str = "") -> List[float]:
        """Durations of spans called one of *names*, skipping those nested
        in another of them (``put_many`` inside ``put``)."""
        names = set(names)
        out = []
        for record in self.spans:
            if record[NAME] not in names or record[LAYER] == BENCH or \
                    not record[RUN].startswith(run_prefix):
                continue
            parent = record[PARENT]
            if parent is not None and self.spans[parent][NAME] in names:
                continue
            out.append(record[END] - record[START])
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record[NAME], "layer": record[LAYER],
                    "start": record[START], "end": record[END],
                    "parent": record[PARENT], "run": record[RUN]}) + "\n")


class Patcher:
    """Replaces attributes at runtime and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, owner: type, attr: str, make: Callable) -> None:
        """Wrap ``owner.attr`` (possibly inherited) with ``make(original)``."""
        had_own = attr in owner.__dict__
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original if had_own else None))

    def function(self, module, attr: str, make: Callable) -> None:
        """Wrap a module-level function *everywhere* it is bound.

        Callers import functions by name (``from .records import
        encode_record``), so rebinding only the defining module would miss
        them: every loaded ``repro`` module holding the same object is
        rebound to the one wrapper.
        """
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or
                                      name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._undo.append((loaded, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
