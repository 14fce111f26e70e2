"""Core data model for contact traces.

A *contact* is an interval of time during which two nodes are within
communication range of each other (in the paper's setting: two iMotes whose
Bluetooth inquiry scans discovered each other).  A *contact trace* is the
collection of all contacts observed over an experiment, together with the
set of participating nodes and the observation window.

The paper assumes contacts are bidirectional ("when a node A contacts node B,
we assume that B and A can exchange data in both directions"), so a
:class:`Contact` is stored with an unordered node pair, canonicalised so that
``a <= b``.

Everything downstream of this module — space-time graphs, path enumeration,
the forwarding simulator, trace statistics — consumes :class:`ContactTrace`.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["NodeId", "Contact", "ContactTrace"]

#: Node identifiers are small non-negative integers throughout the library.
NodeId = int


@dataclass(frozen=True, order=True)
class Contact:
    """A single bidirectional contact between two nodes.

    Parameters
    ----------
    start:
        Contact start time in seconds (relative to the trace origin).
    end:
        Contact end time in seconds.  Must satisfy ``end >= start``.  A
        zero-duration contact (``end == start``) models a single inquiry-scan
        sighting with no measured duration.
    a, b:
        The two endpoints.  The pair is unordered; the constructor
        canonicalises so that ``a <= b``.
    """

    start: float
    end: float
    a: NodeId
    b: NodeId

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"a contact requires two distinct nodes, got {self.a!r} twice")
        # written so that NaN fails too: replays sort contacts by time
        if not self.end >= self.start:
            raise ValueError(
                f"contact end ({self.end}) precedes start ({self.start})"
            )
        if not self.start >= 0:
            raise ValueError(f"contact start must be non-negative, got {self.start}")
        # Canonical order: a <= b.  dataclass(frozen=True) requires
        # object.__setattr__ for normalisation.
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start

    @property
    def pair(self) -> Tuple[NodeId, NodeId]:
        """The canonical ``(min, max)`` node pair."""
        return (self.a, self.b)

    def involves(self, node: NodeId) -> bool:
        """Return True if *node* is one of the two endpoints."""
        return node == self.a or node == self.b

    def peer(self, node: NodeId) -> NodeId:
        """Return the other endpoint of the contact.

        Raises
        ------
        ValueError
            If *node* is not an endpoint of this contact.
        """
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} does not participate in contact {self}")

    def overlaps(self, t0: float, t1: float) -> bool:
        """Return True if the contact interval intersects ``[t0, t1)``.

        Zero-duration contacts are treated as the instantaneous point
        ``[start, start]`` and overlap ``[t0, t1)`` when ``t0 <= start < t1``.
        """
        if self.duration == 0:
            return t0 <= self.start < t1
        return self.start < t1 and self.end > t0

    def active_at(self, t: float) -> bool:
        """Return True if the contact is active at instant *t*.

        The interval is treated as closed on the left and open on the right,
        except for zero-duration contacts which are active exactly at their
        start instant.
        """
        if self.duration == 0:
            return t == self.start
        return self.start <= t < self.end

    def shifted(self, offset: float) -> "Contact":
        """Return a copy of the contact translated in time by *offset*."""
        return Contact(self.start + offset, self.end + offset, self.a, self.b)


class ContactTrace:
    """An ordered collection of contacts over a fixed observation window.

    Parameters
    ----------
    contacts:
        Any iterable of :class:`Contact`.  They are sorted by start time.
    nodes:
        The full set of participating nodes.  If omitted, it is inferred as
        the union of contact endpoints (nodes that never had a contact would
        then be invisible — pass *nodes* explicitly when that matters, as it
        does for success-rate computations).
    duration:
        Length of the observation window in seconds (``t_max`` in the paper).
        If omitted, the latest contact end time is used.
    name:
        Optional human-readable dataset name (e.g. ``"infocom06-9-12"``).
    """

    def __init__(
        self,
        contacts: Iterable[Contact],
        nodes: Optional[Iterable[NodeId]] = None,
        duration: Optional[float] = None,
        name: str = "",
    ) -> None:
        self._contacts: List[Contact] = sorted(contacts, key=lambda c: (c.start, c.end, c.a, c.b))
        if nodes is None:
            inferred: Set[NodeId] = set()
            for c in self._contacts:
                inferred.add(c.a)
                inferred.add(c.b)
            self._nodes = frozenset(inferred)
        else:
            self._nodes = frozenset(nodes)
            missing = [
                c for c in self._contacts
                if c.a not in self._nodes or c.b not in self._nodes
            ]
            if missing:
                raise ValueError(
                    f"{len(missing)} contacts reference nodes outside the declared node set "
                    f"(first offender: {missing[0]})"
                )
        max_end = max((c.end for c in self._contacts), default=0.0)
        if duration is None:
            self._duration = float(max_end)
        else:
            if duration < max_end:
                raise ValueError(
                    f"declared duration {duration} is shorter than the last contact end {max_end}"
                )
            self._duration = float(duration)
        self.name = name
        self._starts: List[float] = [c.start for c in self._contacts]
        self._arrays: Optional[tuple] = None

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __getitem__(self, index: int) -> Contact:
        return self._contacts[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContactTrace):
            return NotImplemented
        return (
            self._contacts == other._contacts
            and self._nodes == other._nodes
            and self._duration == other._duration
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ContactTrace{label}: {len(self._contacts)} contacts, "
            f"{len(self._nodes)} nodes, {self._duration:.0f}s>"
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def contacts(self) -> Sequence[Contact]:
        """The contacts, sorted by start time."""
        return tuple(self._contacts)

    def as_arrays(self) -> tuple:
        """Columnar ``(starts, ends, a, b)`` numpy arrays, built once.

        Four parallel arrays over the contacts in trace order, for
        array-native consumers (the simulation engine's timeline, bulk
        statistics).  Endpoint dtype is whatever numpy infers from the
        node labels (``int64`` for the library's integer ids).  The
        arrays are cached on the trace and shared between callers; treat
        them as read-only.
        """
        arrays = self._arrays
        if arrays is None:
            import numpy as np  # local: keep the core data model light

            count = len(self._contacts)
            starts = np.fromiter((c.start for c in self._contacts),
                                 dtype=np.float64, count=count)
            ends = np.fromiter((c.end for c in self._contacts),
                               dtype=np.float64, count=count)
            a = np.asarray([c.a for c in self._contacts])
            b = np.asarray([c.b for c in self._contacts])
            self._arrays = arrays = (starts, ends, a, b)
        return arrays

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        """The set of participating nodes."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def duration(self) -> float:
        """Observation window length ``t_max`` in seconds."""
        return self._duration

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contacts_of(self, node: NodeId) -> List[Contact]:
        """All contacts in which *node* participates, sorted by start time."""
        return [c for c in self._contacts if c.involves(node)]

    def contacts_between(self, a: NodeId, b: NodeId) -> List[Contact]:
        """All contacts between the unordered pair ``{a, b}``."""
        lo, hi = (a, b) if a <= b else (b, a)
        return [c for c in self._contacts if c.a == lo and c.b == hi]

    def contacts_in_window(self, t0: float, t1: float) -> List[Contact]:
        """Contacts whose interval intersects ``[t0, t1)``."""
        return [c for c in self._contacts if c.overlaps(t0, t1)]

    def contacts_starting_in(self, t0: float, t1: float) -> List[Contact]:
        """Contacts whose *start* lies in ``[t0, t1)`` (efficient bisect)."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return self._contacts[lo:hi]

    def active_at(self, t: float) -> List[Contact]:
        """Contacts active at instant *t*."""
        return [c for c in self._contacts if c.active_at(t)]

    def contact_counts(self) -> Dict[NodeId, int]:
        """Number of contacts each node participates in.

        Every node in :attr:`nodes` appears in the result, including nodes
        with zero contacts — those are exactly the extreme "out" nodes the
        paper highlights.
        """
        counts: Dict[NodeId, int] = {n: 0 for n in self._nodes}
        for c in self._contacts:
            counts[c.a] += 1
            counts[c.b] += 1
        return counts

    def contact_rates(self) -> Dict[NodeId, float]:
        """Per-node contact rate: contacts per second over the trace window.

        This is the quantity the paper calls the node's *contact rate* or
        simply *rate* (λ_i); the in/out split in Section 5.2 is a median
        split of these values.
        """
        if self._duration <= 0:
            return {n: 0.0 for n in self._nodes}
        return {n: k / self._duration for n, k in self.contact_counts().items()}

    def pair_contact_counts(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Number of contacts per unordered node pair."""
        counts: Dict[Tuple[NodeId, NodeId], int] = defaultdict(int)
        for c in self._contacts:
            counts[c.pair] += 1
        return dict(counts)

    def inter_contact_times(self) -> Dict[Tuple[NodeId, NodeId], List[float]]:
        """Gaps between successive contacts for every pair with >= 2 contacts.

        The inter-contact time is measured from the end of one contact to the
        start of the next, clipped below at zero when contacts overlap.
        """
        per_pair: Dict[Tuple[NodeId, NodeId], List[Contact]] = defaultdict(list)
        for c in self._contacts:
            per_pair[c.pair].append(c)
        gaps: Dict[Tuple[NodeId, NodeId], List[float]] = {}
        for pair, contacts in per_pair.items():
            if len(contacts) < 2:
                continue
            pair_gaps = []
            for prev, nxt in zip(contacts, contacts[1:]):
                pair_gaps.append(max(0.0, nxt.start - prev.end))
            gaps[pair] = pair_gaps
        return gaps

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def window(self, t0: float, t1: float, *, rebase: bool = True, name: str = "") -> "ContactTrace":
        """Restrict the trace to ``[t0, t1)``.

        Contacts are clipped to the window boundaries.  When *rebase* is True
        (the default) times are shifted so the window starts at 0, matching
        how the paper extracts its four 3-hour periods.
        """
        if not (0 <= t0 < t1):
            raise ValueError(f"invalid window [{t0}, {t1})")
        clipped: List[Contact] = []
        for c in self._contacts:
            if not c.overlaps(t0, t1):
                continue
            start = max(c.start, t0)
            end = min(c.end, t1)
            clipped.append(Contact(start, end, c.a, c.b))
        offset = -t0 if rebase else 0.0
        if offset:
            clipped = [c.shifted(offset) for c in clipped]
        duration = (t1 - t0) if rebase else t1
        return ContactTrace(clipped, nodes=self._nodes, duration=duration,
                            name=name or self.name)

    def restricted_to(self, nodes: Iterable[NodeId], name: str = "") -> "ContactTrace":
        """Keep only contacts whose both endpoints are in *nodes*."""
        keep = frozenset(nodes)
        unknown = keep - self._nodes
        if unknown:
            raise ValueError(f"unknown nodes requested: {sorted(unknown)}")
        contacts = [c for c in self._contacts if c.a in keep and c.b in keep]
        return ContactTrace(contacts, nodes=keep, duration=self._duration,
                            name=name or self.name)

    def merged_with(self, other: "ContactTrace", name: str = "") -> "ContactTrace":
        """Union of two traces (nodes and contacts), keeping the longer window."""
        return ContactTrace(
            list(self._contacts) + list(other._contacts),
            nodes=self._nodes | other._nodes,
            duration=max(self._duration, other._duration),
            name=name or self.name or other.name,
        )

    def relabeled(self, mapping: Mapping[NodeId, NodeId], name: str = "") -> "ContactTrace":
        """Return a trace with node identifiers renamed according to *mapping*.

        Every node in the trace must appear in *mapping* and the mapping must
        be injective on those nodes.
        """
        missing = self._nodes - set(mapping)
        if missing:
            raise ValueError(f"mapping is missing nodes: {sorted(missing)}")
        image = [mapping[n] for n in self._nodes]
        if len(set(image)) != len(image):
            raise ValueError("mapping is not injective on the trace's nodes")
        contacts = [Contact(c.start, c.end, mapping[c.a], mapping[c.b]) for c in self._contacts]
        return ContactTrace(contacts, nodes=image, duration=self._duration,
                            name=name or self.name)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """A dictionary of headline statistics for quick inspection."""
        counts = list(self.contact_counts().values())
        durations = [c.duration for c in self._contacts]
        return {
            "num_nodes": float(self.num_nodes),
            "num_contacts": float(len(self._contacts)),
            "duration": self._duration,
            "mean_contacts_per_node": float(sum(counts)) / max(1, len(counts)),
            "max_contacts_per_node": float(max(counts, default=0)),
            "min_contacts_per_node": float(min(counts, default=0)),
            "mean_contact_duration": (sum(durations) / len(durations)) if durations else 0.0,
            "contacts_per_second": (len(self._contacts) / self._duration) if self._duration else 0.0,
        }


def _is_finite(x: float) -> bool:
    return math.isfinite(x)
