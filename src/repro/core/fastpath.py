"""Fast-core substrate for the path-enumeration dynamic program.

The enumeration of Figure 3 spends essentially all of its time in three
inner-loop operations: loop-avoidance membership tests (``peer in
path.node_set``), the first-preference purge (``node_set & dest_neighbors``),
and path extension (``node_set | {peer}`` plus a new :class:`~repro.core.path.Path`).
On the seed implementation each of those allocates or walks a ``frozenset``.

This module provides the integer substrate that turns all three into single
machine-word operations, the standard remedy used by contact-graph /
DTN simulators:

* :class:`NodeInterner` — a dense bijection ``NodeId <-> [0, n)`` so a set of
  nodes becomes an ``int`` bitmask (node *i* ↦ bit ``1 << i``);
* :class:`StepTables` — per-timestep structures precomputed once per
  :class:`~repro.core.space_time_graph.SpaceTimeGraph`:

  - ``neighbor_lists[step][i]`` — the interned neighbours of node *i*, each
    paired with a precomputed *freshness* flag (True when the contact edge
    was not active at ``step - 1``), eliminating the per-hand-off
    ``in_contact(node, peer, step - 1)`` lookup of the seed engine.  A
    stored path crosses an ongoing (non-fresh) edge only in the step it
    arrived, so the enumerator skips such an edge outright except at a
    message's first step, where the root path sits;
  - ``neighbor_masks[step][i]`` — the same neighbourhood as a bitmask, used
    for the first-preference purge and for O(1) "is this node in contact
    with the destination" tests;
  - ``next_active[i][step]`` — a skip index: the first step ``>= step`` at
    which node *i* has any contact edge, so the dynamic program can jump
    over the (typically many) steps during which nothing can happen.

Ordering contract
-----------------
The fast engine must reproduce the seed engine's delivery stream *exactly*,
including the order of same-time same-hop-count ties, which in the seed
implementation is inherited from Python ``set`` iteration order.  For that
reason ``neighbor_lists`` is built by iterating the graph's original
adjacency sets, preserving their iteration order verbatim.  Do not sort
these lists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from ..contacts import NodeId

__all__ = ["NodeInterner", "StepTables"]


class NodeInterner:
    """Dense, deterministic bijection between node ids and ``[0, n)`` indices.

    Indices are assigned in sorted node order, so the mapping depends only on
    the node population, never on trace or insertion order.
    """

    __slots__ = ("_nodes", "_index")

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        self._nodes: Tuple[NodeId, ...] = tuple(sorted(set(nodes)))
        self._index: Dict[NodeId, int] = {n: i for i, n in enumerate(self._nodes)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids in index order."""
        return self._nodes

    def index_of(self, node: NodeId) -> int:
        """The dense index of *node* (raises ``KeyError`` for unknown nodes)."""
        return self._index[node]

    def node_at(self, index: int) -> NodeId:
        """The node id occupying *index*."""
        return self._nodes[index]

    # ------------------------------------------------------------------
    # bitmask helpers
    # ------------------------------------------------------------------
    def bit_of(self, node: NodeId) -> int:
        """The single-bit mask of *node*."""
        return 1 << self._index[node]

    def mask_of(self, nodes: Iterable[NodeId]) -> int:
        """The bitmask with one bit set per node in *nodes*."""
        mask = 0
        index = self._index
        for node in nodes:
            mask |= 1 << index[node]
        return mask

    def nodes_of(self, mask: int) -> FrozenSet[NodeId]:
        """The node set encoded by *mask* (inverse of :meth:`mask_of`)."""
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        nodes = []
        table = self._nodes
        index = 0
        while mask:
            if mask & 1:
                nodes.append(table[index])
            mask >>= 1
            index += 1
        return frozenset(nodes)


class StepTables:
    """Per-step indexes precomputed from a space-time graph's adjacency.

    Built once (lazily) per graph via
    :meth:`repro.core.space_time_graph.SpaceTimeGraph.step_tables` and shared
    by every enumeration over that graph.
    """

    __slots__ = ("interner", "neighbor_lists", "neighbor_masks",
                 "next_active", "num_steps")

    def __init__(
        self,
        interner: NodeInterner,
        neighbor_lists: List[Dict[int, List[Tuple[int, bool]]]],
        neighbor_masks: List[Dict[int, int]],
        next_active: List[Sequence[int]],
    ) -> None:
        self.interner = interner
        self.neighbor_lists = neighbor_lists
        self.neighbor_masks = neighbor_masks
        self.next_active = next_active
        self.num_steps = len(neighbor_lists)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, nodes: Iterable[NodeId],
              adjacency_by_step: Sequence[Dict[NodeId, set]]) -> "StepTables":
        """Build the tables from a per-step ``{node: set_of_peers}`` sequence.

        ``neighbor_lists`` preserves the iteration order of each adjacency
        set (see the module docstring's ordering contract).
        """
        interner = NodeInterner(nodes)
        index_of = interner._index
        num_steps = len(adjacency_by_step)
        num_nodes = len(interner)

        neighbor_lists: List[Dict[int, List[Tuple[int, bool]]]] = []
        neighbor_masks: List[Dict[int, int]] = []
        for step, adjacency in enumerate(adjacency_by_step):
            prev = adjacency_by_step[step - 1] if step > 0 else {}
            lists: Dict[int, List[Tuple[int, bool]]] = {}
            masks: Dict[int, int] = {}
            for node, peers in adjacency.items():
                prev_peers = prev.get(node, ())
                idx = index_of[node]
                entries = []
                mask = 0
                for peer in peers:  # natural set order — do not sort
                    peer_idx = index_of[peer]
                    entries.append((peer_idx, peer not in prev_peers))
                    mask |= 1 << peer_idx
                lists[idx] = entries
                masks[idx] = mask
            neighbor_lists.append(lists)
            neighbor_masks.append(masks)

        next_active: List[Sequence[int]] = []
        for idx in range(num_nodes):
            column = [num_steps] * (num_steps + 1)
            upcoming = num_steps
            for step in range(num_steps - 1, -1, -1):
                if idx in neighbor_masks[step]:
                    upcoming = step
                column[step] = upcoming
            next_active.append(column)

        return cls(interner, neighbor_lists, neighbor_masks, next_active)

    # ------------------------------------------------------------------
    def first_active_step(self, index: int, step: int) -> int:
        """First step ``>= step`` at which node *index* has a contact edge.

        Returns ``num_steps`` when the node has no further contacts.
        """
        if step >= self.num_steps:
            return self.num_steps
        return self.next_active[index][step]

    def dest_mask(self, index: int, step: int) -> int:
        """Bitmask of the nodes in contact with node *index* at *step*."""
        return self.neighbor_masks[step].get(index, 0)
