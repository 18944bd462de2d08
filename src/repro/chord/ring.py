"""Static (converged) Chord ring model.

:class:`StaticRing` is a snapshot of a stabilized Chord overlay: a sorted
list of node identifiers plus exact successor/predecessor/finger queries
answered with :mod:`bisect`. The large-scale experiments (tree properties up
to ~10^5–10^6 nodes, Fig. 7/8) run against this model, exactly as the
paper's analysis assumes a converged overlay. The dynamic protocol in
:mod:`repro.chord.node` converges to the same structure — an invariant the
integration tests assert.

The sorted ``list[int]`` is the ring's only membership state; it holds
identifiers of any width (the tests use 128- and 160-bit spaces).
Vectorized consumers (:mod:`repro.chord.fastbuild`, the protocol block,
the slab path) read :meth:`StaticRing.id_array`, an ``int64`` copy derived
from the list and cached until the next membership change.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.chord.fingers import FingerTable
from repro.chord.idspace import IdSpace
from repro.errors import (
    DuplicateNodeError,
    EmptyRingError,
    IdentifierError,
    UnknownNodeError,
)

__all__ = ["ID_ARRAY_MAX_BITS", "StaticRing"]

#: Widest identifier space :meth:`StaticRing.id_array` can hold in int64.
ID_ARRAY_MAX_BITS = 62


class StaticRing:
    """A converged Chord ring over a set of node identifiers.

    Parameters
    ----------
    space:
        The identifier space.
    nodes:
        Initial node identifiers (need not be sorted; duplicates rejected).
    """

    def __init__(self, space: IdSpace, nodes: Iterable[int] = ()) -> None:
        self.space = space
        seen: set[int] = set()
        for ident in nodes:
            space.validate(ident)
            if ident in seen:
                raise DuplicateNodeError(f"duplicate node identifier {ident}")
            seen.add(ident)
        self._nodes = sorted(seen)
        self._version = 0
        self._ids: np.ndarray | None = None
        self._ids_version = -1

    @classmethod
    def from_sorted_ids(
        cls, space: IdSpace, ids: Sequence[int] | np.ndarray
    ) -> "StaticRing":
        """Build a ring from already-sorted, strictly increasing identifiers.

        One linear order check replaces the constructor's per-element
        validation and set, which is what makes 10^5–10^6-node ring
        construction cheap. Raises on unsorted, duplicate or out-of-space
        input.
        """
        nodes = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        if nodes:
            space.validate(nodes[0])
            space.validate(nodes[-1])
        if any(a >= b for a, b in zip(nodes, islice(nodes, 1, None))):
            raise DuplicateNodeError("ids must be sorted and strictly increasing")
        ring = cls(space)
        ring._nodes = nodes
        return ring

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __contains__(self, ident: int) -> bool:
        nodes = self._nodes
        index = bisect_left(nodes, ident)
        return index < len(nodes) and nodes[index] == ident

    @property
    def nodes(self) -> list[int]:
        """Sorted node identifiers (the ring's own list; do not mutate)."""
        return self._nodes

    @property
    def version(self) -> int:
        """Monotone membership-change counter.

        Incremented by every :meth:`add` / :meth:`remove`, letting derived
        caches (finger tables, the incremental maintenance engine) detect
        out-of-band ring mutation cheaply instead of comparing node lists.
        """
        return self._version

    def id_array(self) -> np.ndarray:
        """Sorted node identifiers as an ``int64`` vector (``bits <= 62``).

        Built from the node list on first use and cached until the next
        membership change. This is the one sorted-id vector every
        vectorized consumer (:mod:`repro.chord.fastbuild`, the protocol
        block, the slab path) shares; treat it as read-only.
        """
        if self.space.bits > ID_ARRAY_MAX_BITS:
            raise IdentifierError(
                f"id_array requires bits <= {ID_ARRAY_MAX_BITS}, got {self.space.bits}"
            )
        if self._ids is None or self._ids_version != self._version:
            self._ids = np.array(self._nodes, dtype=np.int64)
            self._ids_version = self._version
        return self._ids

    # ------------------------------------------------------------------ #
    # Membership changes
    # ------------------------------------------------------------------ #

    def add(self, ident: int) -> None:
        """Insert a node (O(n) shift; rings are built once, queried often)."""
        self.space.validate(ident)
        index = bisect_left(self._nodes, ident)
        if index < len(self._nodes) and self._nodes[index] == ident:
            raise DuplicateNodeError(f"duplicate node identifier {ident}")
        self._nodes.insert(index, ident)
        self._version += 1

    def remove(self, ident: int) -> None:
        """Remove a node."""
        del self._nodes[self.index_of(ident)]
        self._version += 1

    # ------------------------------------------------------------------ #
    # Consistent-hashing queries
    # ------------------------------------------------------------------ #

    def _require_nodes(self) -> None:
        if not self._nodes:
            raise EmptyRingError("operation requires a non-empty ring")

    def successor(self, key: int) -> int:
        """First node whose identifier equals or follows ``key`` clockwise."""
        self._require_nodes()
        self.space.validate(key)
        index = bisect_left(self._nodes, key)
        if index == len(self._nodes):
            return self._nodes[0]
        return self._nodes[index]

    def predecessor(self, key: int) -> int:
        """Last node whose identifier strictly precedes ``key`` clockwise."""
        self._require_nodes()
        self.space.validate(key)
        return self._nodes[bisect_left(self._nodes, key) - 1]  # -1 wraps

    def successor_of_node(self, ident: int) -> int:
        """The node immediately following node ``ident`` on the ring."""
        index = self.index_of(ident) + 1
        return self._nodes[index % len(self._nodes)]

    def predecessor_of_node(self, ident: int) -> int:
        """The node immediately preceding node ``ident`` on the ring."""
        return self._nodes[self.index_of(ident) - 1]  # index-1 == -1 wraps

    def index_of(self, ident: int) -> int:
        """Position of member ``ident`` in the sorted node list."""
        nodes = self._nodes
        index = bisect_left(nodes, ident)
        if index == len(nodes) or nodes[index] != ident:
            raise UnknownNodeError(ident)
        return index

    def nodes_in_interval(self, lo: int, hi: int) -> list[int]:
        """Members in the clockwise *closed* interval ``[lo, hi]``.

        The interval wraps past the top of the space when ``lo > hi``;
        ``lo == hi`` denotes the single-identifier interval (matching
        :meth:`IdSpace.in_closed`). Used by the incremental maintenance
        engine to enumerate the nodes whose finger-limit ``g(x)`` value
        shifted after a membership change.
        """
        self.space.validate(lo)
        self.space.validate(hi)
        nodes = self._nodes
        if lo <= hi:
            return nodes[bisect_left(nodes, lo) : bisect_right(nodes, hi)]
        return nodes[bisect_left(nodes, lo) :] + nodes[: bisect_right(nodes, hi)]

    def gap_before(self, ident: int) -> int:
        """Clockwise distance from ``ident``'s predecessor to ``ident``.

        This is the slice of the identifier space owned by ``ident`` under
        consistent hashing; identifier probing (Sec. 3.5) splits the largest
        such gap. A sole member owns the whole space.
        """
        if len(self._nodes) == 1:
            if ident not in self:
                raise UnknownNodeError(ident)
            return self.space.size
        return self.space.cw(self.predecessor_of_node(ident), ident)

    def _gap_list(self) -> list[int]:
        """Owned-interval lengths aligned with the sorted node order."""
        nodes = self._nodes
        if not nodes:
            return []
        wrap = nodes[0] + self.space.size - nodes[-1]
        return [wrap] + [b - a for a, b in zip(nodes, islice(nodes, 1, None))]

    def gaps(self) -> dict[int, int]:
        """Owned-interval length for every node."""
        return dict(zip(self._nodes, self._gap_list()))

    def mean_gap(self) -> float:
        """Average inter-node distance ``d0 = 2^b / n``."""
        self._require_nodes()
        return self.space.mean_gap(len(self))

    def gap_ratio(self) -> float:
        """Ratio of the largest to the smallest inter-node gap.

        Random identifiers give a ratio of ``O(log n)``; identifier probing
        bounds it by a constant (Adler et al., referenced in Sec. 3.5).
        """
        self._require_nodes()
        gaps = self._gap_list()
        return max(gaps) / min(gaps)

    # ------------------------------------------------------------------ #
    # Finger tables
    # ------------------------------------------------------------------ #

    def finger_entries(self, ident: int) -> list[int]:
        """Finger entries of node ``ident``: slot ``j`` -> successor(ident + 2^j)."""
        if ident not in self:
            raise UnknownNodeError(ident)
        return [
            self.successor(self.space.finger_start(ident, j))
            for j in range(self.space.bits)
        ]

    def finger_table(self, ident: int) -> FingerTable:
        """Build the full converged finger table of node ``ident``."""
        return FingerTable(
            space=self.space, owner=ident, entries=self.finger_entries(ident)
        )

    def all_finger_tables(self) -> dict[int, FingerTable]:
        """Finger tables of every node (O(n·b·log n) — fine up to 8192·32)."""
        return {ident: self.finger_table(ident) for ident in self.nodes}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticRing(bits={self.space.bits}, n={len(self)})"
