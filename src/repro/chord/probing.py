"""Identifier probing for balanced identifier assignment (paper Sec. 3.5).

Randomly chosen identifiers give adjacent-gap ratios of ``O(log n)``, which
ruins the balanced DAT's constant branching factor. Adler et al. (STOC 2003)
proposed *identifier probing*: a joining node picks a random point, probes
``O(log n)`` neighbors of that point's successor, and splits the largest
owned interval among those probed. The max/min gap ratio then stays bounded
by a constant, and Sec. 5.2 shows the balanced DAT max branching becomes a
small constant (~4) under this scheme.

The prototype (Sec. 4) implements this at join time: the contacted successor
"splits the maximal interval of its fingers and returns the designated node
identifier to the joining node". :func:`probe_split_identifier` reproduces
that procedure against a ring snapshot; the protocol node calls the same
logic through its RPC layer.

:func:`fast_probing_ids` fills a whole ring with the same procedure over a
plain sorted identifier list. It consumes the RNG exactly as a loop of
:func:`probe_split_identifier` joins does, so the membership is
bit-identical (the property suite asserts it); the join loop stays as its
reference.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.util.bits import ceil_log2
from repro.util.rng import ensure_rng

__all__ = [
    "probe_neighbors",
    "probe_split_identifier",
    "default_probe_count",
    "fast_probing_ids",
]


def default_probe_count(n_nodes: int, multiplier: float = 2.0) -> int:
    """Number of neighbors to probe: ``ceil(multiplier * log2(n))``, >= 1."""
    if n_nodes <= 1:
        return 1
    return max(1, int(np.ceil(multiplier * ceil_log2(max(n_nodes, 2)))))


def probe_neighbors(ring: StaticRing, start: int, count: int) -> list[int]:
    """``count`` consecutive nodes clockwise starting at ``successor(start)``.

    These are the neighbors whose owned intervals the joining node inspects.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    count = min(count, len(ring))
    neighbors = [ring.successor(start)]
    while len(neighbors) < count:
        neighbors.append(ring.successor_of_node(neighbors[-1]))
    return neighbors


def probe_split_identifier(
    ring: StaticRing,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> int:
    """Choose a join identifier by probing and splitting the largest interval.

    Procedure (Sec. 3.5 / Sec. 4):

    1. Draw a random point ``p`` in the identifier space.
    2. Probe ``ceil(probe_multiplier * log2(n))`` consecutive neighbors of
       ``successor(p)``.
    3. Among the probed nodes, find the one owning the largest interval
       (largest clockwise gap from its predecessor).
    4. Return the midpoint of that interval as the new node's identifier.

    The returned identifier is guaranteed not to collide with an existing
    node (the midpoint of a gap of length >= 2; length-1 gaps fall back to a
    fresh random draw, which only occurs in nearly-full tiny spaces).
    """
    generator = ensure_rng(rng)
    space = ring.space
    if len(ring) == 0:
        return int(generator.integers(0, space.size))

    point = int(generator.integers(0, space.size))
    count = default_probe_count(len(ring), probe_multiplier)
    candidates = probe_neighbors(ring, point, count)

    best_node = max(candidates, key=ring.gap_before)
    gap = ring.gap_before(best_node)
    if gap < 2:
        # Space is locally saturated; retry with fresh random points.
        for _ in range(64):
            candidate = int(generator.integers(0, space.size))
            if candidate not in ring:
                return candidate
        raise RuntimeError("identifier space saturated; cannot place new node")

    predecessor = ring.predecessor_of_node(best_node)
    return space.wrap(predecessor + gap // 2)


def _fast_probe_split(
    ids: list[int],
    space: IdSpace,
    generator: np.random.Generator,
    probe_multiplier: float,
) -> int:
    """One probing join against a sorted identifier list.

    Bit-identical replica of :func:`probe_split_identifier` — same RNG
    draws in the same order, same candidate ordering and tie-breaking —
    with plain ``bisect`` bookkeeping instead of ring-object calls.
    """
    size = space.size
    k = len(ids)
    if k == 0:
        return int(generator.integers(0, size))

    point = int(generator.integers(0, size))
    count = min(default_probe_count(k, probe_multiplier), k)
    start = bisect_left(ids, point)
    if start == k:
        start = 0

    # max() keeps the first strictly-greatest gap, in clockwise candidate
    # order from successor(point) — the reference's tie-breaking.
    best = -1
    best_gap = -1
    for j in range(count):
        index = start + j
        if index >= k:
            index -= k
        if k == 1:
            gap = size
        elif index > 0:
            gap = ids[index] - ids[index - 1]
        else:
            gap = ids[0] + size - ids[k - 1]
        if gap > best_gap:
            best = index
            best_gap = gap

    if best_gap < 2:
        # Space is locally saturated; retry with fresh random points.
        for _ in range(64):
            candidate = int(generator.integers(0, size))
            pos = bisect_left(ids, candidate)
            if pos >= k or ids[pos] != candidate:
                return candidate
        raise RuntimeError("identifier space saturated; cannot place new node")

    predecessor = ids[best - 1] if best > 0 else ids[k - 1]
    return space.wrap(predecessor + best_gap // 2)


def fast_probing_ids(
    space: IdSpace,
    n_nodes: int,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> list[int]:
    """``n_nodes`` probing-assigned identifiers, sorted ascending.

    The membership ``n_nodes`` successive :func:`probe_split_identifier`
    joins into an empty ring would produce, an order of magnitude faster —
    the property suite (``tests/property/test_prop_scale.py``) asserts the
    identity over random sizes and spaces.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    if n_nodes > space.size:
        raise ValueError(
            f"cannot place {n_nodes} distinct nodes in a space of {space.size}"
        )
    generator = ensure_rng(rng)
    ids: list[int] = []
    for _ in range(n_nodes):
        insort(ids, _fast_probe_split(ids, space, generator, probe_multiplier))
    return ids
