"""Per-node hotspot accounting — the runtime analogue of Fig. 8.

:class:`HotspotAccountant` subsumes the transport-level message counters
(the historical ``MessageStats`` class, now removed) and adds the load
statistics the paper's Sec. 5.3 evaluation is built on: rolling max and
percentile load across nodes, and the imbalance factor (max load divided by
average load) as a time series sampled on the sim clock.

All counters live in one dense ``(4, capacity)`` int64 store — sent,
received, bytes sent, bytes received — with one column (*slot*) per node.
Scalar callers reach a node's slot through an ``ident -> slot`` dict; the
batched path (:meth:`HotspotAccountant.record_send_bulk` and friends)
resolves a whole column of int64 ids at once through a sorted id index and
``searchsorted``, and adds per-node totals as array ops. Both paths write
the same store, so there is one set of counters, not two. Idents that do
not fit in int64 (the UDP fleet's wide identifier spaces) are counted
through the dict only; the bulk path sees int64 batch columns.

All public methods take the accountant's lock: the threaded UDP transport
increments counters from its receive thread while callers read them, and a
read that straddles a torn sent/received update would mis-state a node's
load. The discrete-event transport is single-threaded, where the
uncontended lock costs a few tens of nanoseconds per message.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.telemetry.config import DEFAULT_PERCENTILES

__all__ = ["NodeLoad", "LoadSample", "HotspotAccountant", "percentile"]

#: Rows of the dense store, in :class:`NodeLoad` field order.
_SENT, _RECEIVED, _BYTES_SENT, _BYTES_RECEIVED = range(4)

#: Slots allocated up front; the store doubles when it fills.
_INITIAL_CAPACITY = 64

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class NodeLoad:
    """Message/byte totals for one node."""

    sent: int
    received: int
    bytes_sent: int
    bytes_received: int

    @property
    def total(self) -> int:
        """Sent + received messages — the Fig. 8 'aggregation messages' load."""
        return self.sent + self.received


@dataclass(frozen=True)
class LoadSample:
    """One point on the load-balance time series.

    ``imbalance`` is max load over mean load — the paper's load-balance
    metric (Fig. 8b); 1.0 means perfectly even, n means one node carries
    everything.
    """

    at: float
    n_nodes: int
    total: int
    mean: float
    maximum: int
    imbalance: float
    percentiles: tuple[tuple[float, float], ...]

    def percentile(self, q: float) -> float:
        """Look up one recorded percentile (KeyError if not in the grid)."""
        for grid_q, value in self.percentiles:
            if grid_q == q:
                return value
        raise KeyError(f"percentile {q} not recorded (grid: "
                       f"{tuple(g for g, _ in self.percentiles)})")


def percentile(values: list[int] | list[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in (0, 1))."""
    if not values:
        raise ValueError("percentile of empty sequence")
    return _interpolate(sorted(values), q)


def _interpolate(ordered: Any, q: float) -> float:
    """The ``q``-th percentile of an already sorted, non-empty sequence."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower]) * (1.0 - weight) + float(ordered[upper]) * weight


def _fits_int64(node: Any) -> bool:
    return isinstance(node, (int, np.integer)) and _INT64_MIN <= node <= _INT64_MAX


class HotspotAccountant:
    """Mutable per-node send/receive counters plus load-balance statistics.

    A superset of the historical ``MessageStats`` API: transports call
    :meth:`record_send`/:meth:`record_receive` per message or
    :meth:`record_send_bulk`/:meth:`record_receive_bulk` per batch;
    experiments may instead attribute precomputed loads with
    :meth:`add_load`. Statistics (:meth:`max_load`, :meth:`percentile`,
    :meth:`imbalance`), snapshots (:meth:`sample`) and the vector readout
    (:meth:`load_arrays`) read the same dense store.

    A node enters the population the first time any recording method names
    it (``add_load`` with zero loads included) and leaves it only on
    :meth:`reset`.
    """

    def __init__(
        self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> None:
        self.percentile_grid = percentiles
        self._by_kind: dict[str, int] = defaultdict(int)
        self.series: list[LoadSample] = []
        # The UDP transport updates counters from caller threads and its
        # receive thread concurrently; array-element increments are not
        # atomic, and unlocked reads could observe a torn sent/received pair.
        self._lock = threading.Lock()
        self._clear_locked()

    def _clear_locked(self) -> None:
        """Forget every node (lock held, or during construction)."""
        self._adopt_locked(np.zeros((4, _INITIAL_CAPACITY), dtype=np.int64))
        self._slot_of: dict[Any, int] = {}
        self._idents: list[Any] = []
        # Sorted int64 ids of the indexed slots, and the slot of each.
        self._index_ids = np.empty(0, dtype=np.int64)
        self._index_slots = np.empty(0, dtype=np.int64)
        # Slots registered by the scalar path with an int64-sized ident and
        # not yet merged into the index (merged on the next id-column lookup).
        self._unindexed: list[int] = []

    # -- slots (``_locked``: the caller holds the lock) ---------------------

    def _adopt_locked(self, store: np.ndarray) -> None:
        self._store = store
        # Row views for the array paths, and memoryviews of the same rows
        # for the scalar paths: a memoryview cell update costs about a
        # third of a NumPy scalar-index update, as cheap as a dict's.
        self._rows = tuple(store)
        self._cells = tuple(memoryview(row) for row in store)

    def _reserve_locked(self, count: int) -> None:
        capacity = self._store.shape[1]
        if count <= capacity:
            return
        grown = np.zeros((4, max(count, 2 * capacity)), dtype=np.int64)
        grown[:, :capacity] = self._store
        self._adopt_locked(grown)

    def _new_slot_locked(self, node: Any) -> int:
        """Register ``node`` (not seen before) and return its slot."""
        slot = len(self._idents)
        self._reserve_locked(slot + 1)
        self._slot_of[node] = slot
        self._idents.append(node)
        if _fits_int64(node):
            self._unindexed.append(slot)
        return slot

    def _merge_index_locked(self, ids: np.ndarray, slots: np.ndarray) -> None:
        merged_ids = np.concatenate((self._index_ids, ids))
        order = np.argsort(merged_ids, kind="stable")
        self._index_ids = merged_ids[order]
        self._index_slots = np.concatenate((self._index_slots, slots))[order]

    def _lookup_locked(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index positions of int64 ids and which of them are known; the
        position of an unknown id is some valid index position.

        ``searchsorted`` is about 3x faster on sorted ids than on ids in
        arbitrary order; both give the same result.
        """
        if self._unindexed:
            slots = np.array(self._unindexed, dtype=np.int64)
            ids_new = np.array(
                [self._idents[s] for s in self._unindexed], dtype=np.int64
            )
            self._unindexed = []
            self._merge_index_locked(ids_new, slots)
        index = self._index_ids
        if not len(index):
            return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
        pos = np.searchsorted(index, ids)
        np.minimum(pos, len(index) - 1, out=pos)
        return pos, index[pos] == ids

    def _bulk_slots_locked(self, ordered: np.ndarray) -> np.ndarray:
        """Slots of sorted int64 ids, registering the ones not seen before."""
        pos, found = self._lookup_locked(ordered)
        if not found.all():
            missing = ordered[~found]
            # Sorted, so duplicates are adjacent (np.unique re-sorts: ~30 ms).
            fresh = missing[np.concatenate(([True], missing[1:] != missing[:-1]))]
            start = len(self._idents)
            idents = fresh.tolist()
            self._reserve_locked(start + len(idents))
            self._slot_of.update(zip(idents, range(start, start + len(idents))))
            self._idents.extend(idents)
            self._merge_index_locked(
                fresh, np.arange(start, len(self._idents), dtype=np.int64)
            )
            pos, found = self._lookup_locked(ordered)
        return self._index_slots[pos]

    def _add_bulk_locked(
        self, count_row: int, bytes_row: int, nodes: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Add one message per ``(nodes[i], sizes[i])`` to two store rows."""
        ids = np.asarray(nodes, dtype=np.int64)
        # Sorted, the ids search about 3x faster and a batch's new ids
        # have their duplicates side by side.
        order = np.argsort(ids)
        slots = self._bulk_slots_locked(ids[order])
        np.add.at(self._rows[count_row], slots, 1)
        sizes = np.asarray(sizes, dtype=np.int64)[order]
        np.add.at(self._rows[bytes_row], slots, sizes)

    # -- recording ---------------------------------------------------------

    def record_send(self, node: int, size: int = 0, kind: str | None = None) -> None:
        """Count one message (of ``size`` bytes, of ``kind``) sent by ``node``."""
        with self._lock:
            slot = self._slot_of.get(node)
            if slot is None:
                slot = self._new_slot_locked(node)
            self._cells[_SENT][slot] += 1
            self._cells[_BYTES_SENT][slot] += size
            if kind is not None:
                self._by_kind[kind] += 1

    def record_receive(self, node: int, size: int = 0) -> None:
        """Count one message (of ``size`` bytes) received by ``node``."""
        with self._lock:
            slot = self._slot_of.get(node)
            if slot is None:
                slot = self._new_slot_locked(node)
            self._cells[_RECEIVED][slot] += 1
            self._cells[_BYTES_RECEIVED][slot] += size

    def record_send_bulk(
        self, nodes: np.ndarray, sizes: np.ndarray, kind: str | None = None
    ) -> None:
        """Count one sent message per ``(nodes[i], sizes[i])`` pair.

        Equivalent to ``record_send`` in a loop but takes the lock once and
        works on whole columns: ``nodes`` (int64 idents) are sorted once,
        mapped to slots with one ``searchsorted`` against the sorted id
        index, and message and byte counts are added with two ``np.add.at``.
        """
        if len(nodes) == 0:
            return
        with self._lock:
            self._add_bulk_locked(_SENT, _BYTES_SENT, nodes, sizes)
            if kind is not None:
                self._by_kind[kind] += len(nodes)

    def record_receive_bulk(self, nodes: np.ndarray, sizes: np.ndarray) -> None:
        """Count one received message per ``(nodes[i], sizes[i])`` pair."""
        if len(nodes) == 0:
            return
        with self._lock:
            self._add_bulk_locked(_RECEIVED, _BYTES_RECEIVED, nodes, sizes)

    def add_load(self, node: int, sent: int = 0, received: int = 0) -> None:
        """Attribute precomputed message counts to ``node`` in bulk.

        Experiments that compute loads analytically (the Fig. 8 harness
        derives per-node aggregation load from tree shape) use this to feed
        the same accounting path the transports feed message-by-message.
        A zero-load call registers the node, so idle nodes enter the
        population.
        """
        if sent < 0 or received < 0:
            raise ValueError(f"loads cannot be negative ({sent=}, {received=})")
        with self._lock:
            slot = self._slot_of.get(node)
            if slot is None:
                slot = self._new_slot_locked(node)
            self._cells[_SENT][slot] += sent
            self._cells[_RECEIVED][slot] += received

    # -- reading (MessageStats-compatible) ---------------------------------

    def load(self, node: int) -> NodeLoad:
        """Totals for one node (zeros if it never appeared)."""
        with self._lock:
            slot = self._slot_of.get(node)
            if slot is None:
                return NodeLoad(0, 0, 0, 0)
            return NodeLoad(*self._store[:, slot].tolist())

    def load_arrays(self, nodes: np.ndarray) -> np.ndarray:
        """``(4, len(nodes))`` int64 array of sent, received, bytes sent and
        bytes received per int64 ident (zeros for nodes never seen).

        Readouts name nodes in ring order, so ``nodes`` is searched as given
        (``searchsorted`` is fastest on sorted ids) instead of being sorted
        first: that saves two ``len(nodes)`` temporaries at the end of a
        run, where the process is at its memory peak.
        """
        ids = np.asarray(nodes, dtype=np.int64)
        out = np.empty((4, len(ids)), dtype=np.int64)
        with self._lock:
            pos, found = self._lookup_locked(ids)
            if len(self._index_slots):
                slots = self._index_slots[pos]
                np.take(self._store, slots, axis=1, out=out, mode="clip")
        out[:, ~found] = 0
        return out

    def nodes(self) -> set[int]:
        """Every node that sent, received or was attributed load."""
        with self._lock:
            return set(self._idents)

    def total_messages(self) -> int:
        """Total messages observed (each counted once, at the sender)."""
        with self._lock:
            return int(self._rows[_SENT][: len(self._idents)].sum())

    def _population(self, nodes: Iterable[int] | None) -> tuple[list[Any], np.ndarray]:
        """Distinct nodes of the population and their total (sent + received)
        loads; ``None`` means every node seen, an explicit list may name
        nodes never seen (load 0)."""
        with self._lock:
            count = len(self._idents)
            totals = self._rows[_SENT][:count] + self._rows[_RECEIVED][:count]
            if nodes is None:
                return list(self._idents), totals
            population = list(dict.fromkeys(nodes))
            # Unseen nodes point one past the end, at an appended zero.
            slots = [self._slot_of.get(node, count) for node in population]
        return population, np.append(totals, 0)[np.asarray(slots, dtype=np.int64)]

    def loads(self, nodes: list[int] | None = None) -> dict[int, int]:
        """Per-node total (sent + received) message counts.

        Pass the full node list to include zero-load nodes — Fig. 8's
        averages are over *all* nodes, idle ones included.
        """
        population, totals = self._population(nodes)
        return dict(zip(population, totals.tolist()))

    def series_snapshot(self) -> list[LoadSample]:
        """A consistent copy of the rolling sample series.

        Exporters iterate this while tick hooks (or an experiment thread)
        may still be appending samples; the copy is taken under the lock.
        """
        with self._lock:
            return list(self.series)

    def by_kind(self) -> dict[str, int]:
        """Messages sent, broken down by message kind.

        Only populated by transports that pass ``kind`` to
        :meth:`record_send` (the simulated transport does) — used to show
        that DAT adds zero tree-maintenance message kinds on top of Chord's.
        """
        with self._lock:
            return dict(self._by_kind)

    def reset(self) -> None:
        """Forget every node and counter and drop the sample series."""
        with self._lock:
            self._clear_locked()
            self._by_kind.clear()
            self.series.clear()

    # -- load-balance statistics -------------------------------------------

    def max_load(self, nodes: list[int] | None = None) -> int:
        """Largest per-node total load (0 when nothing recorded)."""
        totals = self._population(nodes)[1]
        return int(totals.max()) if len(totals) else 0

    def mean_load(self, nodes: list[int] | None = None) -> float:
        """Average per-node total load over the population (0.0 when empty)."""
        totals = self._population(nodes)[1]
        return int(totals.sum()) / len(totals) if len(totals) else 0.0

    def percentile(self, q: float, nodes: list[int] | None = None) -> float:
        """The ``q``-th percentile of per-node total loads."""
        totals = self._population(nodes)[1]
        if not len(totals):
            raise ValueError("no loads recorded")
        return _interpolate(np.sort(totals).tolist(), q)

    def imbalance(self, nodes: list[int] | None = None) -> float:
        """Max load over mean load — the Fig. 8b load-balance factor.

        Computed inline rather than via ``repro.core.analysis`` (which
        imports telemetry); 0.0 when nothing has been recorded yet.
        """
        totals = self._population(nodes)[1]
        total = int(totals.sum())
        if total == 0:
            return 0.0
        return int(totals.max()) / (total / len(totals))

    def sample(self, now: float, nodes: list[int] | None = None) -> LoadSample:
        """Snapshot the current load distribution at sim time ``now``.

        The sample is appended to :attr:`series`, building the rolling
        imbalance-factor time series the Fig. 8 runtime analogue plots.
        The load vector is sorted once for every point of the percentile
        grid.
        """
        ordered = np.sort(self._population(nodes)[1]).tolist()
        n_nodes = len(ordered)
        total = sum(ordered)
        mean = total / n_nodes if n_nodes else 0.0
        maximum = ordered[-1] if ordered else 0
        imbalance = (maximum / mean) if mean > 0 else 0.0
        grid = tuple(
            (q, _interpolate(ordered, q) if ordered else 0.0)
            for q in self.percentile_grid
        )
        point = LoadSample(
            at=now,
            n_nodes=n_nodes,
            total=total,
            mean=mean,
            maximum=maximum,
            imbalance=imbalance,
            percentiles=grid,
        )
        with self._lock:
            self.series.append(point)
        return point
