"""The dense load accountant against a plain-dict reference model.

:class:`~repro.telemetry.hotspot.HotspotAccountant` keeps its counters in
one int64 array with an ident -> slot dict and a sorted id index for the
batched path. :class:`DictAccountant` below is the straightforward model
of the same semantics: four per-node dicts, updated one message at a
time. A state machine drives both through random interleavings of every
recording call (scalar, bulk with repeated ids, zero-load registration,
reset) and checks after each step that every reader agrees exactly,
floats bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.telemetry.hotspot import HotspotAccountant, LoadSample

#: Idents the bulk path may see: int64 values, extremes included.
INT64_IDENTS = (0, 1, 7, 42, 2**31 + 5, 2**62, 2**63 - 1, -(2**63), -3)
#: A 160-bit ident (SHA-1 sized, as in the UDP fleet): scalar path only.
WIDE_IDENT = (1 << 159) + 12345
SCALAR_IDENTS = INT64_IDENTS + (WIDE_IDENT,)
#: Nodes readers ask about without them ever being recorded.
UNSEEN = (99, 1 << 100)

KINDS = st.sampled_from([None, "agg_push", "lookup"])
SIZES = st.integers(min_value=0, max_value=10_000)
GRIDS = ((0.5, 0.9, 0.99), (0.1, 0.25, 0.5, 0.75, 0.999))


class DictAccountant:
    """Reference semantics: per-node dicts, one increment per message."""

    def __init__(self, percentiles: tuple[float, ...]) -> None:
        self.grid = percentiles
        self.reset()

    def reset(self) -> None:
        self.sent: dict[int, int] = defaultdict(int)
        self.received: dict[int, int] = defaultdict(int)
        self.bytes_sent: dict[int, int] = defaultdict(int)
        self.bytes_received: dict[int, int] = defaultdict(int)
        self.kinds: dict[str, int] = defaultdict(int)
        self.series: list[LoadSample] = []

    def record_send(self, node, size, kind) -> None:
        self.sent[node] += 1
        self.bytes_sent[node] += size
        if kind is not None:
            self.kinds[kind] += 1

    def record_receive(self, node, size) -> None:
        self.received[node] += 1
        self.bytes_received[node] += size

    def add_load(self, node, sent, received) -> None:
        self.sent[node] += sent
        self.received[node] += received

    def nodes(self) -> set:
        return set(self.sent) | set(self.received)

    def load(self, node) -> tuple[int, int, int, int]:
        return (
            self.sent.get(node, 0),
            self.received.get(node, 0),
            self.bytes_sent.get(node, 0),
            self.bytes_received.get(node, 0),
        )

    def loads(self, nodes=None) -> dict:
        population = self.nodes() if nodes is None else nodes
        return {n: self.sent.get(n, 0) + self.received.get(n, 0) for n in population}

    @staticmethod
    def percentile(values, q) -> float:
        ordered = sorted(values)
        position = q * (len(ordered) - 1)
        lower, upper = math.floor(position), math.ceil(position)
        if lower == upper:
            return float(ordered[lower])
        weight = position - lower
        return float(ordered[lower]) * (1.0 - weight) + float(ordered[upper]) * weight

    def stats(self, nodes=None) -> tuple:
        values = list(self.loads(nodes).values())
        total = sum(values)
        mean = total / len(values) if values else 0.0
        maximum = max(values, default=0)
        imbalance = 0.0 if not values or total == 0 else maximum / (total / len(values))
        return maximum, mean, imbalance

    def sample(self, now, nodes=None) -> LoadSample:
        values = list(self.loads(nodes).values())
        total = sum(values)
        mean = total / len(values) if values else 0.0
        maximum = max(values, default=0)
        point = LoadSample(
            at=now,
            n_nodes=len(values),
            total=total,
            mean=mean,
            maximum=maximum,
            imbalance=(maximum / mean) if mean > 0 else 0.0,
            percentiles=tuple(
                (q, self.percentile(values, q) if values else 0.0) for q in self.grid
            ),
        )
        self.series.append(point)
        return point


def same_bits(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and repr(a) == repr(b)


class AccountantMachine(RuleBasedStateMachine):
    """Random interleavings of recording calls; readers checked each step."""

    def __init__(self) -> None:
        super().__init__()
        self.grid = GRIDS[0]
        self.dense = HotspotAccountant(percentiles=self.grid)
        self.model = DictAccountant(self.grid)
        self.clock = 0.0

    @rule(node=st.sampled_from(SCALAR_IDENTS), size=SIZES, kind=KINDS)
    def record_send(self, node, size, kind):
        self.dense.record_send(node, size, kind=kind)
        self.model.record_send(node, size, kind)

    @rule(node=st.sampled_from(SCALAR_IDENTS), size=SIZES)
    def record_receive(self, node, size):
        self.dense.record_receive(node, size)
        self.model.record_receive(node, size)

    @rule(
        rows=st.lists(st.tuples(st.sampled_from(INT64_IDENTS), SIZES), max_size=40),
        kind=KINDS,
    )
    def record_send_bulk(self, rows, kind):
        nodes = np.array([node for node, _ in rows], dtype=np.int64)
        sizes = np.array([size for _, size in rows], dtype=np.int64)
        self.dense.record_send_bulk(nodes, sizes, kind=kind)
        if rows:  # an empty batch records nothing, not even its kind
            for node, size in rows:
                self.model.record_send(node, size, None)
            if kind is not None:
                self.model.kinds[kind] += len(rows)

    @rule(rows=st.lists(st.tuples(st.sampled_from(INT64_IDENTS), SIZES), max_size=40))
    def record_receive_bulk(self, rows):
        nodes = np.array([node for node, _ in rows], dtype=np.int64)
        sizes = np.array([size for _, size in rows], dtype=np.int64)
        self.dense.record_receive_bulk(nodes, sizes)
        for node, size in rows:
            self.model.record_receive(node, size)

    @rule(
        node=st.sampled_from(SCALAR_IDENTS),
        sent=st.integers(min_value=0, max_value=50),
        received=st.integers(min_value=0, max_value=50),
        idle=st.booleans(),
    )
    def add_load(self, node, sent, received, idle):
        if idle:  # zero-load registration
            sent = received = 0
        self.dense.add_load(node, sent=sent, received=received)
        self.model.add_load(node, sent, received)

    @rule()
    def reset(self):
        self.dense.reset()
        self.model.reset()

    @rule(
        nodes=st.none()
        | st.lists(st.sampled_from(SCALAR_IDENTS + UNSEEN), min_size=1, max_size=12)
    )
    def sample(self, nodes):
        self.clock += 1.0
        got = self.dense.sample(self.clock, nodes)
        want = self.model.sample(self.clock, nodes)
        assert (got.at, got.n_nodes, got.total, got.maximum) == (
            want.at,
            want.n_nodes,
            want.total,
            want.maximum,
        )
        assert type(got.total) is int and type(got.maximum) is int
        assert same_bits(got.mean, want.mean)
        assert same_bits(got.imbalance, want.imbalance)
        assert [q for q, _ in got.percentiles] == [q for q, _ in want.percentiles]
        for (_, a), (_, b) in zip(got.percentiles, want.percentiles):
            assert same_bits(a, b)

    @invariant()
    def readers_agree(self):
        dense, model = self.dense, self.model
        assert dense.nodes() == model.nodes()
        for node in SCALAR_IDENTS + UNSEEN:
            assert tuple(vars(dense.load(node)).values()) == model.load(node)
        assert dense.loads() == model.loads()
        population = [WIDE_IDENT, 7, 7, UNSEEN[0], -3]
        assert dense.loads(population) == model.loads(population)
        assert dense.total_messages() == sum(model.sent.values())
        assert dense.by_kind() == dict(model.kinds)
        assert dense.series_snapshot() == model.series
        for nodes in (None, population):
            maximum, mean, imbalance = model.stats(nodes)
            assert dense.max_load(nodes) == maximum
            assert same_bits(dense.mean_load(nodes), mean)
            assert same_bits(dense.imbalance(nodes), imbalance)
            values = list(model.loads(nodes).values())
            if not values:
                with pytest.raises(ValueError):
                    dense.percentile(0.5, nodes)
            for q in (0.3, 0.5, 0.95) if values else ():
                want = model.percentile(values, q)
                assert same_bits(dense.percentile(q, nodes), want)
        # Unsorted on purpose: readouts usually come sorted, but need not.
        ids = np.array(INT64_IDENTS + (UNSEEN[0],), dtype=np.int64)
        columns = dense.load_arrays(ids)
        assert columns.shape == (4, len(ids)) and columns.dtype == np.int64
        assert columns.T.tolist() == [list(model.load(node)) for node in ids.tolist()]


TestAccountantMatchesDictModel = AccountantMachine.TestCase
TestAccountantMatchesDictModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_percentile_grid_sorts_once_and_matches_model():
    # A wider grid than the default, over a population with ties and
    # idle nodes; every LoadSample field must match the model exactly.
    dense = HotspotAccountant(percentiles=GRIDS[1])
    model = DictAccountant(GRIDS[1])
    for node, sent in ((1, 5), (2, 5), (3, 0), (4, 17), (5, 2)):
        dense.add_load(node, sent=sent)
        model.add_load(node, sent, 0)
    assert dense.sample(3.0) == model.sample(3.0)
    assert dense.sample(4.0, [1, 9, 4]) == model.sample(4.0, [1, 9, 4])


def test_empty_accountant_readers():
    dense = HotspotAccountant()
    assert dense.nodes() == set()
    assert dense.loads() == {}
    assert dense.max_load() == 0 and dense.mean_load() == 0.0
    assert dense.imbalance() == 0.0 and dense.total_messages() == 0
    assert dense.load_arrays(np.array([], dtype=np.int64)).shape == (4, 0)
    sample = dense.sample(0.0)
    assert (sample.n_nodes, sample.total, sample.maximum) == (0, 0, 0)
    assert all(value == 0.0 for _, value in sample.percentiles)
