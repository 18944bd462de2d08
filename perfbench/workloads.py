"""The benchmark workloads, driven through the public API of ``repro``.

Each workload is a closed-loop batch simulation on one thread: the next
operation starts only when the previous one has returned, and nothing
arrives on a schedule. The benchmark seed makes every input: the ring is
built by the library's own probing assigner from the seed (ring build is
the measured set-up), and rendezvous keys and churn events come from a
``random.Random`` stream named after the workload and the seed.

A workload provides

* ``setup(seed)`` - the state its passes need (timed as ``setup_s``);
* ``run_pass(state, stamps)`` - one timed pass, returning a :class:`Pass`;
* ``checks(state, passes)`` - correctness gates, run outside every timed
  span, as ``(name, ok)`` pairs;
* ``summary(state, passes)`` - the end-to-end metrics named for it.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chord.fastbuild import (
    fast_centralized_load_array,
    fast_finger_matrix,
    fast_tree_arrays,
)
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.ring import StaticRing
from repro.core.analysis import imbalance_factor
from repro.core.builder import DatScheme, build_dat
from repro.core.slab import ProtocolRunResult, run_protocol_oracle, run_protocol_slab
from repro.experiments.scale import measure_scale_point
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport

BITS = 32
PROTOCOL_ROUNDS = 30


@dataclass
class Pass:
    """One timed pass of a workload."""

    #: Operations attempted (rounds, trees, churn events).
    ops: int
    #: Units of work the throughput metric counts.
    work: float
    #: Wall seconds of the timed work.
    wall_s: float
    #: Per-operation latency samples, seconds.
    op_s: list[float] = field(default_factory=list)
    #: Deterministic outputs of the pass.
    facts: dict[str, Any] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.work / self.wall_s


def _ring(n: int, seed: int) -> StaticRing:
    return ProbingIdAssigner().build_ring(IdSpace(BITS), n, rng=seed)


def _stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _stamped_transport(rounds: int) -> tuple[SimTransport, list[float]]:
    """A transport whose engine stamps the wall clock between rounds.

    Rounds fire at virtual times 1..rounds and deliver 1 ms later, so a
    stamp at ``k + 0.5`` separates round ``k`` from round ``k + 1``; the
    difference of consecutive stamps is one round's wall time.
    """
    transport = SimTransport()
    stamps: list[float] = []
    for k in range(rounds):
        transport.engine.schedule(k + 0.5, lambda: stamps.append(time.perf_counter()))
    return transport, stamps


def _protocol_facts(result: ProtocolRunResult, transport: SimTransport) -> dict[str, Any]:
    loads = result.sent + result.received
    return {
        "estimate": result.estimate,
        "messages_total": result.messages_total,
        "bytes_total": result.bytes_total,
        "pushes_total": result.pushes_total,
        "delivered": int(result.received.sum()),
        "load_imbalance": imbalance_factor(loads),
        "engine_events": transport.engine.events_fired,
        "heap_peak": transport.engine.heap_peak,
    }


class ProtocolWorkload:
    """Continuous-push ``sum`` aggregation toward one seeded key, 30 rounds."""

    rounds = PROTOCOL_ROUNDS

    def __init__(self, name: str, n: int, runner: Any, per_message: bool) -> None:
        self.name = name
        self.n = n
        self.runner = runner
        self.per_message = per_message
        self.params = {
            "n": n,
            "bits": BITS,
            "ids": "probing",
            "scheme": "balanced",
            "aggregate": "sum",
            "rounds": self.rounds,
            "path": runner.__name__,
        }
        self.last_result: ProtocolRunResult | None = None

    def setup(self, seed: int) -> tuple[StaticRing, int]:
        ring = _ring(self.n, seed)
        key = _stream(self.name, seed).randrange(1 << BITS)
        return ring, key

    def run_pass(self, state: tuple[StaticRing, int], stamps: bool) -> Pass:
        ring, key = state
        reset_msg_ids()
        if stamps:
            transport, marks = _stamped_transport(self.rounds)
        else:
            transport, marks = SimTransport(), []
        start = time.perf_counter()
        result = self.runner(ring, key, self.rounds, aggregate="sum", transport=transport)
        wall = time.perf_counter() - start
        self.last_result = result
        facts = _protocol_facts(result, transport)
        if stamps:
            facts["engine_events"] -= len(marks)
        work = facts["delivered"] if self.per_message else self.n * self.rounds
        return Pass(
            ops=self.rounds,
            work=work,
            wall_s=wall,
            op_s=list(np.diff(marks)),
            facts=facts,
        )

    def checks(self, state: tuple[StaticRing, int], passes: list[Pass]) -> list[tuple[str, bool]]:
        out = [
            (f"pass{i}.estimate_equals_n", p.facts["estimate"] == float(self.n))
            for i, p in enumerate(passes)
        ]
        keys = ("estimate", "messages_total", "bytes_total", "pushes_total")
        first = tuple(passes[0].facts[k] for k in keys)
        out.append(
            ("passes_identical", all(tuple(p.facts[k] for k in keys) == first for p in passes))
        )
        if self.per_message:
            out.extend(self._slab_equivalence(state))
        return out

    def _slab_equivalence(self, state: tuple[StaticRing, int]) -> list[tuple[str, bool]]:
        """The per-node object path must equal the slab path bit for bit."""
        ring, key = state
        oracle = self.last_result
        assert oracle is not None
        reset_msg_ids()
        slab = run_protocol_slab(ring, key, self.rounds, aggregate="sum")
        return [
            ("slab_estimate_identical", slab.estimate == oracle.estimate),
            ("slab_ids_identical", np.array_equal(slab.ids, oracle.ids)),
            ("slab_sent_identical", np.array_equal(slab.sent, oracle.sent)),
            ("slab_received_identical", np.array_equal(slab.received, oracle.received)),
            ("slab_bytes_sent_identical", np.array_equal(slab.bytes_sent, oracle.bytes_sent)),
            (
                "slab_bytes_received_identical",
                np.array_equal(slab.bytes_received, oracle.bytes_received),
            ),
        ]

    def summary(self, state: Any, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        facts = passes[-1].facts
        rate = statistics.median(p.rate for p in passes)
        named = (
            ("des_msgs_per_s", rate, "1/s")
            if self.per_message
            else ("node_rounds_per_s", rate, "1/s")
        )
        return {
            named[0]: (named[1], named[2]),
            "load_imbalance": (facts["load_imbalance"], "ratio"),
            "wire_bytes_per_msg": (facts["bytes_total"] / facts["messages_total"], "B"),
            "messages_total": (facts["messages_total"], "count"),
            "bytes_total": (facts["bytes_total"], "count"),
            "pushes_total": (facts["pushes_total"], "count"),
        }


class TreeStatsWorkload:
    """Basic and balanced trees, their statistics and load vectors, per key.

    One operation is one key: both trees with their statistics and message
    loads, plus the centralized baseline's loads. Throughput counts trees.
    """

    name = "tree-stats"
    n = 131072
    n_keys = 16
    oracle_n = 2048

    def __init__(self) -> None:
        self.params = {
            "n": self.n,
            "bits": BITS,
            "ids": "probing",
            "keys": self.n_keys,
            "schemes": ["basic", "balanced"],
            "oracle_n": self.oracle_n,
        }
        self.seed = 0

    def setup(self, seed: int) -> tuple[StaticRing, list[int], np.ndarray]:
        self.seed = seed
        ring = _ring(self.n, seed)
        stream = _stream(self.name, seed)
        keys = [stream.randrange(1 << BITS) for _ in range(self.n_keys)]
        return ring, keys, fast_finger_matrix(ring)

    def run_pass(self, state: tuple[StaticRing, list[int], np.ndarray], stamps: bool) -> Pass:
        ring, keys, matrix = state
        op_s: list[float] = []
        rooted = 0
        imbalances: list[float] = []
        heights: list[int] = []
        branching: list[int] = []
        for key in keys:
            start = time.perf_counter()
            basic = fast_tree_arrays(ring, key, scheme=DatScheme.BASIC, matrix=matrix)
            basic.stats()
            basic.message_load_array()
            fast_centralized_load_array(ring, key, matrix=matrix)
            balanced = fast_tree_arrays(ring, key, scheme=DatScheme.BALANCED, matrix=matrix)
            stats = balanced.stats()
            loads = balanced.message_load_array()
            op_s.append(time.perf_counter() - start)

            for tree in (basic, balanced):
                rooted += int(tree.subtree_size_array()[tree.root_index]) == self.n
            imbalances.append(imbalance_factor(loads))
            heights.append(stats.height)
            branching.append(stats.max_branching)
        return Pass(
            ops=2 * len(op_s),
            work=2 * len(op_s),
            wall_s=sum(op_s),
            op_s=op_s,
            facts={
                "rooted_trees": rooted,
                "load_imbalance": statistics.fmean(imbalances),
                "tree_height": max(heights),
                "max_branching": max(branching),
            },
        )

    def checks(self, state: Any, passes: list[Pass]) -> list[tuple[str, bool]]:
        out = [
            (f"pass{i}.root_subtree_equals_n", p.facts["rooted_trees"] == p.ops)
            for i, p in enumerate(passes)
        ]
        key = _stream(self.name, self.seed).randrange(1 << BITS)
        fast = measure_scale_point(self.oracle_n, bits=BITS, seed=self.seed, key=key)
        oracle = measure_scale_point(
            self.oracle_n, bits=BITS, seed=self.seed, key=key, oracle=True
        )
        out.append(("scale_point_equals_oracle", fast == oracle))
        return out

    def summary(self, state: Any, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        facts = passes[-1].facts
        return {
            "trees_per_s": (statistics.median(p.rate for p in passes), "1/s"),
            "load_imbalance": (facts["load_imbalance"], "ratio"),
            "tree_height": (facts["tree_height"], "count"),
            "max_branching": (facts["max_branching"], "count"),
        }


class ChurnWorkload:
    """Alternating joins and leaves against 16 tracked balanced trees."""

    name = "churn-maintain"
    n = 16384
    n_keys = 16
    n_events = 2000

    def __init__(self) -> None:
        self.params = {
            "n": self.n,
            "bits": BITS,
            "ids": "probing",
            "scheme": "balanced",
            "tracked_keys": self.n_keys,
            "events": self.n_events,
        }
        self._events: list[tuple[str, int]] | None = None
        self._keys: list[int] = []

    def _inputs(self, ring: StaticRing, seed: int) -> None:
        """Keys and the event schedule; made once, outside every timer."""
        stream = _stream(self.name, seed)
        self._keys = [stream.randrange(1 << BITS) for _ in range(self.n_keys)]
        live = list(ring.nodes)
        members = set(live)
        events: list[tuple[str, int]] = []
        for index in range(self.n_events):
            if index % 2 == 0:
                ident = stream.randrange(1 << BITS)
                while ident in members:
                    ident = stream.randrange(1 << BITS)
                live.append(ident)
                members.add(ident)
                events.append(("join", ident))
            else:
                pick = stream.randrange(len(live))
                ident = live[pick]
                live[pick] = live[-1]
                live.pop()
                members.discard(ident)
                events.append(("leave", ident))
        self._events = events

    def setup(self, seed: int) -> DatUpdateEngine:
        ring = _ring(self.n, seed)
        if self._events is None:
            self._inputs(ring, seed)
        engine = DatUpdateEngine(ring, scheme=DatScheme.BALANCED)
        for key in self._keys:
            engine.track(key)
        return engine

    def run_pass(self, state: DatUpdateEngine, stamps: bool) -> Pass:
        assert self._events is not None
        op_s: list[float] = []
        finger_updates = parent_updates = rebuilt = 0
        clock = time.perf_counter
        for kind, ident in self._events:
            start = clock()
            report = state.apply(kind, ident)
            op_s.append(clock() - start)
            finger_updates += report.finger_updates
            parent_updates += report.parent_updates
            rebuilt += len(report.rebuilt_keys)
        return Pass(
            ops=len(op_s),
            work=len(op_s),
            wall_s=sum(op_s),
            op_s=op_s,
            facts={
                "finger_updates": finger_updates,
                "parent_updates": parent_updates,
                "rebuilt_keys": rebuilt,
                "final_n": len(state.ring),
            },
        )

    def checks(self, state: DatUpdateEngine, passes: list[Pass]) -> list[tuple[str, bool]]:
        ring = StaticRing(state.ring.space, state.ring.nodes)
        out = []
        for key in self._keys:
            tree = state.tree(key)
            reference = build_dat(ring, key, scheme=DatScheme.BALANCED, fast=True)
            out.append(
                (
                    f"tree_{key}_equals_rebuild",
                    tree.root == reference.root and tree.parent == reference.parent,
                )
            )
        keys = ("finger_updates", "parent_updates", "rebuilt_keys", "final_n")
        first = tuple(passes[0].facts[k] for k in keys)
        out.append(
            ("passes_identical", all(tuple(p.facts[k] for k in keys) == first for p in passes))
        )
        return out

    def summary(self, state: DatUpdateEngine, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        samples = [s for p in passes for s in p.op_s]
        p50, p99 = np.percentile(samples, [50, 99])
        trees = [state.tree(key) for key in self._keys]
        facts = passes[-1].facts
        return {
            "churn_events_per_s": (statistics.median(p.rate for p in passes), "1/s"),
            "churn_event_p50_ms": (float(p50) * 1e3, "ms"),
            "churn_event_p99_ms": (float(p99) * 1e3, "ms"),
            "load_imbalance": (
                statistics.fmean(imbalance_factor(t.message_loads()) for t in trees),
                "ratio",
            ),
            "tree_height": (max(t.height for t in trees), "count"),
            "max_branching": (max(t.stats().max_branching for t in trees), "count"),
            "finger_updates": (facts["finger_updates"], "count"),
            "parent_updates": (facts["parent_updates"], "count"),
            "rebuilt_keys": (facts["rebuilt_keys"], "count"),
        }


class TreePathsWorkload:
    """The tree-stats pass, then the churn-maintain pass, as one workload.

    Both are DAT tree paths with no messages: the fig-7/8 statistics on the
    131072-node ring and incremental maintenance of 16 balanced trees on a
    16384-node ring under 2000 events. One pass runs both; the throughput
    counts passes. Each keeps its own gates and named metrics. Churn
    consumes its engine, so a pass that finds it used rebuilds it first,
    outside the timed work.
    """

    name = "tree-paths"

    def __init__(self) -> None:
        self.stats = TreeStatsWorkload()
        self.churn = ChurnWorkload()
        self.n = self.stats.n + self.churn.n
        self.params = {"tree-stats": self.stats.params, "churn-maintain": self.churn.params}
        self.seed = 0

    def setup(self, seed: int) -> tuple[Any, list[Any]]:
        self.seed = seed
        return self.stats.setup(seed), [self.churn.setup(seed), False]

    def run_pass(self, state: tuple[Any, list[Any]], stamps: bool) -> Pass:
        tree_state, engine = state
        if engine[1]:
            engine[0] = None
            engine[0] = self.churn.setup(self.seed)
        trees = self.stats.run_pass(tree_state, stamps)
        churn = self.churn.run_pass(engine[0], stamps)
        engine[1] = True
        facts = dict(trees.facts)
        facts.update(churn.facts)
        facts["parts"] = (trees, churn)
        return Pass(ops=trees.ops + churn.ops, work=1, wall_s=trees.wall_s + churn.wall_s, facts=facts)

    @staticmethod
    def _parts(passes: list[Pass], i: int) -> list[Pass]:
        return [p.facts["parts"][i] for p in passes]

    def checks(self, state: tuple[Any, list[Any]], passes: list[Pass]) -> list[tuple[str, bool]]:
        return self.stats.checks(state[0], self._parts(passes, 0)) + self.churn.checks(
            state[1][0], self._parts(passes, 1)
        )

    def summary(self, state: tuple[Any, list[Any]], passes: list[Pass]) -> dict[str, tuple[float, str]]:
        trees = self._parts(passes, 0)
        named = self.stats.summary(state[0], trees)
        keys = [s for p in trees for s in p.op_s]
        named["tree_key_p50_ms"] = (statistics.median(keys) * 1e3, "ms")
        for name, value in self.churn.summary(state[1][0], self._parts(passes, 1)).items():
            named[name if name.startswith("churn_") or name not in named else f"churn_{name}"] = value
        return named


def make(name: str) -> Any:
    """The workload called ``name``."""
    if name == "slab-push":
        return ProtocolWorkload("slab-push", 131072, run_protocol_slab, per_message=False)
    if name == "des-protocol":
        return ProtocolWorkload("des-protocol", 2048, run_protocol_oracle, per_message=True)
    if name == "tree-paths":
        return TreePathsWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("slab-push", "tree-paths", "des-protocol")
