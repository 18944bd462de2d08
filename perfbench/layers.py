"""Layer tracing for the benchmark: span wrappers installed from outside ``src/``.

Every entry in :data:`LAYER_TARGETS` names one public entry point of one
``repro`` layer. :class:`Tracer` wraps each of them for the duration of a
``with tracer.installed():`` block and restores the originals on exit, so
timed runs execute the unmodified program.

Module-level functions are replaced in *every* loaded module that holds a
reference to them, the benchmark's own included, because callers look a
function up in their own module's namespace (``core.slab`` imports
``float_repr_lengths`` directly, ``chord.block`` imports
``fast_finger_matrix`` directly). Methods and
classmethods are replaced on their class, which every caller reaches through
attribute lookup at call time.

Each wrapped call is a span: name, start, end and the span that caused it.
The tracer keeps per-name busy time (sum of durations), self time (busy minus
the time covered by child spans), call counts and item counts, plus the raw
spans up to :data:`SPAN_CAP`; :meth:`Tracer.write_spans` writes them out once
the run is over. Self times of all names plus the unattributed remainder add
up exactly to the traced wall time, by construction: a top-level span's
duration is the sum of the self times beneath it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: Raw spans kept for the written trace; totals are always complete.
SPAN_CAP = 200_000


def _first_len(args: tuple[Any, ...]) -> int:
    return len(args[0])


def _second_len(args: tuple[Any, ...]) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is ``module`` or ``module:Class``; ``items`` optionally maps
    the call's positional arguments (``self`` included for methods) to a
    work count, such as the number of values sized or rows accounted.
    """

    span: str
    owner: str
    attr: str
    items: Callable[[tuple[Any, ...]], int] | None = None


#: Public entry points per layer, grouped as the repository's modules are.
LAYER_TARGETS: tuple[Target, ...] = (
    # chord.idgen / chord.ringarray: probing ring build.
    Target("chord.idgen.build_ring", "repro.chord.idgen:ProbingIdAssigner", "build_ring"),
    # chord.fastbuild: finger matrix, parent kernel, tree statistics.
    Target("chord.fastbuild.finger_matrix", "repro.chord.fastbuild", "fast_finger_matrix"),
    Target("chord.fastbuild.parent_kernel", "repro.chord.fastbuild", "_best_parent_slots"),
    Target("chord.fastbuild.tree_arrays", "repro.chord.fastbuild", "fast_tree_arrays"),
    Target("chord.fastbuild.build_dat", "repro.chord.fastbuild", "build_dat_fast"),
    Target("chord.fastbuild.stats", "repro.chord.fastbuild:DatTreeArrays", "stats"),
    Target(
        "chord.fastbuild.message_loads",
        "repro.chord.fastbuild:DatTreeArrays",
        "message_load_array",
    ),
    Target(
        "chord.fastbuild.centralized",
        "repro.chord.fastbuild",
        "fast_centralized_load_array",
    ),
    # chord.block: shared routing state of the slab path.
    Target("chord.block.from_ring", "repro.chord.block:ChordNodeBlock", "from_ring"),
    Target("chord.block.key_parents", "repro.chord.block:ChordNodeBlock", "key_parents"),
    # chord.incremental: per-event maintenance.
    Target("chord.incremental.ring_apply", "repro.chord.incremental:RingMaintainer", "apply"),
    Target("chord.incremental.tree_patch", "repro.chord.incremental:DatUpdateEngine", "apply"),
    # core.slab: whole-round protocol kernel.
    Target("core.slab.push_round", "repro.core.slab:SlabContinuousRun", "push_round"),
    Target("core.slab.deliver", "repro.core.slab:SlabContinuousRun", "_on_deliver"),
    # core.service + core.limiting: per-node protocol objects.
    Target("core.service.push", "repro.core.service:DatNodeService", "_push_once"),
    Target("core.service.receive", "repro.core.service:DatNodeService", "_on_push"),
    Target("core.service.parent", "repro.core.service:DatNodeService", "parent_toward_key"),
    Target("core.limiting.for_gap", "repro.core.limiting:FingerLimiter", "for_gap"),
    Target("core.limiting.finger_limit", "repro.core.limiting", "finger_limit"),
    # sim.messages: wire sizing.
    Target("sim.messages.float_repr", "repro.sim.messages", "float_repr_lengths", _first_len),
    Target("sim.messages.encoded_size", "repro.sim.messages:Message", "encoded_size"),
    # sim.simnet: transport.
    Target("sim.simnet.send_batch", "repro.sim.simnet:SimTransport", "send_batch", _second_len),
    Target("sim.simnet.deliver_batch", "repro.sim.simnet:SimTransport", "_deliver_batch"),
    Target("sim.simnet.send", "repro.sim.simnet:SimTransport", "send"),
    # sim.engine: event loop.
    Target("sim.engine.run", "repro.sim.engine:SimulationEngine", "run"),
    # telemetry.hotspot: load accounting and its readout.
    Target(
        "telemetry.hotspot.send_bulk",
        "repro.telemetry.hotspot:HotspotAccountant",
        "record_send_bulk",
        _second_len,
    ),
    Target(
        "telemetry.hotspot.receive_bulk",
        "repro.telemetry.hotspot:HotspotAccountant",
        "record_receive_bulk",
        _second_len,
    ),
    Target(
        "telemetry.hotspot.send",
        "repro.telemetry.hotspot:HotspotAccountant",
        "record_send",
    ),
    Target(
        "telemetry.hotspot.receive",
        "repro.telemetry.hotspot:HotspotAccountant",
        "record_receive",
    ),
    # The per-node ``load()`` readout loop behind every ProtocolRunResult.
    Target("telemetry.hotspot.readout", "repro.core.slab", "_per_node_traffic"),
)

#: Reported layer metric -> the span names whose *self* time it sums.
LAYER_GROUPS: dict[str, tuple[str, ...]] = {
    "chord.idgen.build_ring": ("chord.idgen.build_ring",),
    "chord.fastbuild.finger_matrix": ("chord.fastbuild.finger_matrix",),
    "chord.fastbuild.parent_kernel": (
        "chord.fastbuild.parent_kernel",
        "chord.fastbuild.tree_arrays",
        "chord.fastbuild.build_dat",
    ),
    "chord.fastbuild.stats": ("chord.fastbuild.stats", "chord.fastbuild.message_loads"),
    "chord.fastbuild.centralized": ("chord.fastbuild.centralized",),
    "chord.block.from_ring": ("chord.block.from_ring",),
    "chord.block.key_parents": ("chord.block.key_parents",),
    "chord.incremental.ring_apply": ("chord.incremental.ring_apply",),
    "chord.incremental.tree_patch": ("chord.incremental.tree_patch",),
    "core.slab.push_round_self": ("core.slab.push_round", "core.slab.deliver"),
    "core.service.push_self": ("core.service.push", "core.service.receive"),
    "core.service.parent": ("core.service.parent",),
    "core.limiting.finger_limit": ("core.limiting.for_gap", "core.limiting.finger_limit"),
    "sim.messages.float_repr": ("sim.messages.float_repr",),
    "sim.messages.encoded_size": ("sim.messages.encoded_size",),
    "sim.simnet.send_batch": ("sim.simnet.send_batch", "sim.simnet.deliver_batch"),
    "sim.simnet.send": ("sim.simnet.send",),
    "sim.engine.step": ("sim.engine.run",),
    "telemetry.hotspot.bulk": ("telemetry.hotspot.send_bulk", "telemetry.hotspot.receive_bulk"),
    "telemetry.hotspot.scalar": ("telemetry.hotspot.send", "telemetry.hotspot.receive"),
    "telemetry.hotspot.readout": ("telemetry.hotspot.readout",),
}


def _resolve_owner(owner: str) -> tuple[Any, Any]:
    """``(module, class-or-None)`` for a target owner string."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


class Tracer:
    """In-memory span recorder around the :data:`LAYER_TARGETS` entry points."""

    def __init__(self, targets: tuple[Target, ...] = LAYER_TARGETS) -> None:
        self.targets = targets
        self.names = [t.span for t in targets]
        n = len(targets)
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.items = [0] * n
        #: Wall time spent with the wrappers installed and tracing on.
        self.window_ns = 0
        #: Sum of top-level span durations inside the window.
        self.top_ns = 0
        #: (sid, parent sid or 0, name index, start ns, end ns, segment).
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped_spans = 0
        self._child_ns: list[int] = []
        self._sids: list[int] = []
        self._next_sid = 1
        self.segment = 0
        self._restore: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, index: int, fn: Callable[..., Any], items: Any) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            child_stack = tracer._child_ns
            sid_stack = tracer._sids
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            parent = sid_stack[-1] if sid_stack else 0
            child_stack.append(0)
            sid_stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = child_stack.pop()
                sid_stack.pop()
                tracer.busy_ns[index] += duration
                tracer.self_ns[index] += duration - child
                tracer.calls[index] += 1
                if items is not None:
                    tracer.items[index] += items(args)
                if child_stack:
                    child_stack[-1] += duration
                else:
                    tracer.top_ns += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, index, start, end, tracer.segment))
                else:
                    tracer.dropped_spans += 1

        return traced

    def _install(self) -> None:
        loaded = [module for module in list(sys.modules.values()) if module is not None]
        for index, target in enumerate(self.targets):
            module, cls = _resolve_owner(target.owner)
            if cls is None:
                original = getattr(module, target.attr)
                wrapped = self._wrap(index, original, target.items)
                for holder in loaded:
                    if getattr(holder, "__dict__", {}).get(target.attr) is original:
                        setattr(holder, target.attr, wrapped)
                        self._restore.append(
                            functools.partial(setattr, holder, target.attr, original)
                        )
                continue
            raw = cls.__dict__[target.attr]
            if isinstance(raw, classmethod):
                wrapped_attr: Any = classmethod(self._wrap(index, raw.__func__, target.items))
            else:
                wrapped_attr = self._wrap(index, raw, target.items)
            setattr(cls, target.attr, wrapped_attr)
            self._restore.append(functools.partial(setattr, cls, target.attr, raw))

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target, time the window, restore the originals."""
        self._install()
        start = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.window_ns += time.perf_counter_ns() - start
            self._uninstall()
            self.segment += 1

    # -- readout --------------------------------------------------------

    def _index(self, span: str) -> int:
        return self.names.index(span)

    def self_s(self, span: str) -> float:
        return self.self_ns[self._index(span)] / 1e9

    def count(self, span: str) -> int:
        return self.calls[self._index(span)]

    def item_count(self, span: str) -> int:
        return self.items[self._index(span)]

    @property
    def wall_s(self) -> float:
        return self.window_ns / 1e9

    @property
    def unattributed_s(self) -> float:
        return (self.window_ns - self.top_ns) / 1e9

    def group_self_s(self) -> dict[str, float]:
        """Self seconds per reported layer metric (see :data:`LAYER_GROUPS`)."""
        return {
            group: sum(self.self_s(span) for span in spans)
            for group, spans in LAYER_GROUPS.items()
        }

    def table(self) -> list[dict[str, Any]]:
        """Per-span totals, for the printed report and the written trace."""
        return [
            {
                "span": name,
                "calls": self.calls[i],
                "items": self.items[i],
                "busy_s": self.busy_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        ]

    def write_spans(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the kept spans as JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            header = dict(meta, spans_kept=len(self.spans), spans_dropped=self.dropped_spans)
            out.write(json.dumps(header) + "\n")
            for sid, parent, index, start, end, segment in self.spans:
                out.write(
                    f'{{"sid":{sid},"parent":{parent},"name":"{self.names[index]}",'
                    f'"start_ns":{start},"end_ns":{end},"trace":{segment}}}\n'
                )
