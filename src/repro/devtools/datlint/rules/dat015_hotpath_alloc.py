"""DAT015 — batched hot path: no per-message allocation inside loops.

The slab protocol path exists so that 10^5-node simulations do not build a
Python dict (or a :class:`~repro.sim.messages.Message`) per push: one
:class:`~repro.sim.messages.MessageBatch` carries a whole round as column
arrays, and every per-element quantity (wire sizes, payload state, hotspot
accounting) is computed with vectorized array ops. A single ``{...}`` or
``Message(...)`` inside a loop over batch elements silently reintroduces
the O(messages) allocation churn the refactor removed — the code still
passes every exactness test, just 50x slower at 10^5 nodes.

This rule guards the functions that *are* the batched hot path
(``_HOT_FUNCTIONS`` below): inside their ``for``/``while`` loops and
comprehensions, allocating a dict (literal, comprehension, or ``dict()``
call) or constructing a scalar ``Message`` is flagged. So is a ``for``
loop or comprehension that iterates over a ``.tolist()`` call (directly
or through ``zip``/``enumerate``): that unboxes a batch column into one
Python object per element and walks it at interpreter speed, which is the
shape of the per-node dict-update loops the dense load accountant
replaced. Allocation outside a loop is per-*batch* and fine; deferred
bodies (``lambda``, nested ``def``) are skipped because they only run on
the explicit slow path — :meth:`MessageBatch.message` materialization —
not per element of the batched round. Scalar modules (``Transport.send`` and friends) are
legitimately per-message and are not listed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.datlint.astutils import call_dotted
from repro.devtools.datlint.context import FileContext
from repro.devtools.datlint.diagnostics import Diagnostic
from repro.devtools.datlint.registry import Rule, register

#: ``module -> function/method names`` forming the batched per-round hot
#: path. A loop in any of these runs O(batch) times per simulated round.
_HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro.sim.simnet": frozenset({"send_batch", "_deliver_batch"}),
    "repro.sim.messages": frozenset({"msg_ids", "nbytes", "__post_init__"}),
    "repro.core.slab": frozenset(
        {
            "_merged_columns",
            "_state_lengths",
            "_float_lengths",
            "push_round",
            "_on_deliver",
            "_per_node_traffic",
        }
    ),
    "repro.telemetry.hotspot": frozenset(
        {"record_send_bulk", "record_receive_bulk", "_add_bulk_locked", "load_arrays"}
    ),
}

#: Call names whose invocation allocates a per-message object.
_ALLOC_CALLS = {"dict", "Message", "encode_message"}

_LOOP_NODES = (
    ast.For,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

_DEFERRED_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _tolist_call(node: ast.AST) -> ast.Call | None:
    """The first ``<expr>.tolist()`` call inside an iterable expression."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "tolist"
        ):
            return sub
    return None


class _LoopAllocFinder(ast.NodeVisitor):
    """Collect dict/Message allocations at loop depth >= 1, and loops that
    iterate over a ``.tolist()`` call."""

    def __init__(self) -> None:
        self.depth = 0
        self.hits: list[tuple[ast.AST, str]] = []

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, _DEFERRED_NODES):
            return  # deferred body: runs on the slow path, not in the loop
        if isinstance(node, (ast.For, ast.comprehension)):
            unboxed = _tolist_call(node.iter)
            if unboxed is not None:
                self.hits.append((unboxed, "loop over `.tolist()`"))
        # The allocation check runs at the *enclosing* depth: a dict
        # comprehension outside any loop allocates once per batch (fine);
        # the same comprehension inside a loop allocates per element.
        if self.depth > 0:
            if isinstance(node, ast.Dict):
                self.hits.append((node, "dict literal inside a loop"))
            elif isinstance(node, ast.DictComp):
                self.hits.append((node, "dict comprehension inside a loop"))
            elif isinstance(node, ast.Call):
                dotted = call_dotted(node)
                name = dotted.rsplit(".", 1)[-1] if dotted else ""
                if name in _ALLOC_CALLS:
                    self.hits.append((node, f"`{name}(...)` call inside a loop"))
        entered = isinstance(node, _LOOP_NODES)
        if entered:
            self.depth += 1
        self.generic_visit(node)
        if entered:
            self.depth -= 1


@register
class HotPathAllocRule(Rule):
    code = "DAT015"
    name = "hotpath-alloc"
    rationale = (
        "The batched protocol path (MessageBatch + send_batch + the slab "
        "runner) must stay allocation-free per message: a dict or Message "
        "built inside one of its loops reintroduces the O(messages) churn "
        "the slab refactor removed, degrading 10^5-node runs by orders of "
        "magnitude without failing any exactness test."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        hot = _HOT_FUNCTIONS.get(ctx.module)
        if not hot:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in hot:
                continue
            finder = _LoopAllocFinder()
            for stmt in node.body:
                finder.visit(stmt)
            for alloc_node, what in finder.hits:
                yield self.diagnostic(
                    ctx,
                    alloc_node,
                    f"{what} in batched hot-path function `{node.name}`; "
                    "hoist it out of the loop or express it as a vectorized "
                    "column over the whole batch",
                )
