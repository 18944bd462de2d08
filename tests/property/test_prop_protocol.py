"""Property-based protocol tests.

Two families share the file: stabilization convergence (the overlay the
DAT layer reads always converges to the ideal ring regardless of
membership order) and the slab equivalence contract (the bulk-simulation
path reproduces the per-node service oracle bit for bit). Bounded (small
rings, few examples) because each case runs a discrete-event simulation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.core.slab import (
    SLAB_AGGREGATES,
    run_protocol_oracle,
    run_protocol_slab,
)
from repro.sim.latency import ConstantLatency
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport


@st.composite
def join_sequences(draw):
    space = IdSpace(10)
    count = draw(st.integers(min_value=2, max_value=8))
    idents = draw(
        st.lists(
            st.integers(min_value=0, max_value=space.max_id),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return space, idents


def build_network(space: IdSpace) -> ChordNetwork:
    transport = SimTransport(latency=ConstantLatency(0.005))
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    return ChordNetwork(space, transport, config)


class TestConvergenceProperties:
    @settings(max_examples=15, deadline=None)
    @given(join_sequences())
    def test_any_join_order_converges(self, args):
        space, idents = args
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        assert network.is_converged()

    @settings(max_examples=10, deadline=None)
    @given(join_sequences(), st.data())
    def test_converges_after_one_departure(self, args, data):
        space, idents = args
        if len(idents) < 3:
            return
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        victim = data.draw(st.sampled_from(idents))
        network.remove_node(victim, graceful=True)
        network.settle_until_converged()
        assert victim not in network.nodes
        assert network.is_converged()

    @settings(max_examples=10, deadline=None)
    @given(join_sequences())
    def test_fingers_reach_ideal(self, args):
        space, idents = args
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        for node in network.nodes.values():
            node.fix_all_fingers()
        network.settle(10.0)
        assert network.finger_convergence_fraction() == 1.0


# --------------------------------------------------------------------- #
# Slab path == per-node service oracle (the bulk-simulation contract)
# --------------------------------------------------------------------- #


#: Readings whose JSON numerals are easy to mis-size: signed zero (``-0.0``
#: equals ``0.0`` but is one byte longer), exponent forms, the longest
#: 17-digit mantissas and subnormals.
SPECIAL_READINGS = (
    -0.0,
    0.0,
    1e16,
    9999999999999998.0,
    1.2345678901234567e300,
    5e-324,
    2.2250738585072e-310,
)

#: Infinities are sized as ``Infinity``/``-Infinity``; drawn for min/max
#: only (a sum of opposite infinities is NaN, which equals nothing).
INFINITE_READINGS = (math.inf, -math.inf)


@st.composite
def slab_scenarios(draw, edge_readings=False):
    bits = draw(st.sampled_from([12, 16, 32]))
    space = IdSpace(bits)
    n = draw(st.integers(min_value=2, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    strategy = draw(st.sampled_from(["random", "probing"]))
    ring = make_assigner(strategy).build_ring(space, n, rng=seed)
    key = draw(st.integers(min_value=0, max_value=space.max_id))
    scheme = draw(st.sampled_from(["basic", "balanced"]))
    aggregate = draw(st.sampled_from(SLAB_AGGREGATES))
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100.0, 100.0, size=n)
    if edge_readings:
        # Replace a drawn share of the readings with edge-case numerals.
        pool = SPECIAL_READINGS + (
            INFINITE_READINGS if aggregate in ("min", "max") else ()
        )
        special = rng.random(n) < draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        values[special] = rng.choice(pool, size=int(special.sum()))
    return ring, key, scheme, aggregate, values


def _run_both(ring, key, scheme, aggregate, values, rounds=6, loss=0.0):
    """Run slab and oracle with identical seeds and message-id streams."""
    reset_msg_ids()
    slab = run_protocol_slab(
        ring, key, rounds, aggregate=aggregate, scheme=scheme,
        values=values, transport=SimTransport(loss_rate=loss, rng=1234),
    )
    reset_msg_ids()
    oracle = run_protocol_oracle(
        ring, key, rounds, aggregate=aggregate, scheme=scheme,
        values=values, transport=SimTransport(loss_rate=loss, rng=1234),
    )
    return slab, oracle


def _assert_identical(slab, oracle):
    """Every protocol-observable quantity, bit for bit."""
    assert slab.root == oracle.root
    assert slab.estimate == oracle.estimate  # exact: same IEEE fold order
    assert slab.pushes_total == oracle.pushes_total
    np.testing.assert_array_equal(slab.ids, oracle.ids)
    np.testing.assert_array_equal(slab.sent, oracle.sent)
    np.testing.assert_array_equal(slab.received, oracle.received)
    np.testing.assert_array_equal(slab.bytes_sent, oracle.bytes_sent)
    np.testing.assert_array_equal(slab.bytes_received, oracle.bytes_received)


class TestSlabOracleEquivalence:
    """run_protocol_slab reproduces run_protocol_oracle exactly.

    Loss-free: all five aggregates, both schemes, random values mixed
    with edge-case readings (float merge order matters and must match).
    Lossy: order-insensitive aggregates only (count/min/max) — the
    oracle's child-dict insertion order depends on which pushes survive,
    which no fixed-order kernel can reproduce for float sums. Lossy runs
    draw no signed zeros: ``min(0.0, -0.0)`` depends on operand order.
    """

    @settings(max_examples=20, deadline=None)
    @given(slab_scenarios(edge_readings=True))
    def test_loss_free_bit_identical(self, scenario):
        # Run past the tree height: once the tree converges every push
        # repeats last round's state, so the slab path's wire-size memo
        # is reused for several rounds, not only filled.
        ring, key, scheme, aggregate, values = scenario
        height = fast_tree_arrays(ring, key, scheme=scheme).stats().height
        slab, oracle = _run_both(
            ring, key, scheme, aggregate, values, rounds=height + 4
        )
        _assert_identical(slab, oracle)

    @settings(max_examples=10, deadline=None)
    @given(
        slab_scenarios(),
        st.sampled_from(["count", "min", "max"]),
        st.floats(min_value=0.05, max_value=0.4),
    )
    def test_lossy_order_insensitive_bit_identical(
        self, scenario, aggregate, loss
    ):
        ring, key, scheme, _, values = scenario
        slab, oracle = _run_both(
            ring, key, scheme, aggregate, values, loss=loss
        )
        _assert_identical(slab, oracle)

    def test_converged_sum_at_1024_both_schemes(self):
        # Fixed mid-size anchor: full convergence and exact equality.
        ring = make_assigner("probing").build_ring(IdSpace(32), 1024, rng=2007)
        for scheme in ("basic", "balanced"):
            slab, oracle = _run_both(
                ring, 0xA5A5A5, scheme, "sum",
                np.ones(1024, dtype=np.float64), rounds=24,
            )
            _assert_identical(slab, oracle)
            assert slab.estimate == 1024.0
