"""Unit tests for the static (converged) Chord ring."""

import numpy as np
import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.errors import (
    DuplicateNodeError,
    EmptyRingError,
    IdentifierError,
    UnknownNodeError,
)


class TestConstruction:
    def test_sorted_and_sized(self, space4):
        ring = StaticRing(space4, [5, 1, 9])
        assert ring.nodes == [1, 5, 9]
        assert len(ring) == 3

    def test_rejects_duplicates(self, space4):
        with pytest.raises(DuplicateNodeError):
            StaticRing(space4, [3, 3])

    def test_membership(self, space4):
        ring = StaticRing(space4, [2, 8])
        assert 2 in ring and 8 in ring and 5 not in ring

    def test_iteration_order(self, space4):
        ring = StaticRing(space4, [9, 0, 4])
        assert list(ring) == [0, 4, 9]

    def test_membership_false_for_absent_and_out_of_space(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert 41 not in ring
        assert -1 not in ring
        assert 999 not in ring

    def test_index_of(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert ring.index_of(200) == 2
        with pytest.raises(UnknownNodeError):
            ring.index_of(7)


class TestFromSortedIds:
    def test_keeps_sorted_ids(self):
        ring = StaticRing.from_sorted_ids(IdSpace(8), [10, 40, 200])
        assert ring.nodes == [10, 40, 200]
        assert ring.successor(201) == 10

    def test_empty_ok(self):
        ring = StaticRing.from_sorted_ids(IdSpace(8), [])
        assert len(ring) == 0
        with pytest.raises(EmptyRingError):
            ring.successor(0)

    def test_rejects_unsorted(self):
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(8), [5, 3, 9])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(8), [3, 3, 9])

    def test_rejects_out_of_space(self):
        with pytest.raises(IdentifierError):
            StaticRing.from_sorted_ids(IdSpace(8), [0, 256])
        with pytest.raises(IdentifierError):
            StaticRing.from_sorted_ids(IdSpace(8), [-1, 4])

    def test_rejects_unsorted_and_out_of_space_input(self):
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(16), [3, 2])
        with pytest.raises(IdentifierError):
            StaticRing.from_sorted_ids(IdSpace(8), [0, 300])

    @pytest.mark.parametrize("bits", [128, 160])
    def test_accepts_wide_spaces(self, bits):
        space = IdSpace(bits)
        ids = [1, 2**100, space.max_id]
        ring = StaticRing.from_sorted_ids(space, ids)
        assert ring.nodes == ids
        assert ring.successor(2**100 + 1) == space.max_id
        assert ring.gap_before(1) == 2


class TestIdArray:
    def test_sorted_int64(self, space4):
        ids = StaticRing(space4, [9, 1, 4]).id_array()
        assert ids.dtype == np.int64
        assert ids.tolist() == [1, 4, 9]

    def test_cached_until_membership_changes(self):
        ring = StaticRing(IdSpace(16), [1, 2, 3])
        first = ring.id_array()
        assert first is ring.id_array()
        ring.add(7)
        second = ring.id_array()
        assert second is not first
        assert second.tolist() == [1, 2, 3, 7]
        ring.remove(1)
        assert ring.id_array().tolist() == [2, 3, 7]

    def test_rejects_wide_spaces(self):
        ring = StaticRing(IdSpace(128), range(64))
        with pytest.raises(IdentifierError):
            ring.id_array()


class TestMembershipChanges:
    def test_add_and_remove(self, space4):
        ring = StaticRing(space4, [4])
        ring.add(10)
        assert ring.nodes == [4, 10]
        ring.remove(4)
        assert ring.nodes == [10]

    def test_add_duplicate_raises(self, space4):
        ring = StaticRing(space4, [4])
        with pytest.raises(DuplicateNodeError):
            ring.add(4)

    def test_remove_unknown_raises(self, space4):
        ring = StaticRing(space4, [4])
        with pytest.raises(UnknownNodeError):
            ring.remove(5)

    def test_add_rejects_out_of_space(self, space4):
        ring = StaticRing(space4, [4])
        with pytest.raises(IdentifierError):
            ring.add(16)

    def test_add_keeps_sorted(self):
        ring = StaticRing(IdSpace(8), [10, 200])
        ring.add(40)
        assert ring.nodes == [10, 40, 200]
        with pytest.raises(DuplicateNodeError):
            ring.add(40)

    def test_remove_keeps_sorted(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        ring.remove(40)
        assert ring.nodes == [10, 200]
        with pytest.raises(UnknownNodeError):
            ring.remove(40)


class TestConsistentHashing:
    def test_successor_basic(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.successor(3) == 8
        assert ring.successor(8) == 8  # exact hit
        assert ring.successor(15) == 2  # wraps

    def test_predecessor_basic(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.predecessor(3) == 2
        assert ring.predecessor(2) == 14  # strict precedence wraps
        assert ring.predecessor(0) == 14

    def test_successor_wraps(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert ring.successor(10) == 10  # inclusive
        assert ring.successor(11) == 40
        assert ring.successor(201) == 10  # wraps past the top
        assert ring.successor(250) == 10

    def test_predecessor_wraps(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert ring.predecessor(10) == 200  # strict, wraps below the bottom
        assert ring.predecessor(11) == 10
        assert ring.predecessor(0) == 200

    def test_empty_ring_raises(self, space4):
        ring = StaticRing(space4)
        with pytest.raises(EmptyRingError):
            ring.successor(0)

    def test_successor_of_node(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.successor_of_node(2) == 8
        assert ring.successor_of_node(14) == 2

    def test_predecessor_of_node(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.predecessor_of_node(2) == 14
        assert ring.predecessor_of_node(8) == 2

    def test_node_neighbors_wrap_at_ends(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert ring.successor_of_node(200) == 10
        assert ring.predecessor_of_node(10) == 200

    def test_interval_queries(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert ring.nodes_in_interval(10, 40) == [10, 40]
        assert ring.nodes_in_interval(11, 39) == []
        assert ring.nodes_in_interval(200, 40) == [200, 10, 40]  # wraps
        assert ring.nodes_in_interval(40, 40) == [40]  # single identifier
        assert ring.nodes_in_interval(41, 41) == []

    def test_neighbor_queries_require_membership(self, space4):
        ring = StaticRing(space4, [2, 8])
        with pytest.raises(UnknownNodeError):
            ring.successor_of_node(3)

    def test_every_key_has_an_owner(self, space4):
        ring = StaticRing(space4, [3, 7, 12])
        for key in range(space4.size):
            owner = ring.successor(key)
            assert owner in ring
            if owner == key:
                continue  # exact hit: (key, owner) is degenerate
            # No other node lies in (key, owner).
            for node in ring:
                assert not space4.in_open(node, key, owner) or node == owner


class TestGaps:
    def test_gap_before(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.gap_before(8) == 6
        assert ring.gap_before(2) == 4  # wraps from 14

    def test_gaps_sum_to_space(self, space4):
        ring = StaticRing(space4, [1, 5, 6, 13])
        assert sum(ring.gaps().values()) == space4.size

    def test_gaps_in_node_order(self):
        ring = StaticRing(IdSpace(8), [10, 40, 200])
        assert list(ring.gaps().items()) == [(10, 66), (40, 30), (200, 160)]
        assert ring.gap_ratio() == 160 / 30

    def test_single_node_owns_everything(self, space4):
        ring = StaticRing(space4, [9])
        assert ring.gap_before(9) == space4.size
        assert ring.gaps() == {9: space4.size}
        assert ring.gap_ratio() == 1.0
        with pytest.raises(UnknownNodeError):
            ring.gap_before(3)

    def test_empty_ring_gaps(self, space4):
        ring = StaticRing(space4)
        assert ring.gaps() == {}
        with pytest.raises(EmptyRingError):
            ring.gap_ratio()

    def test_mean_gap(self, space4):
        ring = StaticRing(space4, [0, 8])
        assert ring.mean_gap() == 8.0

    def test_gap_ratio_uniform_is_one(self, uniform_ring):
        assert uniform_ring.gap_ratio() == 1.0


class TestFingerTables:
    def test_matches_paper_example(self, full_ring4):
        assert full_ring4.finger_entries(8) == [9, 10, 12, 0]
        assert full_ring4.finger_entries(1) == [2, 3, 5, 9]

    def test_finger_table_object(self, full_ring4):
        table = full_ring4.finger_table(0)
        assert table.owner == 0
        assert table.successor == 1

    def test_unknown_node_raises(self, space4):
        sparse = StaticRing(space4, [1, 2])
        with pytest.raises(UnknownNodeError):
            sparse.finger_entries(5)

    def test_all_finger_tables_complete(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        assert set(tables) == set(range(16))
        for owner, table in tables.items():
            assert table.owner == owner

    def test_sparse_ring_fingers(self, space4):
        ring = StaticRing(space4, [0, 3, 9])
        # successor(0+1)=3, successor(0+2)=3, successor(0+4)=9, successor(0+8)=9
        assert ring.finger_entries(0) == [3, 3, 9, 9]
