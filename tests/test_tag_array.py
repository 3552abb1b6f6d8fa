"""Unit tests for the tag array (lookup, reservation, eviction, index)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import (
    _HEAP_ASSOC_THRESHOLD,
    FIFOPolicy,
    LRUPolicy,
)
from repro.cache.tag_array import TagArray, sets_and_ways


class TestLookup:
    def test_empty_array_misses(self):
        tags = TagArray(4, 2)
        set_idx, way = tags.lookup(0x123)
        assert way is None
        assert set_idx == 0x123 & 3

    def test_install_then_hit(self):
        tags = TagArray(4, 2)
        tags.install(0x123)
        _, way = tags.lookup(0x123)
        assert way is not None

    def test_reserved_lines_do_not_hit(self):
        tags = TagArray(4, 2)
        tags.reserve(0x123)
        _, way = tags.lookup(0x123)
        assert way is None
        assert tags.probe_reserved(0x123)

    def test_fill_completes_reservation(self):
        tags = TagArray(4, 2)
        tags.reserve(0x123)
        tags.fill(0x123)
        _, way = tags.lookup(0x123)
        assert way is not None
        assert not tags.probe_reserved(0x123)

    def test_fill_without_reservation_raises(self):
        tags = TagArray(4, 2)
        with pytest.raises(RuntimeError, match="without reservation"):
            tags.fill(0x123)


class TestEviction:
    def test_eviction_returns_victim_snapshot(self):
        tags = TagArray(1, 2)
        tags.install(0x10, dirty=True, fill_pc=0x40)
        tags.install(0x20)
        _, _, evicted = tags.install(0x30)
        assert evicted is not None
        assert evicted.block_addr == 0x10  # LRU victim
        assert evicted.dirty
        assert evicted.fill_pc == 0x40

    def test_touch_updates_lru_and_counters(self):
        tags = TagArray(1, 2)
        tags.install(0x10)
        tags.install(0x20)
        set_idx, way = tags.lookup(0x10)
        tags.touch(set_idx, way, is_write=False)
        _, _, evicted = tags.install(0x30)
        assert evicted.block_addr == 0x20
        line = tags.line(*tags.lookup(0x10))
        assert line.reads_observed == 1

    def test_write_touch_sets_dirty(self):
        tags = TagArray(1, 2)
        tags.install(0x10)
        set_idx, way = tags.lookup(0x10)
        tags.touch(set_idx, way, is_write=True)
        assert tags.line(set_idx, way).dirty
        assert tags.line(set_idx, way).writes_observed == 1

    def test_all_reserved_set_cannot_reserve(self):
        tags = TagArray(1, 2)
        tags.reserve(0x10)
        tags.reserve(0x20)
        assert not tags.can_reserve(0x30)
        with pytest.raises(RuntimeError, match="all ways reserved"):
            tags.reserve(0x30)

    def test_invalidate_removes_block(self):
        tags = TagArray(4, 2)
        tags.install(0x123, dirty=True)
        snapshot = tags.invalidate(0x123)
        assert snapshot.dirty
        _, way = tags.lookup(0x123)
        assert way is None

    def test_invalidate_missing_returns_none(self):
        tags = TagArray(4, 2)
        assert tags.invalidate(0x999) is None


class TestPeekVictim:
    def test_peek_matches_reserve(self):
        tags = TagArray(1, 4)
        for block in (0x10, 0x20, 0x30, 0x40):
            tags.install(block)
        can, victim = tags.peek_victim(0x50)
        assert can and victim is not None
        victim_addr = victim.block_addr  # reserve() recycles the line
        _, _, evicted = tags.reserve(0x50)
        assert evicted.block_addr == victim_addr

    def test_peek_with_free_way(self):
        tags = TagArray(1, 4)
        tags.install(0x10)
        can, victim = tags.peek_victim(0x50)
        assert can and victim is None

    def test_peek_all_reserved(self):
        tags = TagArray(1, 1)
        tags.reserve(0x10)
        can, victim = tags.peek_victim(0x20)
        assert not can


class TestGeometry:
    def test_fully_associative_single_set(self):
        tags = TagArray(1, 512, FIFOPolicy)
        for i in range(512):
            tags.install(0x1000 + i)
        assert tags.occupancy() == 512
        _, _, evicted = tags.install(0x9999)
        assert evicted.block_addr == 0x1000  # FIFO order

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            TagArray(3, 2)

    def test_set_mapping_uses_low_bits(self):
        tags = TagArray(8, 1)
        assert tags.set_index(0x10) == 0
        assert tags.set_index(0x11) == 1
        assert tags.set_index(0x19) == 1


@settings(max_examples=50)
@given(blocks=st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                       max_size=120))
def test_index_consistency(blocks):
    """Property: the O(1) lookup index always agrees with a linear scan
    of the valid lines."""
    tags = TagArray(8, 2)
    for block in blocks:
        _, way = tags.lookup(block)
        if way is None and tags.can_reserve(block):
            tags.install(block)
    for ways in tags._sets:
        for line in ways:
            if line.valid:
                set_idx, way = tags.lookup(line.block_addr)
                assert tags.line(set_idx, way) is line
    # occupancy matches the index size
    assert tags.occupancy() == len(tags._index)


@settings(max_examples=30)
@given(blocks=st.lists(st.integers(min_value=0, max_value=1023),
                       min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(blocks):
    tags = TagArray(4, 4)
    for block in blocks:
        _, way = tags.lookup(block)
        if way is None:
            tags.install(block)
    assert tags.occupancy() <= tags.num_lines


#: 4 ways take the candidate-scan path, 32 the oldest-stamp heap
PEEK_ASSOCS = (4, 32)
assert PEEK_ASSOCS[0] < _HEAP_ASSOC_THRESHOLD <= PEEK_ASSOCS[1]

#: reserve-heavy, over three times the ways' worth of blocks at 32 ways,
#: so that full sets with fills pending are common on both paths
PEEK_OP = st.tuples(
    st.sampled_from(["reserve"] * 3 + ["fill"] * 2 + ["touch", "invalidate"]),
    st.integers(min_value=0, max_value=95),
)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from([LRUPolicy, FIFOPolicy]),
    assoc=st.sampled_from(PEEK_ASSOCS),
    ops=st.lists(PEEK_OP, max_size=300),
)
def test_peek_victim_matches_reserve(policy, assoc, ops):
    """Property: :meth:`TagArray.peek_victim` previews exactly the victim
    the next :meth:`TagArray.reserve` picks, with fills pending, lines
    touched and ways punched free in between -- the lockstep FUSE's
    SRAM eviction pre-check relies on."""
    tags = TagArray(1, assoc, policy)
    pending = []
    for op, pick in ops:
        block = 0x1000 + pick
        _, way = tags.lookup(block)
        if op == "reserve":
            if way is not None or tags.probe_reserved(block):
                continue
            can, victim = tags.peek_victim(block)
            assert can == tags.can_reserve(block)
            if not can:
                continue
            expected = None if victim is None else victim.block_addr
            _, _, evicted = tags.reserve(block)
            assert (None if evicted is None else evicted.block_addr) == \
                expected
            pending.append(block)
        elif op == "fill" and pending:
            tags.fill(pending.pop(pick % len(pending)))
        elif op == "touch" and way is not None:
            tags.touch(0, way, is_write=pick % 2 == 1)
        elif op == "invalidate" and way is not None:
            tags.invalidate(block)


class TestSetsAndWays:
    def test_set_associative(self):
        assert sets_and_ways(32, 4) == (64, 4)

    def test_fully_associative(self):
        assert sets_and_ways(64, None) == (1, 512)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="3KB is not divisible into 7"):
            sets_and_ways(3, 7)
