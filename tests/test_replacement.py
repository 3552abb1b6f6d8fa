"""Unit tests for the LRU and FIFO replacement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import FIFOPolicy, LRUPolicy


class TestLRU:
    def test_evicts_least_recently_used(self):
        lru = LRUPolicy(1, 4)
        for way in range(4):
            lru.on_fill(0, way)
        lru.on_access(0, 0)  # way 0 becomes most recent
        assert lru.select_victim(0, [0, 1, 2, 3]) == 1

    def test_access_refreshes_recency(self):
        lru = LRUPolicy(1, 2)
        lru.on_fill(0, 0)
        lru.on_fill(0, 1)
        lru.on_access(0, 0)
        assert lru.select_victim(0, [0, 1]) == 1

    def test_respects_candidate_restriction(self):
        lru = LRUPolicy(1, 4)
        for way in range(4):
            lru.on_fill(0, way)
        # way 0 is oldest but excluded (e.g. reserved)
        assert lru.select_victim(0, [2, 3]) == 2

    def test_sets_are_independent(self):
        lru = LRUPolicy(2, 2)
        lru.on_fill(0, 0)
        lru.on_fill(0, 1)
        lru.on_fill(1, 1)
        lru.on_fill(1, 0)
        assert lru.select_victim(0, [0, 1]) == 0
        assert lru.select_victim(1, [0, 1]) == 1


class TestFIFO:
    def test_evicts_oldest_fill(self):
        fifo = FIFOPolicy(1, 3)
        fifo.on_fill(0, 2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        assert fifo.select_victim(0, [0, 1, 2]) == 2

    def test_hits_do_not_refresh(self):
        fifo = FIFOPolicy(1, 2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        for _ in range(10):
            fifo.on_access(0, 0)
        assert fifo.select_victim(0, [0, 1]) == 0

    def test_refill_moves_to_back(self):
        fifo = FIFOPolicy(1, 2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        fifo.on_fill(0, 0)  # way 0 re-filled: now youngest
        assert fifo.select_victim(0, [0, 1]) == 1


class TestFactory:
    """Policy construction."""

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            LRUPolicy(0, 4)


@given(
    accesses=st.lists(st.integers(min_value=0, max_value=3), max_size=60),
)
def test_lru_victim_is_never_most_recent(accesses):
    """Property: after any access pattern, the LRU victim is never the
    most recently touched way."""
    lru = LRUPolicy(1, 4)
    for way in range(4):
        lru.on_fill(0, way)
    last = 3
    for way in accesses:
        lru.on_access(0, way)
        last = way
    victim = lru.select_victim(0, [0, 1, 2, 3])
    assert victim != last


@given(
    fills=st.lists(st.integers(min_value=0, max_value=7), min_size=8,
                   max_size=40),
)
def test_fifo_victim_has_oldest_fill(fills):
    """Property: FIFO always selects the way with the smallest fill tick."""
    fifo = FIFOPolicy(1, 8)
    ticks = {}
    for tick, way in enumerate(fills):
        fifo.on_fill(0, way)
        ticks[way] = tick
    if len(ticks) == 8:
        victim = fifo.select_victim(0, list(range(8)))
        assert ticks[victim] == min(ticks.values())
