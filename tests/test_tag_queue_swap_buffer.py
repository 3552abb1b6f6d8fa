"""Unit tests for the tag queue and swap buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.interface import AccessOutcome
from repro.core.fuse_cache import FuseCache, FuseFeatures
from repro.core.swap_buffer import SwapBuffer
from repro.core.tag_queue import TagQueue
from tests.conftest import load, store


class TestTagQueueService:
    def test_read_latency(self):
        queue = TagQueue()
        assert queue.enqueue("read", 10) == 11

    def test_write_latency(self):
        queue = TagQueue()
        assert queue.enqueue("fill", 10) == 15
        assert queue.enqueue("migrate", 20) == 25

    def test_search_cycles_serialise(self):
        queue = TagQueue()
        assert queue.enqueue("read", 10, extra_search_cycles=2) == 13

    def test_reads_pipeline(self):
        queue = TagQueue()
        first = queue.enqueue("read", 0, extra_search_cycles=3)
        second = queue.enqueue("read", 0, extra_search_cycles=3)
        assert first == 4
        assert second == 5  # occupancy 1, not 4

    def test_writes_hold_the_bank(self):
        queue = TagQueue()
        queue.enqueue("fill", 0)       # bank busy 0..5
        assert queue.enqueue("read", 0) == 6

    def test_capacity_enforced(self):
        queue = TagQueue(capacity=2)
        queue.enqueue("fill", 0)
        queue.enqueue("fill", 0)
        assert queue.is_full(0)
        with pytest.raises(RuntimeError, match="full"):
            queue.enqueue("read", 0)

    def test_force_overrides_capacity(self):
        queue = TagQueue(capacity=1)
        queue.enqueue("fill", 0)
        completion = queue.enqueue("fill", 0, force=True)
        assert completion == 10

    def test_occupancy_drains_over_time(self):
        queue = TagQueue(capacity=4)
        queue.enqueue("fill", 0)       # completes at 5
        queue.enqueue("fill", 0)       # completes at 10
        assert queue.occupancy(0) == 2
        assert queue.occupancy(6) == 1
        assert queue.occupancy(10) == 0

    def test_unknown_op_rejected(self):
        queue = TagQueue()
        with pytest.raises(ValueError, match="unknown tag-queue op"):
            queue.enqueue("prefetch", 0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TagQueue(capacity=0)


class TestTagQueueFlush:
    def test_flush_drains_pending(self):
        queue = TagQueue()
        queue.enqueue("fill", 0)
        queue.enqueue("fill", 0)
        drain_done, drained = queue.flush(1)
        assert drained == 2
        assert drain_done == 10
        assert queue.occupancy(drain_done) == 0

    def test_flush_empty_queue_is_free(self):
        queue = TagQueue()
        drain_done, drained = queue.flush(100)
        assert drained == 0
        assert drain_done == 100

    def test_occupy_until_blocks_later_ops(self):
        queue = TagQueue()
        queue.occupy_until(50)
        assert queue.enqueue("read", 10) == 51


class TestSwapBuffer:
    def test_stage_and_hit(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, cycle=0, release_cycle=20)
        assert buffer.contains(0x10, 5)
        assert buffer.occupancy(5) == 1

    def test_release_after_completion(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, cycle=0, release_cycle=20)
        assert not buffer.contains(0x10, 20)
        assert buffer.occupancy(25) == 0

    def test_capacity(self):
        buffer = SwapBuffer(2)
        buffer.stage(0x10, 0, release_cycle=100)
        buffer.stage(0x20, 0, release_cycle=100)
        assert buffer.is_full(0)
        with pytest.raises(RuntimeError, match="full"):
            buffer.stage(0x30, 0, release_cycle=100)
        # entries release, capacity returns
        assert not buffer.is_full(100)

    def test_zero_entry_buffer_always_full(self):
        buffer = SwapBuffer(0)
        assert buffer.is_full(0)

    def test_write_hit_marks_dirty(self):
        """A store hitting a parked line dirties its STT tag line, which
        holds the line's metadata while it is in flight."""
        cache = FuseCache(
            sram_kb=2, sram_assoc=2, stt_kb=8, stt_assoc=2,
            features=FuseFeatures.base_fuse(),
        )
        set_span = cache.sram.num_sets
        for cycle, block in ((0, 0), (1, set_span)):
            cache.access(load(block << 7), cycle)
            cache.fill(block, 10 + cycle)
        # a third block of the set evicts block 0 (LRU) towards STT
        cache.access(load(2 * set_span << 7), 20)
        assert cache.swap.contains(0, 21)
        set_idx, way = cache.stt.lookup(0)
        assert not cache.stt.line(set_idx, way).dirty
        result = cache.access(store(0), 21)
        assert result.outcome is AccessOutcome.HIT
        assert cache.stats.swap_buffer_hits == 1
        assert cache.stt.line(set_idx, way).dirty

    def test_next_release_is_earliest(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, 0, release_cycle=60)
        buffer.stage(0x20, 0, release_cycle=50)
        assert buffer.next_release() == 50


@settings(max_examples=40)
@given(
    ops=st.lists(
        st.sampled_from(["read", "fill", "migrate"]), min_size=1, max_size=30
    )
)
def test_tag_queue_completions_monotonic(ops):
    """Property: the FIFO bank never completes operations out of order."""
    queue = TagQueue(capacity=64)
    completions = [queue.enqueue(op, 0) for op in ops]
    assert completions == sorted(completions)
