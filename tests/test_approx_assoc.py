"""Unit and property tests for the associativity-approximation engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_assoc import ApproximateAssociativeArray
from repro.core.factory import config_for_budget

COUNTER_MAX = ApproximateAssociativeArray.COUNTER_MAX


def make_small(exact=False):
    return ApproximateAssociativeArray(
        num_ways=64, num_cbfs=16, num_hashes=3, cbf_counters=16, exact=exact
    )


class TestStandaloneFIFO:
    """Membership basics of the mirror (the owning tag array picks ways)."""

    def test_install_then_found(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        result = arr.search(0x100)
        assert result.way == 0
        assert result.cycles >= 1

    def test_absent_key_not_found(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        assert arr.search(0x999).way is None

    def test_double_install_rejected(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        with pytest.raises(RuntimeError, match="already mirrored"):
            arr.note_install(0x100, 1)

    def test_remove(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        arr.note_evict(0x100)
        arr.note_evict(0x100)  # a block that is not mirrored is ignored
        assert arr.search(0x100).way is None
        assert arr._nonzero == 0


class TestMirrorMode:
    def test_note_install_and_search(self):
        arr = make_small()
        arr.note_install(0x100, way=37)
        result = arr.search(0x100)
        assert result.way == 37

    def test_note_install_way_conflict(self):
        arr = make_small()
        arr.note_install(0x100, 5)
        with pytest.raises(RuntimeError, match="already holds"):
            arr.note_install(0x200, 5)

    def test_note_install_out_of_range(self):
        arr = make_small()
        with pytest.raises(ValueError):
            arr.note_install(0x100, 64)

    def test_note_evict_clears(self):
        arr = make_small()
        arr.note_install(0x100, 3)
        arr.note_evict(0x100)
        assert arr.search(0x100).way is None
        assert 0x100 not in arr._block_way


class TestSearchPricing:
    def test_exact_mode_single_cycle(self):
        arr = make_small(exact=True)
        arr.note_install(0x100, 0)
        result = arr.search(0x100)
        assert result.cycles == 1
        assert result.false_positives == 0

    def test_hit_stops_at_matching_group(self):
        arr = make_small()
        arr.note_install(0x100, 0)  # way 0 -> group 0
        result = arr.search(0x100)
        # nothing is polled ahead of group 0
        assert result.iterations == 1
        assert result.false_positives == 0

    def test_false_positive_rate_bounded(self):
        arr = make_small()
        for i in range(32):
            arr.note_install(0x1000 + i * 7, 2 * i)
        for probe in range(40):
            result = arr.search(0x9000 + probe)
            # a miss polls every positive group, and no more
            assert result.way is None
            assert 0 <= result.false_positives <= arr.num_cbfs
            assert result.iterations == result.false_positives

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_ways=0)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_ways=8, num_cbfs=16)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_hashes=0)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(cbf_counters=0)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1, max_size=80,
        unique=True,
    )
)
def test_resident_blocks_always_found(blocks):
    """Property: the CBF-guided search has no false negatives -- every
    resident block is located at its true way, also after its way was
    recycled for a later block."""
    arr = ApproximateAssociativeArray(num_ways=128, num_cbfs=32)
    resident = {}
    way_block = {}
    for i, block in enumerate(blocks):
        way = (i * 37) % 64  # 80 blocks over 64 ways: some are recycled
        if way in way_block:
            arr.note_evict(way_block[way])
            del resident[way_block[way]]
        arr.note_install(block, way)
        resident[block] = way
        way_block[way] = block
    for block, way in resident.items():
        result = arr.search(block)
        assert result.way == way


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=500)),
        max_size=120,
    )
)
def test_mirror_matches_reference_set(ops):
    """Property: under arbitrary install/remove sequences the structure's
    membership matches a reference dict."""
    arr = ApproximateAssociativeArray(num_ways=64, num_cbfs=16)
    reference = {}
    next_way = iter(range(64))
    for is_install, block in ops:
        if is_install and block not in reference:
            try:
                way = next(next_way)
            except StopIteration:
                break
            arr.note_install(block, way)
            reference[block] = way
        elif not is_install and block in reference:
            arr.note_evict(block)
            del reference[block]
    assert arr._block_way == reference
    for block, way in reference.items():
        assert arr.search(block).way == way


# ----------------------------------------------------------------------
# the int-lane search against a plain loop over per-group counter rows

#: Table I (64 KB STT, 512 ways, 128 CBFs) and the Figure 19 Volta budget
#: (256 KB STT, 2048 ways, 512 CBFs)
_VOLTA = config_for_budget("Dy-FUSE", 128)
GEOMETRIES = [(512, 128), (_VOLTA.stt_kb * 1024 // 128, _VOLTA.num_cbfs)]


class _ReferenceCBFs:
    """One plain counter row per group, updated and tested slot by slot."""

    def __init__(self, arr):
        self.arr = arr
        self.rows = [[0] * arr.cbf_counters for _ in range(arr.num_cbfs)]
        self.way_of = {}

    def _slots(self, block, way):
        group = way // (self.arr.num_ways // self.arr.num_cbfs)
        return group, self.arr._key_pattern(block)[0][group]

    def install(self, block, way):
        group, slots = self._slots(block, way)
        for slot in slots:
            self.rows[group][slot] = min(COUNTER_MAX, self.rows[group][slot] + 1)
        self.way_of[block] = way

    def evict(self, block):
        group, slots = self._slots(block, self.way_of.pop(block))
        for slot in slots:
            if 0 < self.rows[group][slot] < COUNTER_MAX:
                self.rows[group][slot] -= 1

    def search(self, block):
        """``(way, iterations, false_positives)`` by polling every group."""
        slots = self.arr._key_pattern(block)[0]
        positive = [
            all(self.rows[group][slot] > 0 for slot in slots[group])
            for group in range(self.arr.num_cbfs)
        ]
        way = self.way_of.get(block)
        if way is None:
            return None, sum(positive), sum(positive)
        group = way // (self.arr.num_ways // self.arr.num_cbfs)
        assert positive[group], "a CBF reported a resident block absent"
        return way, sum(positive[:group]) + 1, sum(positive[:group])


def _drive(num_ways, num_cbfs, ops, probes):
    """Apply ``(way, block)`` ops to a mirror and its reference; every op
    evicts the way's block, or installs *block* there when the way is
    free.  Each op's block and every probe are searched on both."""
    arr = ApproximateAssociativeArray(num_ways=num_ways, num_cbfs=num_cbfs)
    ref = _ReferenceCBFs(arr)
    way_block = {}

    def check(block):
        got = arr.search(block)
        assert (got.way, got.iterations, got.false_positives) == \
            ref.search(block)

    for way, block in ops:
        if way in way_block:
            evicted = way_block.pop(way)
            arr.note_evict(evicted)
            ref.evict(evicted)
        elif block not in ref.way_of:
            arr.note_install(block, way)
            ref.install(block, way)
            way_block[way] = block
        check(block)
    for block in list(ref.way_of) + list(probes):
        check(block)
    assert arr._counters == ref.rows
    return ref


@pytest.mark.parametrize("num_ways,num_cbfs", GEOMETRIES)
def test_lane_search_matches_counter_loop_under_saturation(num_ways, num_cbfs):
    """Seeded churn over four groups, the first and last of the array
    among them, until 2-bit counters stick at their maximum."""
    rng = random.Random(num_ways)
    groups = (0, 1, num_cbfs // 2, num_cbfs - 1)
    ways = [group * 4 + i for group in groups for i in range(4)]
    ops = [(rng.choice(ways), rng.randrange(1 << 16)) for _ in range(3000)]
    ref = _drive(num_ways, num_cbfs, ops,
                 [rng.randrange(1 << 16) for _ in range(200)])
    stuck = sum(row.count(COUNTER_MAX) for row in ref.rows)
    assert stuck >= 8, "the stream never saturated a counter"


@settings(max_examples=25, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES), data=st.data())
def test_lane_search_matches_counter_loop(geometry, data):
    """Property: after any install/evict stream, ``search()`` gives the
    way, iterations and false positives of a plain per-group loop."""
    num_ways, num_cbfs = geometry
    groups = data.draw(st.lists(
        st.integers(0, num_cbfs - 1), min_size=1, max_size=4, unique=True))
    ways = [group * 4 + i for group in groups for i in range(4)]
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(ways), st.integers(0, 255)),
        min_size=1, max_size=300))
    probes = data.draw(st.lists(st.integers(0, 1 << 20), max_size=20))
    _drive(num_ways, num_cbfs, ops, probes)
