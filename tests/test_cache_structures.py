"""Cache arrays, replacement (with pinned-victim denial), MSHRs, write
buffer — the structures underpinning §5.1.3 and §5.1.2."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.params import CacheParams, SystemConfig
from repro.mem.cache import CacheArray, LineState, MSHRFile
from repro.mem.writebuffer import WriteBuffer
from repro.sim.system import System
from repro.workloads import spec17_workload

SHARED = LineState.SHARED


def _array(sets, ways):
    return CacheArray(CacheParams(size_bytes=sets * ways * 64, ways=ways,
                                  latency=1))


class TestLRUSet:
    """LRU order within one set — a one-set ``CacheArray`` — including
    Pinned Loads' eviction denial (paper §5.1.3)."""

    def test_insert_and_lookup(self):
        s = _array(sets=1, ways=2)
        s.fill(1, SHARED)
        assert s.lookup(1) is SHARED
        assert list(s.resident_lines(0)) == [1]

    def test_insert_beyond_ways_rejected(self):
        s = _array(sets=1, ways=1)
        s.fill(1, SHARED)
        with pytest.raises(ValueError):
            s.fill(2, SHARED)

    def test_victim_is_least_recently_used(self):
        s = _array(sets=1, ways=3)
        for line in (1, 2, 3):
            s.fill(line, SHARED)
        s.lookup(1)                       # a hit makes 1 the MRU line
        assert s.pick_victim(4) == 2

    def test_pinned_victims_are_skipped(self):
        s = _array(sets=1, ways=3)
        for line in (1, 2, 3):
            s.fill(line, SHARED)
        assert s.pick_victim(4, evictable=lambda l: l != 1) == 2

    def test_all_pinned_returns_none(self):
        s = _array(sets=1, ways=2)
        s.fill(1, SHARED)
        s.fill(2, SHARED)
        assert s.pick_victim(3, evictable=lambda l: False) is None

    def test_skipped_pinned_line_promoted_to_mru(self):
        # paper §5.1.3: denied evictions refresh the victim's recency
        s = _array(sets=1, ways=3)
        for line in (1, 2, 3):
            s.fill(line, SHARED)
        s.pick_victim(4, evictable=lambda l: l != 1)   # skips pinned 1
        assert s.pick_victim(4) == 2   # 1 is now more recent than 2, 3
        assert list(s.resident_lines(0)) == [2, 3, 1]

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=60))
    def test_matches_reference_lru_model(self, accesses):
        s = _array(sets=1, ways=4)
        model = []
        for line in accesses:
            if s.lookup(line) is not None:
                model.remove(line)
                model.append(line)
            else:
                if s.needs_victim(line):
                    victim = s.pick_victim(line)
                    assert victim == model.pop(0)
                    s.invalidate(victim)
                s.fill(line, SHARED)
                model.append(line)
        assert list(s.resident_lines(0)) == model


class TestCacheArray:
    def _small(self):
        # 4 sets x 2 ways
        return CacheArray(CacheParams(size_bytes=4 * 2 * 64, ways=2,
                                      latency=1))

    def test_miss_then_fill_then_hit(self):
        cache = self._small()
        assert cache.lookup(5) is None
        cache.fill(5, LineState.SHARED)
        assert cache.lookup(5) is LineState.SHARED

    def test_set_state_requires_residency(self):
        cache = self._small()
        with pytest.raises(KeyError):
            cache.set_state(5, LineState.MODIFIED)

    def test_invalidate(self):
        cache = self._small()
        cache.fill(5, LineState.EXCLUSIVE)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        assert cache.lookup(5) is None

    def test_needs_victim_when_set_full(self):
        cache = self._small()
        cache.fill(0, LineState.SHARED)    # set 0
        cache.fill(4, LineState.SHARED)    # set 0 (4 % 4 == 0)
        assert cache.needs_victim(8)       # set 0
        assert not cache.needs_victim(1)   # set 1 empty

    def test_victim_respects_pin_filter(self):
        cache = self._small()
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        assert cache.pick_victim(8, evictable=lambda l: l != 0) == 4

    def test_lines_map_to_expected_sets(self):
        cache = self._small()
        assert cache.set_of(0) == cache.set_of(4) == 0
        assert cache.set_of(3) == 3

    def test_occupancy(self):
        cache = self._small()
        cache.fill(0, LineState.SHARED)
        cache.fill(1, LineState.SHARED)
        assert cache.occupancy() == 2

    def test_writable_states(self):
        assert LineState.MODIFIED.writable
        assert LineState.EXCLUSIVE.writable
        assert not LineState.SHARED.writable

    def test_sample_is_uniform_over_adjacent_sets(self):
        # lines only in sets 5 and 6 of a 2048-set slice: a draw that
        # started at a random set and took the next non-empty one picked
        # set 6 only when it started there
        cache = _array(sets=2048, ways=1)
        cache.fill(5, SHARED)
        cache.fill(6, SHARED)
        draws = [cache.sample_resident_line(random.Random(seed))
                 for seed in range(1000)]
        assert 400 <= draws.count(6) <= 600
        assert draws.count(5) + draws.count(6) == 1000
        rng = random.Random(0)
        assert cache.sample_resident_line(rng, lambda l: l != 5) == 6
        assert cache.sample_resident_line(rng, lambda l: False) is None


class TestSparseSets:
    """Only the sets a run fills exist; a never-filled set reads as an
    empty one."""

    def test_fresh_system_holds_no_sets(self):
        workload = spec17_workload("mcf_r", instructions=300)
        system = System(SystemConfig(), workload)
        arrays = system.mem.l1s + system.mem.slices
        assert all(not array._sets for array in arrays)
        system.mem.warm(workload)
        lines = {uop.addr >> 6 for trace in workload.traces
                 for uop in trace if uop.addr is not None}
        assert sum(array.occupancy() for array in system.mem.slices) > 0
        for array in arrays:
            assert set(array._sets) <= {array.set_of(line)
                                        for line in lines}

    def test_never_filled_set_reads_as_empty(self):
        never = _array(sets=4, ways=2)
        emptied = _array(sets=4, ways=2)
        emptied.fill(1, SHARED)
        emptied.invalidate(1)
        for cache in (never, emptied):
            assert cache.lookup(1) is None
            assert cache.lookup(5, touch=False) is None
            assert not cache.invalidate(1)
            assert not cache.needs_victim(1)
            assert cache.pick_victim(1) is None
            assert cache.pick_victim(1, evictable=lambda l: True) is None
            assert list(cache.resident_lines(1)) == []
            assert cache.occupancy() == 0
            assert cache.sample_resident_line(random.Random(0)) is None
            with pytest.raises(KeyError):
                cache.set_state(1, LineState.MODIFIED)
        assert never._sets == {}

    def test_pickle_round_trip_keeps_lru_order(self):
        cache = _array(sets=8, ways=4)
        for line in (5, 13, 3, 11, 19):      # sets 5, 5, 3, 3, 3
            cache.fill(line, SHARED)
        cache.lookup(3)                      # set 3: 11, 19, 3
        cache.fill(6, LineState.EXCLUSIVE)
        cache.invalidate(6)                  # set 6 filled, now empty
        state = cache.__getstate__()
        assert [index for index, _ in state["occupied"]] == [3, 5]
        restored = pickle.loads(pickle.dumps(cache))
        assert sorted(restored._sets) == [3, 5]
        assert list(restored.resident_lines(3)) == [11, 19, 3]
        assert list(restored.resident_lines(5)) == [5, 13]
        assert restored.occupancy() == 5
        assert restored.pick_victim(27) == 11


class TestMSHRFile:
    def test_allocate_and_merge(self):
        mshrs = MSHRFile()
        entry = mshrs.allocate(7, cycle=10)
        entry.callbacks.append(lambda c: None)
        assert mshrs.outstanding(7) is entry
        assert len(mshrs) == 1

    def test_double_allocate_rejected(self):
        mshrs = MSHRFile()
        mshrs.allocate(7, cycle=10)
        with pytest.raises(ValueError):
            mshrs.allocate(7, cycle=11)

    def test_retire_removes(self):
        mshrs = MSHRFile()
        mshrs.allocate(7, cycle=10)
        mshrs.retire(7)
        assert mshrs.outstanding(7) is None


class TestWriteBuffer:
    def test_fifo_order(self):
        wb = WriteBuffer(capacity=4)
        wb.push(1)
        wb.push(2)
        assert wb.head().line == 1
        wb.pop()
        assert wb.head().line == 2

    def test_capacity_enforced(self):
        wb = WriteBuffer(capacity=1)
        wb.push(1)
        assert wb.full
        with pytest.raises(OverflowError):
            wb.push(2)

    def test_free_tracks_occupancy(self):
        wb = WriteBuffer(capacity=3)
        assert wb.free == 3
        wb.push(1)
        assert wb.free == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity=0)

    def test_empty_head_is_none(self):
        assert WriteBuffer(capacity=2).head() is None
