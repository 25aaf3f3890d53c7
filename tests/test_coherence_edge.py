"""Coherence edge cases: write-write races, warm-up state, inclusive
invariants, and eviction-retry paths."""

from repro.common.addr import slice_of
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.mem.cache import LineState

from tests.test_coherence import do_load, do_store, make_memory, settle


class TestWriteRaces:
    def test_two_writers_same_line_serialize(self):
        mem, events, _ = make_memory(num_cores=2)
        done = []
        mem.store(0, 5, lambda c: done.append(("a", c)))
        mem.store(1, 5, lambda c: done.append(("b", c)))
        settle(events, horizon=10000)
        assert len(done) == 2
        # exactly one core ends up the owner
        owners = [core for core in (0, 1)
                  if mem.l1s[core].lookup(5, touch=False)
                  is LineState.MODIFIED]
        assert len(owners) == 1

    def test_write_then_read_from_other_core(self):
        mem, events, _ = make_memory(num_cores=2)
        do_store(mem, events, 0, 5)
        do_load(mem, events, 1, 5)
        # owner downgraded, both shared
        assert mem.l1s[0].lookup(5, touch=False) is LineState.SHARED
        assert mem.l1s[1].lookup(5, touch=False) is LineState.SHARED

    def test_upgrade_from_shared(self):
        mem, events, ports = make_memory(num_cores=2)
        do_load(mem, events, 0, 5)
        do_load(mem, events, 1, 5)
        do_store(mem, events, 0, 5)
        assert mem.l1s[0].lookup(5, touch=False) is LineState.MODIFIED
        assert not mem.l1_hit(1, 5)
        assert ports[1].invalidations == [5]


class TestWarmup:
    def _workload(self, addrs_per_thread):
        traces = []
        for addrs in addrs_per_thread:
            uops = [MicroOp(i, OpClass.LOAD, addr=a)
                    for i, a in enumerate(addrs)]
            traces.append(Trace(uops))
        return Workload(traces, name="warm")

    def test_reused_lines_are_warmed(self):
        mem, events, _ = make_memory(num_cores=1, l1_sets=64)
        workload = self._workload([[0x40, 0x40, 0x80, 0x80]])
        mem.warm(workload)
        assert mem.l1_hit(0, 1) and mem.l1_hit(0, 2)

    def test_compulsory_misses_stay_cold(self):
        mem, events, _ = make_memory(num_cores=1, l1_sets=64)
        workload = self._workload([[0x40, 0x80, 0x80]])
        mem.warm(workload)
        assert not mem.l1_hit(0, 1)    # touched once: stays cold
        assert mem.l1_hit(0, 2)

    def test_shared_lines_warm_as_shared(self):
        mem, events, _ = make_memory(num_cores=2, l1_sets=64)
        workload = self._workload([[0x40, 0x40], [0x40, 0x40]])
        mem.warm(workload)
        assert mem.l1s[0].lookup(1, touch=False) is LineState.SHARED
        assert mem.l1s[1].lookup(1, touch=False) is LineState.SHARED

    def test_private_lines_warm_exclusive(self):
        mem, events, _ = make_memory(num_cores=2, l1_sets=64)
        workload = self._workload([[0x40, 0x40], [0x80, 0x80]])
        mem.warm(workload)
        assert mem.l1s[0].lookup(1, touch=False) is LineState.EXCLUSIVE
        assert mem.l1s[1].lookup(2, touch=False) is LineState.EXCLUSIVE

    def test_warm_respects_l1_capacity(self):
        mem, events, _ = make_memory(num_cores=1, l1_sets=4, l1_ways=2)
        # 3 reused lines in the same set: only 2 can stay
        addrs = [0x00, 0x100, 0x200] * 2
        mem.warm(self._workload([addrs]))
        resident = sum(mem.l1_hit(0, line) for line in (0, 4, 8))
        assert resident == 2


class TestInclusionInvariant:
    def test_l1_lines_always_in_llc(self):
        mem, events, _ = make_memory(num_cores=2, l1_sets=8, llc_ways=4)
        for line in range(0, 200, 7):
            do_load(mem, events, line % 2, line)
        for core_id, l1 in enumerate(mem.l1s):
            for set_index in range(l1.num_sets):
                for line in l1.resident_lines(set_index):
                    slice_id = slice_of(line, mem.num_slices)
                    assert mem.slices[slice_id].lookup(line, touch=False) \
                        is not None, f"L1 line {line} not in LLC"

    def test_directory_tracks_holders(self):
        mem, events, _ = make_memory(num_cores=2)
        do_load(mem, events, 0, 5)
        do_load(mem, events, 1, 5)
        slice_id = slice_of(5, mem.num_slices)
        entry = mem.slices[slice_id].lookup(5, touch=False)
        assert entry.holders() == {0, 1}


class TestEvictionRetry:
    def test_l1_fill_waits_when_all_ways_pinned(self):
        mem, events, ports = make_memory(num_cores=1, l1_sets=4, l1_ways=2)
        do_load(mem, events, 0, 0)
        do_load(mem, events, 0, 4)
        ports[0].pinned.update({0, 4})     # whole set 0 pinned
        done = []
        mem.load(0, 8, lambda c: done.append(c))
        for _ in range(6):
            if events.empty:
                break
            events.run_until(events.next_time())
        assert not done
        assert mem.stats["eviction_retries"] >= 1
        ports[0].pinned.clear()            # pinned loads retire
        settle(events, horizon=50000)
        assert done
