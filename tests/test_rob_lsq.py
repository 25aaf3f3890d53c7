"""Reorder buffer, load queue, and store queue unit behaviour."""

import pytest

from repro.core.lsq import LoadQueue, StoreQueue
from repro.core.rob import ReorderBuffer, ROBEntry
from repro.isa.uops import MicroOp, OpClass


def load_entry(index, addr=0x40, deps=()):
    return ROBEntry(MicroOp(index, OpClass.LOAD, deps=deps, addr=addr),
                    pending_deps=len(deps), dispatch_cycle=0)


def store_entry(index, addr=0x40):
    return ROBEntry(MicroOp(index, OpClass.STORE, addr=addr),
                    pending_deps=0, dispatch_cycle=0)


class TestROBEntry:
    def test_line_derived_from_address(self):
        assert load_entry(0, addr=0x83).line == 2

    def test_non_memory_has_no_line(self):
        entry = ROBEntry(MicroOp(0, OpClass.INT_ALU), 0, 0)
        assert entry.line is None


class TestReorderBuffer:
    def test_fifo_head_tail(self):
        rob = ReorderBuffer(capacity=4)
        a, b = load_entry(0), load_entry(1)
        rob.push(a)
        rob.push(b)
        assert rob.head() is a
        assert rob.is_head(a) and not rob.is_head(b)

    def test_capacity(self):
        rob = ReorderBuffer(capacity=1)
        rob.push(load_entry(0))
        assert rob.full
        with pytest.raises(OverflowError):
            rob.push(load_entry(1))

    def test_find_by_index(self):
        rob = ReorderBuffer(capacity=4)
        entry = load_entry(5)
        rob.push(entry)
        assert rob.find(5) is entry
        assert rob.find(6) is None

    def test_pop_head_and_tail_maintain_index(self):
        rob = ReorderBuffer(capacity=4)
        for i in range(3):
            rob.push(load_entry(i))
        assert rob.pop_head().index == 0
        assert rob.find(0) is None
        assert rob.find(1) is not None and rob.find(2) is not None


class TestLoadQueue:
    def test_release_head_enforces_order(self):
        lq = LoadQueue(capacity=4)
        a, b = load_entry(0), load_entry(1)
        lq.allocate(a)
        lq.allocate(b)
        with pytest.raises(ValueError):
            lq.release_head(b)
        lq.release_head(a)
        assert lq.oldest() is b

    def test_capacity(self):
        lq = LoadQueue(capacity=1)
        lq.allocate(load_entry(0))
        with pytest.raises(OverflowError):
            lq.allocate(load_entry(1))

    def test_squash_younger_or_equal(self):
        lq = LoadQueue(capacity=8)
        entries = [load_entry(i) for i in range(4)]
        for e in entries:
            lq.allocate(e)
        dropped = lq.squash_younger_or_equal(2)
        assert [e.index for e in dropped] == [2, 3]
        assert [e.index for e in lq] == [0, 1]

    def test_performed_unretired_filters(self):
        lq = LoadQueue(capacity=8)
        performed = load_entry(0, addr=0x40)
        performed.performed = True
        pending = load_entry(1, addr=0x40)
        forwarded = load_entry(2, addr=0x40)
        forwarded.performed = True
        forwarded.forwarded = True
        other_line = load_entry(3, addr=0x100)
        other_line.performed = True
        for e in (performed, pending, forwarded, other_line):
            lq.allocate(e)
        vulnerable = lq.performed_unretired(line=1)
        assert vulnerable == [performed]


class TestStoreQueue:
    def test_forwarding_picks_youngest_older_known_store(self):
        sq = StoreQueue(capacity=8)
        s0 = store_entry(0, addr=0x40)
        s0.addr_ready = True
        s1 = store_entry(2, addr=0x40)
        s1.addr_ready = True
        s_unknown = store_entry(4, addr=0x40)   # address not generated yet
        for s in (s0, s1, s_unknown):
            sq.allocate(s)
        load = load_entry(6, addr=0x60)         # same line as 0x40
        assert sq.forwarding_store(load) is s1

    def test_no_forwarding_from_younger_store(self):
        sq = StoreQueue(capacity=8)
        s = store_entry(5, addr=0x40)
        s.addr_ready = True
        sq.allocate(s)
        load = load_entry(2, addr=0x40)
        assert sq.forwarding_store(load) is None

    def test_no_forwarding_across_lines(self):
        sq = StoreQueue(capacity=8)
        s = store_entry(0, addr=0x100)
        s.addr_ready = True
        sq.allocate(s)
        assert sq.forwarding_store(load_entry(2, addr=0x40)) is None

    def test_release_head_enforces_order(self):
        sq = StoreQueue(capacity=4)
        a, b = store_entry(0), store_entry(1)
        sq.allocate(a)
        sq.allocate(b)
        with pytest.raises(ValueError):
            sq.release_head(b)
        sq.release_head(a)
