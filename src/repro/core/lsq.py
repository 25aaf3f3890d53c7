"""Load and store queues as program-ordered rings.

The load queue is the structure snooped on invalidations/evictions for the
TSO squash rule, and — in the chosen Pinned Loads design (§6.1.1) — where
the Pinned bit lives.  The store queue provides line-granularity
store-to-load forwarding and the unknown-address aliasing window.

Both queues are rings over a preallocated power-of-two handle list with
absolute head/tail counters: allocation and head release are O(1) (the
previous list layout paid an O(n) ``pop(0)`` per retired memop), squash
pops the suffix it drops and nothing else, and the forwarding probe scans
*backward* from the tail so the youngest matching store is the first hit.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.rob import (FLAG_FORWARDED, FLAG_PERFORMED, ROBEntry,
                            _pow2)


class LoadQueue:
    """Program-ordered ring of in-flight loads (62 entries, Table 1)."""

    __slots__ = ("capacity", "_ring", "_qmask", "_head", "_tail")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        cap = _pow2(capacity)
        self._ring: List[Optional[ROBEntry]] = [None] * cap
        self._qmask = cap - 1
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def __iter__(self) -> Iterator[ROBEntry]:
        ring = self._ring
        qmask = self._qmask
        for pos in range(self._head, self._tail):
            yield ring[pos & qmask]

    @property
    def full(self) -> bool:
        return self._tail - self._head >= self.capacity

    def allocate(self, entry: ROBEntry) -> None:
        if self._tail - self._head >= self.capacity:
            raise OverflowError("load queue full")
        self._ring[self._tail & self._qmask] = entry
        self._tail += 1

    def release_head(self, entry: ROBEntry) -> None:
        """Remove ``entry``, which must be the oldest load (retirement)."""
        slot = self._head & self._qmask
        if self._tail == self._head or self._ring[slot] is not entry:
            raise ValueError("retiring a load that is not the LQ head")
        self._ring[slot] = None
        self._head += 1

    def squash_younger_or_equal(self, index: int) -> List[ROBEntry]:
        """Drop every load with uop index >= ``index`` (squash path).

        Loads are ring-resident in program order, so the victims are
        exactly a suffix: pop from the tail until an older load (or the
        head) is reached.  Returns the dropped loads oldest-first."""
        ring = self._ring
        qmask = self._qmask
        head = self._head
        tail = self._tail
        dropped: List[ROBEntry] = []
        while tail > head:
            slot = (tail - 1) & qmask
            load = ring[slot]
            if load.index < index:
                break
            dropped.append(load)
            ring[slot] = None
            tail -= 1
        self._tail = tail
        dropped.reverse()
        return dropped

    def oldest(self) -> Optional[ROBEntry]:
        if self._tail == self._head:
            return None
        return self._ring[self._head & self._qmask]

    def performed_unretired(self, line: int) -> List[ROBEntry]:
        """Loads vulnerable to an invalidation/eviction of ``line``:
        performed from memory (not by store forwarding) and not yet
        retired.  Program-ordered (oldest first), like the ring.  This
        runs per coherence event, so the status probe reads the flags
        column directly instead of paying two property calls per load."""
        ring = self._ring
        qmask = self._qmask
        out: List[ROBEntry] = []
        for pos in range(self._head, self._tail):
            load = ring[pos & qmask]
            if load.line == line:
                f = load.cols.flags[load.slot]
                if f & FLAG_PERFORMED and not f & FLAG_FORWARDED:
                    out.append(load)
        return out


class StoreQueue:
    """Program-ordered ring of not-yet-retired stores (32 entries)."""

    __slots__ = ("capacity", "_ring", "_qmask", "_head", "_tail")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        cap = _pow2(capacity)
        self._ring: List[Optional[ROBEntry]] = [None] * cap
        self._qmask = cap - 1
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def __iter__(self) -> Iterator[ROBEntry]:
        ring = self._ring
        qmask = self._qmask
        for pos in range(self._head, self._tail):
            yield ring[pos & qmask]

    @property
    def full(self) -> bool:
        return self._tail - self._head >= self.capacity

    def allocate(self, entry: ROBEntry) -> None:
        if self._tail - self._head >= self.capacity:
            raise OverflowError("store queue full")
        self._ring[self._tail & self._qmask] = entry
        self._tail += 1

    def release_head(self, entry: ROBEntry) -> None:
        slot = self._head & self._qmask
        if self._tail == self._head or self._ring[slot] is not entry:
            raise ValueError("retiring a store that is not the SQ head")
        self._ring[slot] = None
        self._head += 1

    def squash_younger_or_equal(self, index: int) -> List[ROBEntry]:
        ring = self._ring
        qmask = self._qmask
        head = self._head
        tail = self._tail
        dropped: List[ROBEntry] = []
        while tail > head:
            slot = (tail - 1) & qmask
            store = ring[slot]
            if store.index < index:
                break
            dropped.append(store)
            ring[slot] = None
            tail -= 1
        self._tail = tail
        dropped.reverse()
        return dropped

    def forwarding_store(self, load: ROBEntry) -> Optional[ROBEntry]:
        """Youngest older store to the load's line with a known address.

        Backward scan from the tail: the first store older than the load
        that matches is by construction the youngest such store, so the
        scan stops at the first hit instead of walking the whole queue."""
        ring = self._ring
        qmask = self._qmask
        head = self._head
        load_index = load.index
        line = load.line
        for pos in range(self._tail - 1, head - 1, -1):
            store = ring[pos & qmask]
            if store.index >= load_index:
                continue
            if store.addr_ready and store.line == line:
                return store
        return None
