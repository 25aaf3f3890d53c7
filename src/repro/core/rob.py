"""Reorder buffer: parallel column state plus slim per-uop handles.

The mutable execution state of in-flight uops is a struct-of-arrays
block (``ColumnState``): preallocated list columns indexed by a
*slot id*.  The reorder buffer window is contiguous in program order —
dispatch pushes index ``cursor``, squash pops a suffix and rewinds the
cursor, retire advances the head — so a uop's slot is simply
``index & mask`` over a power-of-two column capacity, and slots recycle
themselves as the window wraps: no free list walk, no per-entry dict.

A ``ROBEntry`` is a *handle*: identity (uop, index, slot) plus the one
mutable field that must survive the slot's reuse (``squashed`` — stale
event callbacks holding a squashed handle must see it dead even after
the slot hosts the replayed incarnation).  Every other field reads and
writes the columns through properties, so non-hot code (the pinning
controller, the sanitizer, unit tests) keeps its attribute syntax while
the specialized engine closures index the columns directly.  The same ``MicroOp`` may be dispatched several times
(squash-and-replay), each time with a fresh handle over a reset slot.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.isa.uops import MicroOp

#: ``ColumnState.flags`` bits.  One uint16 read answers every status
#: probe the hot scans make; one store clears the whole struct at
#: dispatch.
FLAG_ISSUED = 1
FLAG_COMPLETE = 2
FLAG_ADDR_READY = 4
FLAG_PERFORMED = 8
FLAG_PINNED = 16
FLAG_MCV_SAFE = 32
FLAG_OUTSTANDING = 64
FLAG_FORWARDED = 128
FLAG_PARKED = 256
FLAG_NOTIFIED = 512      # barrier uop announced its arrival
FLAG_INVISIBLE = 1024    # load performed invisibly (InvisiSpec)
FLAG_VALIDATED = 2048    # invisible load validated at its VP
FLAG_VP_CAND = 4096      # address-ready load the VP walk may act on


def _pow2(capacity: int) -> int:
    cap = 1
    while cap < capacity:
        cap <<= 1
    return cap


class ColumnState:
    """Preallocated parallel columns of per-slot mutable uop state.

    The columns are plain preallocated lists: CPython indexes a list
    roughly twice as fast as a typed ``array`` (no element boxing), and
    read-modify-write flag stores are ~3x faster, which is what the
    per-tick scans actually pay.
    """

    __slots__ = ("cap", "mask", "flags", "pending", "pending_data",
                 "vp", "lq_id", "complete_cycle", "dispatch_cycle")

    def __init__(self, capacity: int) -> None:
        cap = _pow2(capacity)
        self.cap = cap
        self.mask = cap - 1
        self.flags = [0] * cap
        self.pending = [0] * cap
        self.pending_data = [0] * cap
        self.vp = [-1] * cap
        self.lq_id = [-1] * cap
        self.complete_cycle = [-1] * cap
        self.dispatch_cycle = [0] * cap

    def reset(self, slot: int, pending_deps: int,
              dispatch_cycle: int) -> None:
        """Claim ``slot`` for a fresh incarnation: a handful of column
        stores instead of the twenty-odd attribute stores the per-uop
        object layout paid on every dispatch."""
        self.flags[slot] = 0
        self.pending[slot] = pending_deps
        self.pending_data[slot] = 0
        self.vp[slot] = -1
        self.lq_id[slot] = -1
        self.complete_cycle[slot] = -1
        self.dispatch_cycle[slot] = dispatch_cycle


def _flag_property(bit: int):
    clear = ~bit

    def getter(self) -> bool:
        return bool(self.cols.flags[self.slot] & bit)

    def setter(self, value: bool) -> None:
        # wake relevance is accounted at the assignment *site* (the
        # attribute store the wakeup verify pass registers), not here
        if value:
            self.cols.flags[self.slot] |= bit
        else:
            self.cols.flags[self.slot] &= clear

    return property(getter, setter)


class ROBEntry:
    """Handle to one in-flight uop's column state.

    ``squashed`` lives on the handle, not in the columns: a squashed
    uop's slot is reset when the replayed incarnation dispatches, but
    event callbacks scheduled against the dead incarnation still hold
    the old handle and must keep reading ``squashed == True``.
    """

    __slots__ = ("uop", "index", "slot", "line", "squashed", "cols")

    def __init__(self, uop: MicroOp, pending_deps: int,
                 dispatch_cycle: int, cols: Optional[ColumnState] = None,
                 slot: int = 0) -> None:
        self.uop = uop
        self.index = uop.index
        self.line: Optional[int] = (uop.addr >> 6) if uop.addr is not None \
            else None
        self.squashed = False
        if cols is None:
            # standalone construction (unit tests, tools): a private
            # single-slot column block keeps the property protocol
            cols = ColumnState(1)
            slot = 0
        self.cols = cols
        self.slot = slot
        cols.reset(slot, pending_deps, dispatch_cycle)

    issued = _flag_property(FLAG_ISSUED)
    complete = _flag_property(FLAG_COMPLETE)
    addr_ready = _flag_property(FLAG_ADDR_READY)
    performed = _flag_property(FLAG_PERFORMED)
    pinned = _flag_property(FLAG_PINNED)
    mcv_safe = _flag_property(FLAG_MCV_SAFE)
    outstanding = _flag_property(FLAG_OUTSTANDING)
    forwarded = _flag_property(FLAG_FORWARDED)
    parked = _flag_property(FLAG_PARKED)
    barrier_notified = _flag_property(FLAG_NOTIFIED)
    invisible = _flag_property(FLAG_INVISIBLE)
    validated = _flag_property(FLAG_VALIDATED)

    @property
    def pending_deps(self) -> int:
        return self.cols.pending[self.slot]

    @pending_deps.setter
    def pending_deps(self, value: int) -> None:
        self.cols.pending[self.slot] = value

    @property
    def pending_data_deps(self) -> int:
        return self.cols.pending_data[self.slot]

    @pending_data_deps.setter
    def pending_data_deps(self, value: int) -> None:
        self.cols.pending_data[self.slot] = value

    @property
    def vp_cycle(self) -> Optional[int]:
        cycle = self.cols.vp[self.slot]
        return None if cycle < 0 else cycle

    @vp_cycle.setter
    def vp_cycle(self, value: Optional[int]) -> None:
        self.cols.vp[self.slot] = -1 if value is None else value

    @property
    def lq_id(self) -> Optional[int]:
        lq_id = self.cols.lq_id[self.slot]
        return None if lq_id < 0 else lq_id

    @lq_id.setter
    def lq_id(self, value: Optional[int]) -> None:
        self.cols.lq_id[self.slot] = -1 if value is None else value

    @property
    def complete_cycle(self) -> Optional[int]:
        cycle = self.cols.complete_cycle[self.slot]
        return None if cycle < 0 else cycle

    @complete_cycle.setter
    def complete_cycle(self, value: Optional[int]) -> None:
        self.cols.complete_cycle[self.slot] = -1 if value is None else value

    @property
    def dispatch_cycle(self) -> int:
        return self.cols.dispatch_cycle[self.slot]

    @dispatch_cycle.setter
    def dispatch_cycle(self, value: int) -> None:
        self.cols.dispatch_cycle[self.slot] = value

    def __repr__(self) -> str:
        flags = "".join(flag for flag, on in [
            ("I", self.issued), ("C", self.complete), ("A", self.addr_ready),
            ("P", self.performed), ("p", self.pinned), ("s", self.mcv_safe),
            ("X", self.squashed)] if on)
        return f"ROBEntry(#{self.index} {self.uop.opclass.value} [{flags}])"


class ReorderBuffer:
    """Contiguous in-order window of in-flight uops over the columns.

    The window is ``[_head, _next)`` in program-order indices; the
    handle for index ``i`` sits at ``_handles[i & _mask]``.  Head
    access, index lookup and occupancy are O(1) integer arithmetic, and
    popping an end is one list store (squash pops the tail inline,
    ``Core._squash_from``).
    """

    __slots__ = ("capacity", "cols", "_mask", "_handles", "_head", "_next")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.cols = ColumnState(capacity)
        self._mask = self.cols.mask
        self._handles: List[Optional[ROBEntry]] = [None] * self.cols.cap
        self._head = 0
        self._next = 0

    def __len__(self) -> int:
        return self._next - self._head

    def __iter__(self) -> Iterator[ROBEntry]:
        handles = self._handles
        mask = self._mask
        for index in range(self._head, self._next):
            entry = handles[index & mask]
            if entry is not None:
                yield entry

    @property
    def full(self) -> bool:
        return self._next - self._head >= self.capacity

    @property
    def empty(self) -> bool:
        return self._next == self._head

    def head(self) -> Optional[ROBEntry]:
        if self._next == self._head:
            return None
        return self._handles[self._head & self._mask]

    def push(self, entry: ROBEntry) -> None:
        if self._next - self._head >= self.capacity:
            raise OverflowError("ROB full")
        # The pipeline always pushes the contiguous cursor (the window
        # invariant the slot arithmetic relies on).  Standalone callers
        # (unit tests, tools) may push sparse or out-of-order indices:
        # the window bounds stretch to cover them and unoccupied indices
        # read as None holes.
        if self._next == self._head:
            self._head = entry.index
        elif entry.index < self._head:
            self._head = entry.index
        if entry.cols is not self.cols:
            # adopt a standalone-constructed handle (unit tests, tools):
            # migrate its private column slot into this window's columns
            # so probes that index ``cols`` directly see its state
            src, s = entry.cols, entry.slot
            slot = entry.index & self._mask
            cols = self.cols
            cols.flags[slot] = src.flags[s]
            cols.pending[slot] = src.pending[s]
            cols.pending_data[slot] = src.pending_data[s]
            cols.vp[slot] = src.vp[s]
            cols.lq_id[slot] = src.lq_id[s]
            cols.complete_cycle[slot] = src.complete_cycle[s]
            cols.dispatch_cycle[slot] = src.dispatch_cycle[s]
            entry.cols = cols
            entry.slot = slot
        self._handles[entry.index & self._mask] = entry
        if entry.index >= self._next:
            self._next = entry.index + 1

    def pop_head(self) -> ROBEntry:
        slot = self._head & self._mask
        entry = self._handles[slot]
        self._handles[slot] = None
        self._head += 1
        return entry

    def find(self, index: int) -> Optional[ROBEntry]:
        if self._head <= index < self._next:
            entry = self._handles[index & self._mask]
            if entry is not None and entry.index == index:
                return entry
        return None

    def is_head(self, entry: ROBEntry) -> bool:
        return self._next > self._head \
            and self._handles[self._head & self._mask] is entry
