"""The out-of-order core model.

Trace-driven, cycle-stepped.  Each cycle the core retires, advances the
pinning chain, issues ready uops and eligible loads, dispatches new uops,
and drains the write buffer.  Completion of multi-cycle work (functional
units, memory responses) arrives through the system event queue.

The per-cycle stages are per-core closures that the engine running
``System.run`` builds (``repro.sim.engine``); retire, dispatch,
ready-uop issue, the load-issue scan, the VP walk and the pin chain
exist only there.  This class holds the core's state and the semantics
the closures call back into: the event callbacks (completion, address
generation, branch resolution, load data), VP marking, the load-issue
paths (plain, invisible, validation, Late Pinning), squash, the retire
checks of the serializing classes, atomics, barriers and the
write-buffer drain.

The core implements the coherence layer's ``CorePort``: it is the component
snooped on invalidations/evictions (TSO squash rule and pin deferral) and
the home of the Cannot-Pin Table.

Hot mutable state is struct-of-arrays (see ``repro.core.rob``): the ROB
window, flags, dependency counters and VP cycles live in preallocated
columns indexed by ``index & mask``, and the transient work-lists
(``_ready``, ``_waiting_loads``) hold plain uop indices — native int
sorts, no key functions, no object dereference until a uop actually
issues.  Because an index carries no liveness of its own, squash purges
the dead suffix from those lists eagerly (squashes are rare; per-entry
lazy checks on every scan are not).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from repro.common.events import EventQueue
from repro.common.params import DefenseKind, PinningMode, SystemConfig
from repro.common.stats import StatSet
from repro.core.lsq import LoadQueue, StoreQueue
from repro.core.rob import (FLAG_ADDR_READY, FLAG_COMPLETE, FLAG_INVISIBLE,
                            FLAG_MCV_SAFE, FLAG_OUTSTANDING, FLAG_PARKED,
                            FLAG_PERFORMED, FLAG_PINNED, FLAG_VP_CAND,
                            ReorderBuffer, ROBEntry)
from repro.isa.trace import Trace
from repro.isa.uops import OpClass
from repro.mem.coherence import CoherentMemory, CorePort
from repro.mem.writebuffer import WriteBuffer
from repro.pinning.controller import PinnedLoadsController
from repro.security.taint import TaintTracker
from repro.security.threat import VPState

#: L1-D read/write ports (Table 1): max loads issued to memory per cycle.
L1_PORTS = 3


class RetireProgress:
    """Shared retire counter for the O(1) deadlock scan.

    Every core bumps ``count`` at retire, so ``System.run`` detects
    forward progress with one attribute read per cycle instead of
    summing per-core statistics."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class Core(CorePort):
    """One out-of-order core executing one trace."""

    # "__dict__" stays in the slots: the opt-in invariant sanitizer
    # (repro.verify.sanitizer) shadows instance methods, which needs an
    # instance dict; the hot per-cycle attributes still live in slots.
    __slots__ = (
        "core_id", "config", "trace", "mem", "events", "barriers", "stats",
        "rob", "lq", "sq", "write_buffer", "vp_state", "taint",
        "controller", "_pinning", "cycle", "done_cycle", "_cursor",
        "_fetch_resume", "_retired_upto", "_ready", "_waiting_loads",
        "_lp_parked", "_waiters", "_data_waiters", "_resolved_mispredicts",
        "_wb_draining", "retired_count", "_progress", "_trace_len",
        "_vp_active", "_wb_entries", "_rob_capacity",
        "retire_sig", "_vp_candidates", "_wake_pending",
        "_waiting_stalled", "_cols", "_flags", "_vp_col", "_slot_mask",
        "_handles", "__dict__",
    )

    def __init__(self, core_id: int, config: SystemConfig, trace: Trace,
                 mem: CoherentMemory, events: EventQueue, barriers,
                 progress: Optional[RetireProgress] = None) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.mem = mem
        self.events = events
        self.barriers = barriers
        self.stats = StatSet()
        cp = config.core
        self.rob = ReorderBuffer(cp.rob_entries)
        self.lq = LoadQueue(cp.load_queue_entries)
        self.sq = StoreQueue(cp.store_queue_entries)
        self.write_buffer = WriteBuffer(cp.write_buffer_entries)
        self.vp_state = VPState()
        self.taint: Optional[TaintTracker] = (
            TaintTracker(self.rob) if config.defense is DefenseKind.STT
            else None)
        self.controller = PinnedLoadsController(self)
        self._pinning = config.pinning.mode is not PinningMode.NONE
        self.cycle = 0
        self.done_cycle: Optional[int] = None
        self._cursor = 0
        self._fetch_resume = 0
        self._retired_upto = 0
        # transient work-lists of uop *indices* (see module docstring)
        self._ready: List[int] = []
        self._waiting_loads: List[int] = []
        self._lp_parked: List[ROBEntry] = []
        self._waiters: Dict[int, List[ROBEntry]] = {}
        self._data_waiters: Dict[int, List[ROBEntry]] = {}
        self._resolved_mispredicts: set = set()
        self._wb_draining = False
        # event-driven wakeup state (the engine's quiet probe): the
        # candidate counter gates the VP walk (``FLAG_VP_CAND`` marks the
        # loads it may act on); the dirty flag records that something
        # mutated since this core's last tick began
        self._vp_candidates = 0
        self._wake_pending = True
        self._waiting_stalled = False
        self.retired_count = 0
        # order-sensitive FNV-style signature of the retired uop indices:
        # the committed stream must be invariant under any injected-fault
        # timing (asserted by the chaos campaign across seeds)
        self.retire_sig = 0xcbf29ce484222325
        self._progress = progress if progress is not None \
            else RetireProgress()
        # hot-loop hoists: immutable facts and stable containers read
        # every cycle by the stages (the columns are never reassigned)
        self._trace_len = len(trace)
        # every defense but the Unsafe baseline gates issue on the VP
        self._vp_active = config.defense is not DefenseKind.UNSAFE
        self._cols = self.rob.cols
        self._flags = self._cols.flags
        self._vp_col = self._cols.vp
        self._slot_mask = self.rob._mask
        self._handles = self.rob._handles
        self._wb_entries = self.write_buffer._entries
        self._rob_capacity = self.rob.capacity
        mem.attach_port(core_id, self)

    # ------------------------------------------------------------------
    # CorePort (coherence layer callbacks)
    # ------------------------------------------------------------------

    def has_pinned(self, line: int) -> bool:
        return self.controller.has_pinned(line)

    def on_invalidation(self, line: int) -> None:
        # coherence hooks may fire after this core's tick this cycle
        # (from another core's tick); the flag keeps the core un-quiet
        # until the next tick has processed the new state
        self._wake_pending = True
        self._mcv_squash_check(line, "inval")

    def on_line_evicted(self, line: int) -> None:
        self._wake_pending = True
        self._mcv_squash_check(line, "evict")

    def cpt_insert(self, line: int, writer: Optional[int] = None) -> None:
        self._wake_pending = True
        self.controller.cpt_insert(line, writer)

    def cpt_clear(self, line: int) -> None:
        self._wake_pending = True
        self.controller.cpt_clear(line)

    def _mcv_squash_check(self, line: int, kind: str) -> None:
        """The TSO conservative rule: a performed, unretired load of an
        invalidated/evicted line must be squashed — unless pinned, or it is
        the oldest load in the ROB (aggressive implementation, §3.3)."""
        oldest = self.lq.oldest() if self.config.pinning.aggressive_tso \
            else None
        for load in self.lq.performed_unretired(line):
            # program order: the first surviving victim is the squash point
            if load.pinned or load is oldest:
                continue
            self._squash_from(load.index, f"mcv_{kind}")
            return

    @property
    def done(self) -> bool:
        return self.done_cycle is not None

    # ------------------------------------------------------------------
    # Retire
    # ------------------------------------------------------------------

    def _head_may_retire(self, head: ROBEntry) -> bool:
        """May the ROB head retire now?  The engine's retire closure
        asks this for the serializing classes and invisibly-performed
        loads; for a head atomic it issues the access, for a head
        barrier it arrives."""
        opclass = head.uop.opclass
        if opclass is OpClass.STORE:
            return head.complete and not self.write_buffer.full
        if opclass is OpClass.ATOMIC:
            if not head.issued:
                if head.addr_ready and self.write_buffer.empty:
                    self._issue_atomic(head)
                return False
            return head.complete
        if opclass is OpClass.FENCE:
            return self.write_buffer.empty
        if opclass is OpClass.BARRIER:
            if not head.barrier_notified:
                head.barrier_notified = True
                self.barriers.arrive(head.uop.barrier_id, self.core_id)
            return self.barriers.released(head.uop.barrier_id)
        if opclass is OpClass.LOAD and head.invisible:
            # an invisibly-performed load cannot retire before the visible
            # validation access at its VP has completed (InvisiSpec-class)
            return head.complete and head.validated
        return head.complete

    # ------------------------------------------------------------------
    # VP tracking
    # ------------------------------------------------------------------

    def note_vp_reached(self, entry: ROBEntry) -> None:
        """Record the cycle a load reached its Visibility Point.

        Always re-arms the wakeup flag: every caller is a mutation site
        (the VP walk, pin grants, oldest-load exemptions, LP authorized
        issues), including the calls that find ``vp_cycle`` already set
        but changed ``mcv_safe`` just before.  An invisibly-performed
        load (InvisiSpec) is no longer squashable, so it is exposed by
        its validation access."""
        self._wake_pending = True
        cols = entry.cols
        slot = entry.slot
        if cols.vp[slot] < 0:
            cols.vp[slot] = self.cycle
            if cols.flags[slot] & FLAG_VP_CAND:
                cols.flags[slot] &= ~FLAG_VP_CAND
                self._vp_candidates -= 1
            self.stats.bump("vp_reached")
            if cols.flags[slot] & FLAG_INVISIBLE:
                self.issue_validation(entry)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def _schedule_complete(self, entry: ROBEntry, latency: int) -> None:
        self.events.schedule_after(latency, self._complete, entry)

    def _complete(self, entry: ROBEntry) -> None:
        if entry.squashed:
            return
        cols = entry.cols
        slot = entry.slot
        if cols.flags[slot] & FLAG_COMPLETE:
            return
        cols.flags[slot] |= FLAG_COMPLETE
        cols.complete_cycle[slot] = self.events.now
        self._wake_dependents(entry.index)

    def _wake_dependents(self, index: int) -> None:
        waiters = self._waiters.pop(index, None)
        if waiters:
            ready = self._ready
            for waiter in waiters:
                if waiter.squashed:
                    continue
                pending = waiter.cols.pending
                slot = waiter.slot
                pending[slot] -= 1
                if pending[slot] == 0:
                    ready.append(waiter.index)
        data_waiters = self._data_waiters.pop(index, None)
        if data_waiters:
            for waiter in data_waiters:
                if waiter.squashed:
                    continue
                waiter.cols.pending_data[waiter.slot] -= 1
                self._maybe_complete_store(waiter)

    def _maybe_complete_store(self, store: ROBEntry) -> None:
        """A store completes once its address is generated *and* its data
        operands arrived; the address alone opens/closes the aliasing and
        exception windows."""
        cols = store.cols
        slot = store.slot
        if cols.flags[slot] & FLAG_ADDR_READY and cols.pending_data[slot] == 0:
            self._complete(store)

    def _on_branch_resolved(self, entry: ROBEntry) -> None:
        if entry.squashed:
            return
        self._wake_pending = True
        self.vp_state.unresolved_branches.discard(entry.index)
        self._complete(entry)
        if entry.uop.mispredicted \
                and entry.index not in self._resolved_mispredicts:
            # the predictor learns: a replayed branch predicts correctly
            self._resolved_mispredicts.add(entry.index)
            self.stats.bump("squashes_branch")
            self._squash_from(entry.index + 1, None)
            self._fetch_resume = max(
                self._fetch_resume,
                self.events.now + self.config.core.branch_resolve_latency)

    def _on_addr_ready(self, entry: ROBEntry) -> None:
        if entry.squashed:
            return
        self._wake_pending = True
        cols = entry.cols
        slot = entry.slot
        cols.flags[slot] |= FLAG_ADDR_READY
        opclass = entry.uop.opclass
        self.vp_state.unknown_addr_memops.discard(entry.index)
        if opclass is OpClass.LOAD:
            self._waiting_loads.append(entry.index)
            # a fresh load invalidates any "all stalled" conclusion
            self._waiting_stalled = False
            if self._vp_active and cols.vp[slot] < 0:
                cols.flags[slot] |= FLAG_VP_CAND
                self._vp_candidates += 1
        else:   # STORE / ATOMIC
            self.vp_state.unknown_addr_stores.discard(entry.index)
            self._alias_squash_check(entry)
            if opclass is OpClass.STORE:
                self._maybe_complete_store(entry)
            # ATOMICs wait for the ROB head (they run non-speculatively)

    def _alias_squash_check(self, store: ROBEntry) -> None:
        """The store's address just became known: any younger load of the
        same line that already performed read a stale value (memory
        dependence mis-speculation) and must replay.  The vulnerable-load
        list is program-ordered, so the first younger entry is the oldest
        victim — the squash point."""
        store_index = store.index
        for load in self.lq.performed_unretired(store.line):
            if load.index > store_index:
                self.stats.bump("squashes_alias")
                self._squash_from(load.index, None)
                self._fetch_resume = max(
                    self._fetch_resume,
                    self.events.now + self.config.core.branch_resolve_latency)
                return

    # -- loads -----------------------------------------------------------

    def _issue_load(self, entry: ROBEntry) -> None:
        entry.issued = True
        forwarding = self.sq.forwarding_store(entry)
        if forwarding is None and self.write_buffer.contains_line(entry.line):
            forwarding = entry     # forwarded from the write buffer
        if forwarding is not None:
            entry.forwarded = True
            self.stats.bump("loads_forwarded")
            entry.performed = True
            self._schedule_complete(entry, 1)
            return
        entry.outstanding = True
        self.stats.bump("loads_issued")
        self.mem.load(self.core_id, entry.line,
                      partial(self._on_load_data, entry))

    def _issue_load_invisible(self, entry: ROBEntry) -> None:
        """Invisible-speculation issue: the load gets its data without any
        cache/coherence side effects; a visible validation access follows
        at its VP (``note_vp_reached``)."""
        entry.issued = True
        forwarding = self.sq.forwarding_store(entry)
        if forwarding is None and self.write_buffer.contains_line(entry.line):
            forwarding = entry
        if forwarding is not None:
            # store forwarding is core-local and already invisible
            entry.forwarded = True
            self.stats.bump("loads_forwarded")
            entry.performed = True
            self._schedule_complete(entry, 1)
            return
        entry.invisible = True
        entry.outstanding = True
        self.stats.bump("loads_issued_invisible")
        self.mem.load_invisible(
            self.core_id, entry.line,
            partial(self._on_invisible_load_data, entry))

    def _on_invisible_load_data(self, entry: ROBEntry,
                                _cycle: int = 0) -> None:
        if entry.squashed:
            return
        self._wake_pending = True
        entry.outstanding = False
        if (self.sq.forwarding_store(entry) is not None
                or self.write_buffer.contains_line(entry.line)):
            self._squash_from(entry.index, "alias")
            return
        entry.performed = True
        self._complete(entry)
        if entry.vp_cycle is not None and not entry.validated:
            # the VP arrived while the invisible access was in flight
            self.issue_validation(entry)

    def issue_validation(self, entry: ROBEntry) -> None:
        """Issue the visible validation access for an invisibly-performed
        load once it reached its VP and its invisible fetch returned."""
        if entry.squashed or entry.validated:
            return
        if entry.outstanding:
            return   # the invisible fetch itself is still in flight
        self.stats.bump("validations_issued")
        self.mem.load(self.core_id, entry.line,
                      partial(self._on_validation_done, entry))

    def _on_validation_done(self, entry: ROBEntry, _cycle: int = 0) -> None:
        if entry.squashed:
            return
        entry.validated = True
        self.stats.bump("validations_completed")

    def issue_load_for_pinning(self, entry: ROBEntry) -> None:
        """Late Pinning authorization: the load issues now and will be
        pinned when its data arrives (paper §5.2.1).  Authorization is the
        moment the VP is effectively passed downstream."""
        self.note_vp_reached(entry)
        self.stats.bump("lp_authorized_issues")
        self._issue_load(entry)

    def _on_load_data(self, entry: ROBEntry, _cycle: int = 0) -> None:
        if entry.squashed:
            return
        self._wake_pending = True
        cols = entry.cols
        slot = entry.slot
        flags = cols.flags
        flags[slot] &= ~FLAG_OUTSTANDING
        # inlined ``sq.forwarding_store``: this runs once per load-data
        # arrival, so the alias probe reads the flags column directly
        # (same backward scan, same first-hit semantics)
        sq = self.sq
        sq_ring = sq._ring
        sq_qmask = sq._qmask
        index = entry.index
        line = entry.line
        aliased = False
        for pos in range(sq._tail - 1, sq._head - 1, -1):
            store = sq_ring[pos & sq_qmask]
            if store.index >= index:
                continue
            if store.line == line and flags[store.slot] & FLAG_ADDR_READY:
                aliased = True
                break
        if aliased or self.write_buffer.contains_line(line):
            # an older store to this line resolved while the load was in
            # flight: the memory value is stale — replay (it will forward)
            self._squash_from(index, "alias")
            return
        if (self._pinning
                and self.config.pinning.mode is PinningMode.LATE
                and not flags[slot] & (FLAG_PINNED | FLAG_MCV_SAFE)
                and cols.vp[slot] >= 0):
            # this was an LP-authorized issue: pin before consuming
            if not self.controller.lp_data_arrived(entry):
                flags[slot] |= FLAG_PARKED
                self._lp_parked.append(entry)
                return
        if flags[slot] & FLAG_PINNED:
            self.controller.on_pinned_fill(entry)
        flags[slot] |= FLAG_PERFORMED
        self._complete(entry)

    def _lp_retry_parked(self) -> None:
        if not self._lp_parked:
            return
        keep: List[ROBEntry] = []
        for entry in self._lp_parked:
            if entry.squashed:
                continue
            if not self.mem.l1_hit(self.core_id, entry.line):
                # the unconsumed line was invalidated/evicted: refetch
                entry.parked = False
                entry.outstanding = True
                self.stats.bump("lp_parked_refetches")
                self.mem.load(self.core_id, entry.line,
                              partial(self._on_load_data, entry))
                continue
            if self.controller.lp_data_arrived(entry):
                entry.parked = False
                entry.performed = True
                self._complete(entry)
            else:
                keep.append(entry)
        self._lp_parked = keep

    # -- atomics ---------------------------------------------------------

    def _issue_atomic(self, entry: ROBEntry) -> None:
        entry.issued = True
        self.stats.bump("atomics_issued")
        self.mem.store(self.core_id, entry.line,
                       partial(self._on_atomic_performed, entry))

    def _on_atomic_performed(self, entry: ROBEntry, _cycle: int = 0) -> None:
        self._complete(entry)

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def _squash_from(self, index: int, reason: Optional[str]) -> None:
        """Squash every in-flight uop with program-order index >= index and
        rewind the fetch cursor for replay."""
        self._wake_pending = True
        if reason is not None:
            self.stats.bump(f"squashes_{reason}")
            self._fetch_resume = max(
                self._fetch_resume,
                self.events.now + self.config.core.branch_resolve_latency)
        squashed = 0
        cursor = self._cursor
        low = index if index > self._retired_upto else self._retired_upto
        if cursor > low:
            handles = self._handles
            mask = self._slot_mask
            for idx in range(cursor - 1, low - 1, -1):
                slot = idx & mask
                entry = handles[slot]
                handles[slot] = None    # pop the ROB tail
                self._cleanup_squashed(entry)
            squashed = cursor - low
            self.rob._next = low
            # the transient work-lists hold plain indices, which carry no
            # liveness: drop the dead suffix eagerly (squashes are rare,
            # per-entry staleness checks on every scan are not)
            self._ready = [i for i in self._ready if i < index]
            self._waiting_loads = [i for i in self._waiting_loads
                                   if i < index]
        self.lq.squash_younger_or_equal(index)
        self.sq.squash_younger_or_equal(index)
        self._cursor = min(self._cursor, index)
        self.stats.bump("squashed_uops", squashed)

    def _cleanup_squashed(self, entry: ROBEntry) -> None:
        entry.squashed = True
        opclass = entry.uop.opclass
        if opclass is OpClass.INT_ALU or opclass is OpClass.FP_ALU:
            return      # plain ALU ops (the bulk) track no VP state
        vp = self.vp_state
        index = entry.index
        if opclass is OpClass.LOAD:
            flags = entry.cols.flags
            slot = entry.slot
            if flags[slot] & FLAG_VP_CAND:
                flags[slot] &= ~FLAG_VP_CAND
                self._vp_candidates -= 1
            vp.unretired_loads.discard(index)
            vp.unknown_addr_memops.discard(index)
            self.controller.on_load_squash(entry)
        elif opclass is OpClass.STORE:
            vp.unknown_addr_stores.discard(index)
            vp.unknown_addr_memops.discard(index)
        elif opclass is OpClass.ATOMIC:
            vp.unknown_addr_stores.discard(index)
            vp.unknown_addr_memops.discard(index)
            vp.serializing.discard(index)
        elif opclass is OpClass.BRANCH:
            vp.unresolved_branches.discard(index)
        elif opclass in (OpClass.FENCE, OpClass.BARRIER):
            vp.serializing.discard(index)

    # ------------------------------------------------------------------
    # Write buffer drain
    # ------------------------------------------------------------------

    def _kick_write_buffer(self) -> None:
        if self._wb_draining or self.write_buffer.empty:
            return
        head = self.write_buffer.head()
        head.draining = True
        self._wb_draining = True
        self.mem.store(self.core_id, head.line, self._on_store_performed)

    def _on_store_performed(self, _cycle: int) -> None:
        self._wake_pending = True
        self.write_buffer.pop()
        self.stats.bump("stores_performed")
        self._wb_draining = False
        self._kick_write_buffer()

    # ------------------------------------------------------------------
    # Progress reporting
    # ------------------------------------------------------------------

    @property
    def retired(self) -> int:
        return self.retired_count

    def debug_state(self) -> Dict[str, Any]:
        """Structured snapshot of the stall-relevant core state, used by
        ``System.diagnostic_dump`` when the deadlock detector fires."""

        def entry_state(entry: Optional[ROBEntry]) -> Optional[Dict[str, Any]]:
            if entry is None:
                return None
            return {
                "index": entry.index,
                "opclass": entry.uop.opclass.value,
                "line": entry.line,
                "issued": entry.issued,
                "complete": entry.complete,
                "addr_ready": entry.addr_ready,
                "outstanding": entry.outstanding,
                "performed": entry.performed,
                "pinned": entry.pinned,
                "mcv_safe": entry.mcv_safe,
                "parked": entry.parked,
                "vp_reached": entry.vp_cycle is not None,
            }

        return {
            "core": self.core_id,
            "done": self.done,
            "retired": self.retired_count,
            "cursor": self._cursor,
            "trace_len": self._trace_len,
            "fetch_resume": self._fetch_resume,
            "rob_occupancy": len(self.rob),
            "rob_head": entry_state(self.rob.head()),
            "oldest_load": entry_state(self.lq.oldest()),
            "ready": len(self._ready),
            "waiting_loads": len(self._waiting_loads),
            "lp_parked": len(self._lp_parked),
            "write_buffer": len(self.write_buffer),
            "wb_draining": self._wb_draining,
            "wb_backpressure": self.write_buffer.backpressure,
            "pinned_total": self.controller.pinned_total,
            "cpt_occupancy": len(self.controller.cpt),
        }

    def __repr__(self) -> str:
        return (f"Core(id={self.core_id}, retired={self.retired}, "
                f"cursor={self._cursor}/{len(self.trace)})")
