"""The Pinned Loads controller: Late and Early Pinning (paper §5).

The pin chain (``repro.sim.engine``'s ``_make_controller_tick``) walks
the load queue in program order each cycle and tries to make the first
not-yet-MCV-safe load safe; this class holds the pinning state and the
pin, deny and Early Pinning steps the chain calls.  A load becomes
MCV-safe by:

* the oldest-load exemption — under the aggressive TSO implementation the
  oldest load in the ROB can never be MCV-squashed (§3.3), so it passes the
  VP downstream without consuming pin resources;
* **pinning** — guaranteeing its line can be neither invalidated (deferral,
  §5.1.1) nor evicted (denial, §5.1.3) until retirement.

A load may be pinned only if (paper invariants):

1. it has met every VP condition except no-MCV (branches resolved, no
   aliasing window, no exception risk, own address generated);
2. all older loads are already MCV-safe (strict program-order pinning);
3. no older MFENCE / LOCK / barrier is in flight;
4. the write buffer can hold every yet-to-complete older store (§5.1.2);
5. its line is not in the Cannot-Pin Table, and the CPT has not overflowed;
6. *Early Pinning only*: the L1 CST and the directory/LLC CST both grant
   space (§5.1.4) — then the load is pinned even before issuing;
7. *Late Pinning only*: the load's data response has arrived, proving the
   caches had space (§5.2.1).

LQ IDs are allocated from a wide tag (24 bits by default); on wraparound
the chain drains — stops pinning until every pinned load retires — then
clears the CSTs and restarts (§6.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.common.params import PinningMode
from repro.common.stats import StatSet
from repro.core.rob import ROBEntry
from repro.pinning.cpt import CannotPinTable
from repro.pinning.cst import CacheShadowTable
from repro.pinning.recording import L1TagPinRecord


class PinnedLoadsController:
    """Per-core pinning logic shared by the LP and EP designs.

    Quiet/wakeup contract (the engine's quiet probe,
    ``repro.sim.engine``): the pin chain is a pure function of state
    that only changes through event-mediated or flagged transitions —
    coherence messages (CPT inserts/clears, invalidations), fills (LP
    data arrival), retires and squashes (releases, write-buffer and
    serializing windows), and dispatches (LQ ID allocation).  Every one
    of those re-arms the core's ``_wake_pending`` flag, so the run loop
    may skip the chain whenever the flag is clear: rerunning it on
    unchanged state denies the same load for the same reason and pins
    nothing.  Denial statistics are therefore counted per *episode* —
    once per (load, reason) — never per retry tick, so they are
    identical whether the chain reruns every cycle (the never-skip
    build) or only on wakeups (the fast-forward).
    """

    # "__dict__" stays in the slots: the opt-in invariant sanitizer
    # shadows ``_pin``/``_unpin`` on the instance
    __slots__ = (
        "core", "config", "params", "mode", "stats", "cpt",
        "l1_tag_record", "_lq_id_limit", "_next_lq_id", "_live_lq",
        "_draining", "_pinned_counts", "pinned_total", "_l1_set_lines",
        "_dir_set_lines", "_cst_denied_seen", "_denied_reasons",
        "l1_cst", "dir_cst", "__dict__",
    )

    def __init__(self, core) -> None:
        self.core = core
        self.config = core.config
        self.params = core.config.pinning
        self.mode: PinningMode = self.params.mode
        self.stats = StatSet()
        self.cpt = CannotPinTable(
            self.params.cpt_entries, ideal=self.params.ideal_cpt,
            reservation_queue=self.params.cpt_reservation_queue)
        self.l1_tag_record = (L1TagPinRecord()
                              if self.params.pin_record == "l1tag" else None)
        self._lq_id_limit = 1 << self.params.lq_id_tag_bits
        self._next_lq_id = 0
        self._live_lq: Dict[int, ROBEntry] = {}
        self._draining = False
        self._pinned_counts: Dict[int, int] = {}
        self.pinned_total = 0
        # ground truth for CST false-positive accounting (§9.2.1)
        self._l1_set_lines: Dict[int, Set[int]] = {}
        self._dir_set_lines: Dict[Tuple[int, int], Set[int]] = {}
        # loads whose CST denial was already counted (a denied pin retries
        # every cycle; stats count denial *episodes*, not retries)
        self._cst_denied_seen: Set[int] = set()
        # same episode rule for the pin-chain denial reasons, keyed by
        # LQ ID: retry counts would depend on how often the chain runs,
        # which the optimized loop deliberately reduces
        self._denied_reasons: Dict[int, Set[str]] = {}
        self.l1_cst = CacheShadowTable(
            self.params.l1_cst_entries, self.params.l1_cst_records,
            self._live_line_of, infinite=self.params.infinite_cst)
        self.dir_cst = CacheShadowTable(
            self.params.dir_cst_entries, self.params.dir_cst_records,
            self._live_line_of, infinite=self.params.infinite_cst)

    # ------------------------------------------------------------------
    # LQ ID management (wide tag + wraparound drain)
    # ------------------------------------------------------------------

    def _live_line_of(self, lq_id: int) -> Optional[int]:
        """CST staleness check: line pinned under this LQ ID, or None."""
        entry = self._live_lq.get(lq_id)
        if entry is None or not entry.pinned:
            return None
        return entry.line

    def on_load_dispatch(self, entry: ROBEntry) -> None:
        if self.mode is PinningMode.NONE:
            return
        if self._next_lq_id >= self._lq_id_limit:
            self._draining = True
            self.stats.bump("lq_id_wraparounds")
            self._next_lq_id = 0
        while self._next_lq_id in self._live_lq:
            self._next_lq_id += 1
        entry.lq_id = self._next_lq_id
        self._live_lq[self._next_lq_id] = entry
        self._next_lq_id += 1

    def _release(self, entry: ROBEntry) -> None:
        lq_id = entry.lq_id
        if lq_id is not None:
            self._live_lq.pop(lq_id, None)
            self._cst_denied_seen.discard(lq_id)
            self._denied_reasons.pop(lq_id, None)
        if entry.pinned:
            self._unpin(entry)

    def on_load_retire(self, entry: ROBEntry) -> None:
        self._release(entry)

    def on_load_squash(self, entry: ROBEntry) -> None:
        if entry.pinned:
            # a pinned load is unsquashable by construction; this counter
            # must stay at zero (asserted by the test suite)
            self.stats.bump("pinned_squashed")
        self._release(entry)

    # ------------------------------------------------------------------
    # Pin/unpin bookkeeping
    # ------------------------------------------------------------------

    def has_pinned(self, line: int) -> bool:
        return line in self._pinned_counts

    def _pin(self, entry: ROBEntry) -> None:
        line = entry.line
        entry.pinned = True
        entry.mcv_safe = True
        count = self._pinned_counts.get(line, 0)
        self._pinned_counts[line] = count + 1
        self.pinned_total += 1
        self.stats.bump("pins")
        if self.l1_tag_record is not None:
            in_l1 = self.core.mem.l1_hit(self.core.core_id, line)
            self.l1_tag_record.on_pin(line, entry.lq_id, line_in_l1=in_l1)
        if count == 0:
            mem = self.core.mem
            self._l1_set_lines.setdefault(mem.l1_set_of(line), set()).add(line)
            self._dir_set_lines.setdefault(mem.slice_and_set_of(line),
                                           set()).add(line)
        self.core.note_vp_reached(entry)

    def _unpin(self, entry: ROBEntry) -> None:
        line = entry.line
        entry.pinned = False
        if self.l1_tag_record is not None:
            self.l1_tag_record.on_unpin(line, entry.lq_id)
        remaining = self._pinned_counts.get(line, 0) - 1
        self.pinned_total -= 1
        if remaining <= 0:
            self._pinned_counts.pop(line, None)
            mem = self.core.mem
            lines = self._l1_set_lines.get(mem.l1_set_of(line))
            if lines is not None:
                lines.discard(line)
            lines = self._dir_set_lines.get(mem.slice_and_set_of(line))
            if lines is not None:
                lines.discard(line)
        else:
            self._pinned_counts[line] = remaining

    # ------------------------------------------------------------------
    # Pin-chain steps
    # ------------------------------------------------------------------

    def _deny(self, load: ROBEntry, reason: str) -> None:
        """Count a pin-chain denial once per (load, reason) episode.  A
        denied pin retries on every chain run; how often the chain runs
        depends on the fast-forward (every cycle in the never-skip build,
        wakeups only otherwise), so per-retry counts would not be
        invariant under it."""
        reasons = self._denied_reasons.setdefault(load.lq_id, set())
        if reason not in reasons:
            reasons.add(reason)
            self.stats.bump(reason)

    def _write_buffer_ok(self, load: ROBEntry) -> bool:
        """§5.1.2: every yet-to-complete store older than the load must fit
        in the write buffer, or the Figure 4 deadlock becomes possible.
        The SQ is program-ordered, so the older-store count stops at the
        first younger store.  The chain inlines this test; the
        sanitizer's ``pin-wb`` invariant checks each pin against it."""
        index = load.index
        older_sq_stores = 0
        for store in self.core.sq:
            if store.index >= index:
                break
            older_sq_stores += 1
        write_buffer = self.core.write_buffer
        return older_sq_stores + len(write_buffer._entries) \
            <= write_buffer.capacity

    # -- Early Pinning -------------------------------------------------

    def _early_pin(self, load: ROBEntry) -> bool:
        line = load.line
        mem = self.core.mem
        l1_set = mem.l1_set_of(line)
        slice_id, dir_set = mem.slice_and_set_of(line)
        # linear placement keys: regular set strides rotate uniformly
        # through the CST entries (see cst._hash_key)
        dir_key = dir_set * self.config.num_slices + slice_id
        if not self.l1_cst.try_pin(line, l1_set, load.lq_id):
            self._account_false_positive(
                load, "l1", self._l1_set_lines.get(l1_set, ()), line,
                self.config.l1d.ways)
            return False
        if not self.dir_cst.try_pin(line, dir_key, load.lq_id):
            self.l1_cst.cancel(line, l1_set, load.lq_id)
            self._account_false_positive(
                load, "dir", self._dir_set_lines.get((slice_id, dir_set),
                                                     ()),
                line, self.params.w_d)
            return False
        self._cst_denied_seen.discard(load.lq_id)
        self.stats.bump("cst_pin_episodes")
        self._pin(load)
        return True

    def _account_false_positive(self, load: ROBEntry, which: str,
                                pinned_lines, line: int,
                                capacity: int) -> None:
        """A CST denial is a false positive when the real structure still
        has room (or already holds the line) — §9.2.1's metric.  Counted
        once per denial episode (a denied pin retries every cycle)."""
        if load.lq_id in self._cst_denied_seen:
            return
        self._cst_denied_seen.add(load.lq_id)
        self.stats.bump(f"cst_{which}_denials")
        if line in pinned_lines or len(pinned_lines) < capacity:
            self.stats.bump(f"cst_{which}_false_positives")

    # -- Late Pinning ----------------------------------------------------

    def on_pinned_fill(self, load: ROBEntry) -> None:
        """An already-pinned load's data arrived: in the §6.1.2 design the
        MSHR's Pinned bit is copied into the L1 tag."""
        if self.l1_tag_record is not None:
            self.l1_tag_record.on_fill(load.line)

    def lp_data_arrived(self, load: ROBEntry) -> bool:
        """A Late-Pinning-authorized load's data arrived.  Pin it if the
        CPT still allows; otherwise the core parks the load (the data is in
        the L1 but is not consumed until the pin succeeds)."""
        if self._draining or self.cpt.pinning_blocked \
                or load.line in self.cpt:
            self.stats.bump("lp_pin_deferred_on_arrival")
            return False
        self._pin(load)
        return True

    # ------------------------------------------------------------------
    # CorePort delegation
    # ------------------------------------------------------------------

    def cpt_insert(self, line: int, writer: Optional[int] = None) -> None:
        self.cpt.insert(line, writer=writer)

    def cpt_clear(self, line: int) -> None:
        self.cpt.remove(line)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def false_positive_rate(self, which: str) -> float:
        """False-positive denial episodes per pin episode (§9.2.1)."""
        episodes = (self.stats["cst_pin_episodes"]
                    + self.stats["cst_l1_denials"]
                    + self.stats["cst_dir_denials"])
        if not episodes:
            return 0.0
        return self.stats[f"cst_{which}_false_positives"] / episodes
