"""The fault-injection engine behind ``SystemConfig.chaos``.

``ChaosEngine`` hooks into one ``System`` at three seams:

* ``MeshNetwork.send`` consults ``message_jitter`` — random extra
  latency on a fraction of messages, which also *reorders* same-cycle
  protocol messages within a bounded window;
* the directory entry points (``_dir_read``/``_dir_write``) consult
  ``nack_delay`` — a NACK-and-retry discipline with capped exponential
  backoff and a livelock escape hatch after ``max_nacks`` consecutive
  NACKs;
* self-rescheduling events on the simulation's own ``EventQueue`` drive
  forced evictions of *unpinned* lines and write-buffer backpressure
  spikes (scheduling on the queue keeps ``System.run``'s quiet-cycle
  fast-forward sound: a pending chaos event always bounds the skip).

Every random draw comes from one ``random.Random(config.seed)``, so a
chaos run is a pure function of (config, workload): same seed, same
faults, same cycle count.  Different seeds must still retire the same
instruction stream — the campaign (``repro.chaos.campaign``) asserts
exactly that.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.common.params import ChaosConfig


class ChaosEngine:
    """Seeded fault injector bound to one ``System``."""

    # "__dict__" is for the sanitizer, which shadows the fault methods
    # with recording wrappers
    __slots__ = ("config", "system", "rng", "_nack_counts",
                 "_evict_l1_next", "__dict__")

    def __init__(self, config: ChaosConfig, system) -> None:
        config.validate()
        self.config = config
        self.system = system
        self.rng = random.Random(config.seed)
        #: consecutive-NACK count per (kind, core, line); cleared when a
        #: request is finally admitted so backoff restarts per episode
        self._nack_counts: Dict[Tuple[str, int, int], int] = {}
        self._evict_l1_next = True

    def install(self) -> None:
        """Attach to the system's memory/network hooks and schedule the
        first self-rescheduling fault events."""
        mem = self.system.mem
        mem.chaos = self
        mem.network.chaos = self
        events = self.system.events
        cfg = self.config
        if cfg.evict_interval:
            events.schedule_after(cfg.evict_interval, self._evict_tick)
        if cfg.wb_spike_interval:
            events.schedule_after(cfg.wb_spike_interval,
                                  self._wb_spike_start)

    # ------------------------------------------------------------------
    # Hooks consulted by the memory system
    # ------------------------------------------------------------------

    def message_jitter(self, src: int, dst: int, kind: str) -> int:
        """Extra cycles of latency for one network message (0 = none)."""
        cfg = self.config
        if cfg.msg_jitter and self.rng.random() < cfg.msg_jitter_prob:
            return self.rng.randint(1, cfg.msg_jitter)
        return 0

    def nack_delay(self, kind: str, core_id: int, line: int) -> int:
        """Cycles the directory NACKs this request for (0 = admitted).

        Consecutive NACKs of the same (kind, core, line) back off
        exponentially from ``nack_backoff`` up to ``nack_backoff_cap``;
        after ``max_nacks`` consecutive NACKs the request is admitted
        unconditionally, so retry storms cannot livelock the protocol.
        """
        cfg = self.config
        key = (kind, core_id, line)
        count = self._nack_counts.get(key, 0)
        if count >= cfg.max_nacks or self.rng.random() >= cfg.nack_prob:
            if count:
                del self._nack_counts[key]
            return 0
        self._nack_counts[key] = count + 1
        return min(cfg.nack_backoff << count, cfg.nack_backoff_cap)

    # ------------------------------------------------------------------
    # Self-rescheduling fault events
    # ------------------------------------------------------------------

    def _evict_tick(self) -> None:
        if self._evict_l1_next:
            self._force_l1_eviction()
        else:
            self._force_llc_eviction()
        self._evict_l1_next = not self._evict_l1_next
        self.system.events.schedule_after(self.config.evict_interval,
                                          self._evict_tick)

    def _force_l1_eviction(self) -> None:
        """Evict one random unpinned L1 line through the normal capacity
        eviction path (so the sanitizer observes it and the MCV-squash
        check fires, §2).  Lines mid-transaction are off limits: a busy
        line has a write completing and an MSHR line has a fill in
        flight — evicting either would desync directory and L1 in ways
        no real victim pick can.

        Under the ``evict-pinned`` mutation the filter is inverted —
        only *pinned* lines are targeted, which violates the paper's
        §5.1.3 guarantee and MUST be flagged by the sanitizer (campaign
        self-test).
        """
        mem = self.system.mem
        core_id = self.rng.randrange(len(mem.l1s))
        port = mem.ports[core_id]
        busy = mem._busy_lines
        mshrs = mem.mshrs[core_id]
        want_pinned = self.config.mutate == "evict-pinned"

        def evictable(line: int) -> bool:
            if line in busy or mshrs.outstanding(line) is not None:
                return False
            return port.has_pinned(line) == want_pinned

        victim = mem.l1s[core_id].sample_resident_line(self.rng, evictable)
        if victim is None:
            return
        mem.stats.bump("chaos_forced_evictions")
        mem._evict_l1(core_id, victim)

    def _force_llc_eviction(self) -> None:
        """Back-invalidate one random LLC line that nobody has pinned,
        exercising the inclusive-eviction path (§5.1.3) off the normal
        replacement schedule.  Skips busy lines and any line with an
        outstanding MSHR in *any* core: an in-flight fill expects the
        directory entry it was granted against to still exist.
        """
        mem = self.system.mem
        slice_id = self.rng.randrange(mem.num_slices)
        slice_array = mem.slices[slice_id]
        busy = mem._busy_lines

        def evictable(line: int) -> bool:
            if line in busy or mem._line_pinned_anywhere(line):
                return False
            return all(m.outstanding(line) is None for m in mem.mshrs)

        victim = slice_array.sample_resident_line(self.rng, evictable)
        if victim is None:
            return
        dir_entry = slice_array.lookup(victim, touch=False)
        for holder in sorted(dir_entry.holders()):
            if mem.l1s[holder].invalidate(victim):
                mem.network.send(slice_id, holder, "back_inv")
                mem.ports[holder].on_line_evicted(victim)
        slice_array.invalidate(victim)
        mem.stats.bump("llc_evictions")
        mem.stats.bump("chaos_forced_evictions")

    def _wb_spike_start(self) -> None:
        cfg = self.config
        cores = self.system.cores
        core = cores[self.rng.randrange(len(cores))]
        if not core.done:
            core.write_buffer.backpressure = True
            self.system.mem.stats.bump("chaos_wb_spikes")
            self.system.events.schedule_after(
                max(1, cfg.wb_spike_duration), self._wb_spike_end,
                core.core_id)
        self.system.events.schedule_after(cfg.wb_spike_interval,
                                          self._wb_spike_start)

    def _wb_spike_end(self, core_id: int) -> None:
        self.system.cores[core_id].write_buffer.backpressure = False
