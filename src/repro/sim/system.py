"""System assembly and the main simulation loop."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.params import SystemConfig
from repro.core.pipeline import Core, RetireProgress
from repro.isa.trace import Workload
from repro.mem.coherence import CoherentMemory


class BarrierManager:
    """Global rendezvous for BARRIER uops in multithreaded workloads.

    A barrier releases once every participating core has arrived; arrival
    happens when the barrier uop reaches the head of its core's ROB, so a
    released barrier can never be squashed.  A released barrier's arrival
    set is dropped immediately — only the (tiny) set of released ids is
    retained for the rest of the run, so memory stays bounded by the
    number of *distinct* barriers, not by arrivals.

    A release re-arms every core's ``_wake_pending`` flag: the release
    happens synchronously inside the *last* arriving core's retire stage
    (not through the event queue), so it is exactly the kind of
    cross-core mutation the quiet/wakeup contract requires to be
    flagged.  The multi-core loop relies on this to skip ticks of cores
    parked on a notified barrier (``repro.sim.engine``).
    """

    __slots__ = ("num_cores", "_arrived", "_released", "_cores")

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._arrived: Dict[int, Set[int]] = {}
        self._released: Set[int] = set()
        self._cores: List[Core] = []   # backref, set by System.__init__

    def arrive(self, barrier_id: int, core_id: int) -> None:
        if barrier_id in self._released:
            return
        arrived = self._arrived.setdefault(barrier_id, set())
        arrived.add(core_id)
        if len(arrived) >= self.num_cores:
            self._released.add(barrier_id)
            del self._arrived[barrier_id]
            for core in self._cores:
                core._wake_pending = True

    def released(self, barrier_id: int) -> bool:
        return barrier_id in self._released


class System:
    """A configured multicore machine bound to one workload."""

    def __init__(self, config: SystemConfig, workload: Workload) -> None:
        config.validate()
        if workload.num_threads != config.num_cores:
            raise ConfigError(
                f"workload has {workload.num_threads} threads but the "
                f"system has {config.num_cores} cores")
        self.config = config
        self.workload = workload
        self.events = EventQueue()
        self.mem = CoherentMemory(config, self.events)
        self.barriers = BarrierManager(config.num_cores)
        self.progress = RetireProgress()
        self.cores: List[Core] = [
            Core(core_id, config, trace, self.mem, self.events,
                 self.barriers, progress=self.progress)
            for core_id, trace in enumerate(workload.traces)]
        self.barriers._cores = self.cores
        self.cycles = 0
        self.sanitizer: Optional["Sanitizer"] = None
        if config.sanitize:
            # deferred import: the verify subsystem is optional tooling
            from repro.verify.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self)
            self.sanitizer.attach()
        self.chaos = None
        if config.chaos is not None:
            # deferred import: fault injection is optional tooling
            from repro.chaos.engine import ChaosEngine
            self.chaos = ChaosEngine(config.chaos, self)
            if self.sanitizer is not None:
                # wrap before install so even the first scheduled fault
                # event goes through the trace-recording shims
                self.sanitizer.attach_chaos(self.chaos)
            self.chaos.install()

    def run(self, max_cycles: int = 50_000_000) -> int:
        """Run to completion of every trace; returns the cycle reached.

        Every configuration runs on the struct-of-arrays engine
        (``repro.sim.engine``), sanitized, transient and InvisiSpec
        systems included.  The engine is built here, after the
        sanitizer and chaos wrappers are in place, and not kept: a
        finished system never ticks again.  A sanitized system never
        fast-forwards, and every other run must match it counter for
        counter
        (``tests/test_soa_parity.py``); ``GOLDEN_STATS.json`` pins the
        counters themselves (``tests/test_golden_stats.py``).
        """
        from repro.sim.engine import build_engine
        cycle = build_engine(self).run(max_cycles)
        if self.sanitizer is not None:
            self.sanitizer.finish()
        return cycle

    @property
    def total_retired(self) -> int:
        return sum(core.retired for core in self.cores)

    @property
    def done(self) -> bool:
        """Every trace has fully retired (nothing left to simulate)."""
        return all(core.done for core in self.cores)

    def diagnostic_dump(self, cycle: Optional[int] = None) -> Dict:
        """Structured snapshot of the stuck machine, attached
        to ``DeadlockError`` so postmortems don't need a rerun: per-core
        ROB head and oldest-load state, the earliest pending events, and
        pin/CPT occupancy (inside each core's ``debug_state``)."""
        return {
            "cycle": self.cycles if cycle is None else cycle,
            "retired_total": self.total_retired,
            "pending_events": self.events.pending_summary(),
            "busy_lines": [hex(line)
                           for line in sorted(self.mem._busy_lines)],
            "cores": [core.debug_state() for core in self.cores],
        }
