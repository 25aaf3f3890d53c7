"""STT taint tracking and Visibility-Point condition evaluation."""

import dataclasses

from repro.common.params import (COMPREHENSIVE, DefenseKind, PinningMode,
                                 SystemConfig, ThreatModel)
from repro.core.rob import ReorderBuffer, ROBEntry
from repro.isa.compiled import compile_trace
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.security.threat import (VPState, conditions_before_mcv,
                                   first_blocking_condition, vp_reached)
from repro.sim.engine import _make_dispatch, _TraceView
from repro.sim.system import System


def entry_for(uop):
    return ROBEntry(uop, pending_deps=0, dispatch_cycle=0)


def stt_core(*uops):
    """A 1-wide STT core over a tiny trace, and the engine's dispatch
    closure for it: each call dispatches the next uop, writing its
    taint roots."""
    base = SystemConfig().with_defense(DefenseKind.STT, COMPREHENSIVE,
                                       PinningMode.NONE)
    config = dataclasses.replace(
        base, core=dataclasses.replace(base.core, width=1))
    workload = Workload([Trace(list(uops), name="taint-t0")], name="taint")
    core = System(config, workload).cores[0]
    view = _TraceView(core, compile_trace(core.trace))
    return core, _make_dispatch(core, view)


class TestTaintTracker:
    """Roots as the engine's dispatch writes them; liveness as
    ``TaintTracker`` reads it."""

    def _dispatched(self, *uops):
        core, dispatch = stt_core(*uops)
        for _ in uops:
            dispatch()
        return core

    def test_load_output_rooted_at_itself(self):
        core = self._dispatched(MicroOp(0, OpClass.LOAD, addr=0x40))
        assert core.taint.output_roots(0) == frozenset({0})

    def test_alu_unions_operand_roots(self):
        core = self._dispatched(MicroOp(0, OpClass.LOAD, addr=0x40),
                                MicroOp(1, OpClass.LOAD, addr=0x80),
                                MicroOp(2, OpClass.INT_ALU, deps=(0, 1)))
        assert core.taint.output_roots(2) == frozenset({0, 1})

    def test_load_with_tainted_address_is_blocked(self):
        core = self._dispatched(
            MicroOp(0, OpClass.LOAD, addr=0x40),
            MicroOp(1, OpClass.LOAD, deps=(0,), addr=0x80))
        assert core.taint.addr_tainted(core.rob.find(1))

    def test_untainted_when_producer_reaches_vp(self):
        core = self._dispatched(
            MicroOp(0, OpClass.LOAD, addr=0x40),
            MicroOp(1, OpClass.LOAD, deps=(0,), addr=0x80))
        core.rob.find(0).vp_cycle = 10
        assert not core.taint.addr_tainted(core.rob.find(1))

    def test_untainted_when_producer_retired(self):
        core = self._dispatched(
            MicroOp(0, OpClass.LOAD, addr=0x40),
            MicroOp(1, OpClass.LOAD, deps=(0,), addr=0x80))
        producer = core.rob.find(0)
        consumer = core.rob.find(1)
        assert core.taint.addr_tainted(consumer)
        assert core.rob.pop_head() is producer    # retire the producer
        assert not core.taint.addr_tainted(consumer)

    def test_taint_propagates_through_alu_chain(self):
        core = self._dispatched(
            MicroOp(0, OpClass.LOAD, addr=0x40),
            MicroOp(1, OpClass.INT_ALU, deps=(0,)),
            MicroOp(2, OpClass.INT_ALU, deps=(1,)),
            MicroOp(3, OpClass.LOAD, deps=(2,), addr=0xC0))
        assert core.taint.addr_tainted(core.rob.find(3))

    def test_load_with_untainted_operands_free(self):
        core = self._dispatched(
            MicroOp(0, OpClass.INT_ALU),
            MicroOp(1, OpClass.LOAD, deps=(0,), addr=0x80))
        assert not core.taint.addr_tainted(core.rob.find(1))

    def test_post_vp_roots_pruned_at_dispatch(self):
        core, dispatch = stt_core(MicroOp(0, OpClass.LOAD, addr=0x40),
                                  MicroOp(1, OpClass.INT_ALU, deps=(0,)))
        dispatch()
        core.rob.find(0).vp_cycle = 5
        dispatch()
        assert core.rob.find(1) is not None
        assert core.taint.output_roots(1) == frozenset()


class TestVPConditions:
    def setup_method(self):
        self.rob = ReorderBuffer(capacity=32)
        self.vp = VPState()

    def _load(self, index, addr_ready=True):
        entry = entry_for(MicroOp(index, OpClass.LOAD, addr=0x40))
        entry.addr_ready = addr_ready
        self.rob.push(entry)
        self.vp.unretired_loads.add(index)
        return entry

    def test_own_address_required_at_every_level(self):
        load = self._load(5, addr_ready=False)
        assert not conditions_before_mcv(load, ThreatModel.CTRL.level,
                                         self.vp)

    def test_ctrl_blocked_by_older_unresolved_branch(self):
        load = self._load(5)
        self.vp.unresolved_branches.add(3)
        assert not vp_reached(load, ThreatModel.CTRL, PinningMode.NONE,
                              self.vp, self.rob)
        self.vp.unresolved_branches.discard(3)
        assert vp_reached(load, ThreatModel.CTRL, PinningMode.NONE,
                          self.vp, self.rob)

    def test_younger_branch_is_irrelevant(self):
        load = self._load(5)
        self.vp.unresolved_branches.add(9)
        assert vp_reached(load, ThreatModel.CTRL, PinningMode.NONE,
                          self.vp, self.rob)

    def test_alias_level_adds_store_address_window(self):
        load = self._load(5)
        self.vp.unknown_addr_stores.add(2)
        assert vp_reached(load, ThreatModel.CTRL, PinningMode.NONE,
                          self.vp, self.rob)
        assert not vp_reached(load, ThreatModel.ALIAS, PinningMode.NONE,
                              self.vp, self.rob)

    def test_except_level_adds_memop_translation_window(self):
        load = self._load(5)
        self.vp.unknown_addr_memops.add(1)
        assert vp_reached(load, ThreatModel.ALIAS, PinningMode.NONE,
                          self.vp, self.rob)
        assert not vp_reached(load, ThreatModel.EXCEPT, PinningMode.NONE,
                              self.vp, self.rob)

    def test_mcv_level_requires_oldest_load_without_pinning(self):
        older = self._load(3)
        load = self._load(5)
        assert not vp_reached(load, ThreatModel.MCV, PinningMode.NONE,
                              self.vp, self.rob)
        assert vp_reached(older, ThreatModel.MCV, PinningMode.NONE,
                          self.vp, self.rob)

    def test_mcv_level_with_pinning_reads_mcv_safe(self):
        self._load(3)
        load = self._load(5)
        assert not vp_reached(load, ThreatModel.MCV, PinningMode.EARLY,
                              self.vp, self.rob)
        load.mcv_safe = True
        assert vp_reached(load, ThreatModel.MCV, PinningMode.EARLY,
                          self.vp, self.rob)

    def test_conservative_tso_requires_rob_head(self):
        load = self._load(3)
        blocker = entry_for(MicroOp(4, OpClass.INT_ALU))
        self.rob.push(blocker)
        assert vp_reached(load, ThreatModel.MCV, PinningMode.NONE,
                          self.vp, self.rob, aggressive_tso=False)
        # a load behind another instruction is not at the head
        younger = self._load(6)
        self.vp.unretired_loads.discard(3)
        self.rob.pop_head()
        assert not vp_reached(younger, ThreatModel.MCV, PinningMode.NONE,
                              self.vp, self.rob, aggressive_tso=False)

    def test_first_blocking_condition_diagnoses(self):
        load = self._load(5, addr_ready=False)
        assert first_blocking_condition(load, self.vp) == "addr"
        load.addr_ready = True
        self.vp.unresolved_branches.add(1)
        assert first_blocking_condition(load, self.vp) == "ctrl"
        self.vp.unresolved_branches.discard(1)
        self.vp.unknown_addr_stores.add(2)
        assert first_blocking_condition(load, self.vp) == "alias"
        self.vp.unknown_addr_stores.discard(2)
        self.vp.unknown_addr_memops.add(2)
        assert first_blocking_condition(load, self.vp) == "exception"
        self.vp.unknown_addr_memops.discard(2)
        self._load(3)
        assert first_blocking_condition(load, self.vp) == "mcv"
        self.vp.unretired_loads.discard(3)
        assert first_blocking_condition(load, self.vp) is None
