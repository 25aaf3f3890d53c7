"""Pin-chain unit tests against a minimal fake core.

These isolate the §5 pinning rules from pipeline timing: program-order
pinning, the oldest-load exemption, the write-buffer check, CPT blocking,
LQ-ID wraparound draining, and Late Pinning's pin-on-arrival handshake.
Each ``tick`` runs the engine's pin chain (``_make_controller_tick``)
over the fake core's queues and controller.
"""

from repro.common.params import (CoreParams, PinnedLoadsParams, PinningMode,
                                 SystemConfig)
from repro.core.lsq import LoadQueue, StoreQueue
from repro.core.rob import ColumnState, ROBEntry
from repro.isa.uops import MicroOp, OpClass
from repro.mem.writebuffer import WriteBuffer
from repro.pinning.controller import PinnedLoadsController
from repro.security.threat import VPState
from repro.sim.engine import _make_controller_tick


class FakeMem:
    def l1_set_of(self, line):
        return line & 63

    def slice_and_set_of(self, line):
        return (line % 8, line & 2047)


class FakeCore:
    """Just enough of the Core surface for the controller."""

    def __init__(self, mode, **pin_kw):
        self.config = SystemConfig(
            core=CoreParams(write_buffer_entries=4),
            pinning=PinnedLoadsParams(mode=mode, **pin_kw))
        self.lq = LoadQueue(16)
        self.sq = StoreQueue(16)
        self.write_buffer = WriteBuffer(4)
        self.vp_state = VPState()
        self.mem = FakeMem()
        # one column block for every load and store; slot = index
        self.cols = ColumnState(64)
        self._flags = self.cols.flags
        self.vp_notes = []
        self.issue_requests = []

    def note_vp_reached(self, entry):
        if entry.vp_cycle is None:
            entry.vp_cycle = 1
            self.vp_notes.append(entry.index)

    def issue_load_for_pinning(self, entry):
        self.issue_requests.append(entry.index)
        entry.outstanding = True
        self.note_vp_reached(entry)


def tick(ctl):
    """One run of the engine's pin chain over the fake core."""
    ctl.core.controller = ctl
    _make_controller_tick(ctl.core)()


def make_load(core, controller, index, line, addr_ready=True,
              performed=False):
    uop = MicroOp(index, OpClass.LOAD, addr=line * 64)
    entry = ROBEntry(uop, 0, 0, cols=core.cols, slot=index)
    entry.addr_ready = addr_ready
    entry.performed = performed
    core.lq.allocate(entry)
    core.vp_state.unretired_loads.add(index)
    controller.on_load_dispatch(entry)
    return entry


class TestProgramOrderPinning:
    def test_oldest_load_exempt_then_chain_pins(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        first = make_load(core, ctl, 0, line=10)
        second = make_load(core, ctl, 1, line=20)
        tick(ctl)
        assert first.mcv_safe and not first.pinned   # exemption, no pin
        assert second.mcv_safe and second.pinned
        assert ctl.stats["oldest_exemptions"] == 1
        assert ctl.stats["pins"] == 1

    def test_chain_stops_at_unready_load(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=10)
        blocked = make_load(core, ctl, 1, line=20, addr_ready=False)
        younger = make_load(core, ctl, 2, line=30)
        tick(ctl)
        assert not blocked.mcv_safe
        assert not younger.mcv_safe    # strict program order

    def test_unresolved_older_branch_blocks_pinning(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        load = make_load(core, ctl, 5, line=10)
        core.vp_state.unresolved_branches.add(2)
        tick(ctl)
        assert not load.mcv_safe
        core.vp_state.unresolved_branches.discard(2)
        tick(ctl)
        assert load.mcv_safe

    def test_serializing_op_blocks_younger_pins(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        core.vp_state.serializing.add(3)
        load = make_load(core, ctl, 5, line=10)
        tick(ctl)
        assert not load.mcv_safe
        assert ctl.stats["pin_denied_serializing"] >= 1

    def test_forwarded_load_trivially_safe(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        load = make_load(core, ctl, 0, line=10, performed=True)
        load.forwarded = True
        younger = make_load(core, ctl, 1, line=20)
        tick(ctl)
        assert load.mcv_safe and not load.pinned
        assert younger.mcv_safe


class TestWriteBufferCheck:
    def _store(self, core, index):
        uop = MicroOp(index, OpClass.STORE, addr=index * 64)
        entry = ROBEntry(uop, 0, 0, cols=core.cols, slot=index)
        core.sq.allocate(entry)
        return entry

    def test_too_many_older_stores_deny_pinning(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)    # oldest: exempt
        for i in range(1, 6):
            self._store(core, i)            # 5 stores > 4 WB entries
        load = make_load(core, ctl, 6, line=10)
        tick(ctl)
        assert not load.pinned
        assert ctl.stats["pin_denied_wb"] >= 1

    def test_wb_occupancy_counts_too(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        for line in range(3):
            core.write_buffer.push(line)    # 3 in WB
        for i in range(1, 3):
            self._store(core, i)            # + 2 in SQ = 5 > 4
        load = make_load(core, ctl, 6, line=10)
        tick(ctl)
        assert not load.pinned


class TestCPTInteraction:
    def test_cpt_line_cannot_be_pinned(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        load = make_load(core, ctl, 1, line=10)
        ctl.cpt_insert(10)
        tick(ctl)
        assert not load.pinned
        assert ctl.stats["pin_denied_cpt"] >= 1
        ctl.cpt_clear(10)
        tick(ctl)
        assert load.pinned

    def test_cpt_overflow_blocks_all_pinning(self):
        core = FakeCore(PinningMode.EARLY, cpt_entries=1)
        ctl = PinnedLoadsController(core)
        ctl.cpt_insert(50)
        ctl.cpt_insert(60)    # overflow: refuse + block
        make_load(core, ctl, 0, line=99)
        load = make_load(core, ctl, 1, line=10)
        tick(ctl)
        assert not load.pinned
        assert ctl.stats["pin_denied_cpt_blocked"] >= 1


class TestLatePinning:
    def test_lp_authorizes_issue_then_pins_on_arrival(self):
        core = FakeCore(PinningMode.LATE)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)           # oldest: exempt
        load = make_load(core, ctl, 1, line=10)
        tick(ctl)
        assert core.issue_requests == [1]
        assert not load.pinned                      # not until data returns
        assert ctl.lp_data_arrived(load)
        assert load.pinned and load.mcv_safe

    def test_lp_pin_deferred_when_cpt_holds_line(self):
        core = FakeCore(PinningMode.LATE)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        load = make_load(core, ctl, 1, line=10)
        tick(ctl)
        ctl.cpt_insert(10)                          # Inv* raced the data
        assert not ctl.lp_data_arrived(load)
        assert not load.pinned
        ctl.cpt_clear(10)
        assert ctl.lp_data_arrived(load)

    def test_lp_already_performed_load_pins_directly(self):
        core = FakeCore(PinningMode.LATE)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        load = make_load(core, ctl, 1, line=10, performed=True)
        tick(ctl)
        assert load.pinned
        assert not core.issue_requests or core.issue_requests == []


class TestWraparound:
    def test_wraparound_drains_then_recovers(self):
        core = FakeCore(PinningMode.EARLY, lq_id_tag_bits=2)   # ids 0..3
        ctl = PinnedLoadsController(core)
        loads = [make_load(core, ctl, i, line=10 + i) for i in range(4)]
        tick(ctl)
        pinned_now = [l for l in loads if l.pinned]
        assert pinned_now
        # the 5th dispatch wraps the 2-bit tag: draining begins
        extra = make_load(core, ctl, 4, line=50)
        assert ctl.stats["lq_id_wraparounds"] == 1
        tick(ctl)
        assert not extra.pinned
        # retire everything: drain completes, pinning resumes
        for load in loads:
            core.lq.release_head(load)
            core.vp_state.unretired_loads.discard(load.index)
            ctl.on_load_retire(load)
        tick(ctl)
        assert extra.mcv_safe

    def test_unpin_on_retire_and_counts(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        load = make_load(core, ctl, 1, line=10)
        tick(ctl)
        assert ctl.has_pinned(10)
        core.lq.release_head(core.lq.oldest())
        core.vp_state.unretired_loads.discard(0)
        core.lq.release_head(load)
        core.vp_state.unretired_loads.discard(1)
        ctl.on_load_retire(load)
        assert not ctl.has_pinned(10)
        assert ctl.pinned_total == 0

    def test_same_line_pinned_twice_refcounts(self):
        core = FakeCore(PinningMode.EARLY)
        ctl = PinnedLoadsController(core)
        make_load(core, ctl, 0, line=99)
        a = make_load(core, ctl, 1, line=10)
        b = make_load(core, ctl, 2, line=10)
        tick(ctl)
        assert a.pinned and b.pinned
        ctl.on_load_retire(a)
        assert ctl.has_pinned(10)      # b still pins the line
        ctl.on_load_retire(b)
        assert not ctl.has_pinned(10)
