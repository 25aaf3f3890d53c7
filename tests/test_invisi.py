"""The invisible-speculation (InvisiSpec-class) defense scheme."""

import pytest

from repro.common.params import (DefenseKind, PinningMode, SystemConfig,
                                 ThreatModel)
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim.runner import run_simulation
from repro.workloads import spec17_workload

BASE = SystemConfig(l1_prefetch=False)


def fp(i, deps=()):
    return MicroOp(i, OpClass.FP_ALU, deps=deps)


def load(i, addr, deps=()):
    return MicroOp(i, OpClass.LOAD, addr=addr, deps=deps)


def run(uops, config, warm=True):
    return run_simulation(config, Workload([Trace(uops)], name="t"),
                          warm=warm)


def window_trace():
    uops = [load(k, 0x40 * (k + 1)) for k in range(4)]      # warm touches
    uops += [fp(4)] + [fp(i, deps=(i - 1,)) for i in range(5, 15)]
    uops += [MicroOp(15, OpClass.BRANCH, deps=(14,))]
    uops += [load(16 + k, 0x40 * (k + 1)) for k in range(4)]
    return uops


class TestInvisibleIssue:
    def test_pre_vp_loads_issue_invisibly(self):
        config = BASE.with_defense(DefenseKind.INVISI)
        result = run(window_trace(), config)
        assert result.core_stats[0].get("loads_issued_invisible", 0) >= 4
        assert result.mem_stats.get("invisible_loads", 0) >= 4

    def test_invisible_loads_leave_no_cache_state(self):
        """The defining property: an invisible access must not fill the
        cache — the validation access at the VP misses again."""
        config = BASE.with_defense(DefenseKind.INVISI)
        uops = [fp(0)] + [fp(i, deps=(i - 1,)) for i in range(1, 12)] \
            + [MicroOp(12, OpClass.BRANCH, deps=(11,)),
               load(13, 0x9000)]
        result = run(uops, config, warm=False)
        # two full misses for one load: the invisible fetch (uncounted in
        # l1 stats) and the visible validation
        assert result.mem_stats.get("invisible_loads", 0) == 1
        assert result.mem_stats.get("l1_load_misses", 0) == 1

    def test_every_invisible_load_validates_before_retiring(self):
        config = BASE.with_defense(DefenseKind.INVISI)
        result = run(window_trace(), config)
        stats = result.core_stats[0]
        assert stats.get("validations_completed", 0) \
            >= stats.get("loads_issued_invisible", 0) \
            - stats.get("squashed_uops", 0)
        assert stats["retired"] == len(window_trace())

    def test_dataflow_benefits_from_invisible_data(self):
        """Consumers wake on the invisible data, so invisi beats Fence
        (which provides no data at all until the VP)."""
        config_invisi = BASE.with_defense(DefenseKind.INVISI)
        config_fence = BASE.with_defense(DefenseKind.FENCE)
        # dependent chain behind a load inside the speculative window
        uops = [load(0, 0x40)]   # warm touch
        uops += [fp(1)] + [fp(i, deps=(i - 1,)) for i in range(2, 12)]
        uops += [MicroOp(12, OpClass.BRANCH, deps=(11,)), load(13, 0x40)]
        uops += [fp(14 + k, deps=(13 + k,)) for k in range(8)]
        invisi = run(uops, config_invisi)
        fence = run(uops, config_fence)
        assert invisi.cycles <= fence.cycles


class TestInvisiWithPinning:
    @pytest.mark.parametrize("mode", [PinningMode.LATE, PinningMode.EARLY])
    def test_pinning_accelerates_validation(self, mode):
        workload = spec17_workload("bwaves_r", instructions=1500)
        comp = run_simulation(BASE.with_defense(DefenseKind.INVISI),
                              workload)
        pinned = run_simulation(
            BASE.with_defense(DefenseKind.INVISI, pinning_mode=mode),
            workload)
        assert pinned.cycles < comp.cycles

    def test_pinned_invisi_never_squashes_pinned_loads(self):
        workload = spec17_workload("mcf_r", instructions=1500)
        result = run_simulation(
            BASE.with_defense(DefenseKind.INVISI,
                              pinning_mode=PinningMode.EARLY), workload)
        squashed_pins = sum(s.get("pinned_squashed", 0)
                            for s in result.pinning_stats.values())
        assert squashed_pins == 0
        assert result.core_stats[0]["retired"] == 1500

    def test_grid_ordering_holds_for_invisi(self):
        workload = spec17_workload("fotonik3d_r", instructions=1500)
        unsafe = run_simulation(SystemConfig(), workload)
        cycles = {}
        for label, threat, pin in [("comp", ThreatModel.MCV,
                                    PinningMode.NONE),
                                   ("ep", ThreatModel.MCV,
                                    PinningMode.EARLY),
                                   ("spectre", ThreatModel.CTRL,
                                    PinningMode.NONE)]:
            config = SystemConfig().with_defense(DefenseKind.INVISI,
                                                 threat, pin)
            cycles[label] = run_simulation(config, workload).cycles
        assert cycles["comp"] > cycles["ep"]
        assert cycles["ep"] >= cycles["spectre"] * 0.9
        assert cycles["comp"] > unsafe.cycles
