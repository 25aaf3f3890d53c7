"""Defense schemes: how each gates pre-VP load issue (Table 2)."""

import pytest

from repro.common.params import DefenseKind, SystemConfig, ThreatModel
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim.runner import run_simulation

BASE = SystemConfig(l1_prefetch=False)


def alu(i, deps=()):
    return MicroOp(i, OpClass.INT_ALU, deps=deps)


def fp(i, deps=()):
    return MicroOp(i, OpClass.FP_ALU, deps=deps)


def load(i, addr, deps=()):
    return MicroOp(i, OpClass.LOAD, addr=addr, deps=deps)


def branch(i, deps=(), mispredicted=False):
    return MicroOp(i, OpClass.BRANCH, deps=deps, mispredicted=mispredicted)


def run(uops, defense, threat=ThreatModel.MCV, warm=True):
    config = BASE.with_defense(defense, threat)
    return run_simulation(config, Workload([Trace(uops)], name="t"),
                          warm=warm)


def speculative_window_trace():
    """A slow branch followed by independent loads: the paradigmatic
    speculative-execution window.  Each line is touched up front so the
    warm-up pass makes the speculative loads L1 hits."""
    uops = [load(k, 0x40 * (k + 1)) for k in range(4)]        # warm touches
    chain_start = 4
    uops += [fp(chain_start)]
    uops += [fp(i, deps=(i - 1,))
             for i in range(chain_start + 1, chain_start + 10)]
    branch_index = chain_start + 10
    uops += [branch(branch_index, deps=(branch_index - 1,))]
    uops += [load(branch_index + 1 + k, 0x40 * (k + 1)) for k in range(4)]
    return uops


class TestFence:
    def test_fence_delays_loads_past_branch_resolution(self):
        uops = speculative_window_trace()
        unsafe = run(uops, DefenseKind.UNSAFE)
        fence = run(uops, DefenseKind.FENCE, ThreatModel.CTRL)
        assert fence.cycles > unsafe.cycles

    def test_comprehensive_serializes_loads(self):
        # under Comp a load must be the oldest load to reach its VP, so
        # loads issue one at a time: cost grows with load count
        loads = [load(i, 0x40 * i) for i in range(12)]
        fence = run(loads, DefenseKind.FENCE)
        unsafe = run(loads, DefenseKind.UNSAFE)
        assert fence.cycles > unsafe.cycles * 1.5

    def test_threat_levels_are_monotone(self):
        uops = speculative_window_trace()
        cycles = [run(uops, DefenseKind.FENCE, level).cycles
                  for level in (ThreatModel.CTRL, ThreatModel.ALIAS,
                                ThreatModel.EXCEPT, ThreatModel.MCV)]
        assert cycles == sorted(cycles)


class TestDelayOnMiss:
    def test_hits_execute_speculatively(self):
        uops = speculative_window_trace()
        dom = run(uops, DefenseKind.DOM)      # warm: loads hit L1
        fence = run(uops, DefenseKind.FENCE)
        assert dom.cycles < fence.cycles

    def test_misses_stall_like_fence(self):
        uops = speculative_window_trace()
        dom = run(uops, DefenseKind.DOM, warm=False)     # loads miss
        fence = run(uops, DefenseKind.FENCE, warm=False)
        assert dom.cycles == pytest.approx(fence.cycles, rel=0.1)


class TestSTT:
    def test_untainted_loads_execute_speculatively(self):
        uops = speculative_window_trace()
        stt = run(uops, DefenseKind.STT)
        fence = run(uops, DefenseKind.FENCE)
        assert stt.cycles < fence.cycles

    def test_tainted_address_load_stalls(self):
        """A pointer-chase: the second load's address comes from the first
        (speculative) load, so STT must delay it until the producer's VP."""
        uops = [load(0, 0x40), load(1, 0x80)]          # warm touches
        uops += [fp(2)] + [fp(i, deps=(i - 1,)) for i in range(3, 12)]
        uops += [branch(12, deps=(11,)),
                 load(13, 0x40),
                 load(14, 0x80, deps=(13,))]           # tainted address
        unsafe = run(uops, DefenseKind.UNSAFE)
        stt = run(uops, DefenseKind.STT)
        assert stt.cycles > unsafe.cycles

    def test_stt_cheaper_than_dom_on_pointer_free_code(self):
        uops = speculative_window_trace()
        stt = run(uops, DefenseKind.STT, warm=False)
        dom = run(uops, DefenseKind.DOM, warm=False)
        assert stt.cycles <= dom.cycles


class TestUnsafe:
    def test_unsafe_matches_across_threat_models(self):
        """The Unsafe baseline ignores the threat model entirely."""
        uops = speculative_window_trace()
        comp = run(uops, DefenseKind.UNSAFE, ThreatModel.MCV)
        spectre = run(uops, DefenseKind.UNSAFE, ThreatModel.CTRL)
        assert comp.cycles == spectre.cycles

    def test_scheme_overhead_ordering(self):
        """Figure 7's global ordering: Fence >= DOM >= STT >= Unsafe."""
        uops = speculative_window_trace() * 1
        results = {kind: run(uops, kind).cycles
                   for kind in (DefenseKind.UNSAFE, DefenseKind.STT,
                                DefenseKind.DOM, DefenseKind.FENCE)}
        assert results[DefenseKind.FENCE] >= results[DefenseKind.DOM]
        assert results[DefenseKind.DOM] >= results[DefenseKind.STT] * 0.95
        assert results[DefenseKind.STT] >= results[DefenseKind.UNSAFE]
