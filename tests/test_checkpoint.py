"""Pause/continue: ``System.run(stop_cycle=...)`` stops a run at a
clean cycle boundary, and calling ``run`` again on the same object
continues from ``self.cycles``.  The stitched run must finish with a
result document *bit-identical* to an uninterrupted one.

The contracts under test:

* the round trip — pause mid-run, continue in place — is exact for
  every scheme: unsafe, InvisiSpec, and Fence/DOM/STT each under Late
  and Early Pinning;
* it stays exact with the chaos engine's RNG/backoff state live across
  the pause, and on an eight-core system whose multi-core loop pauses
  twice;
* a pause lands exactly on the requested cycle, and a stop cycle past
  completion just finishes the run.
"""

import dataclasses

import pytest

from repro.common.params import (COMPREHENSIVE, ChaosConfig, DefenseKind,
                                 PinningMode, SystemConfig)
from repro.sim.runner import collect_result
from repro.sim.system import System
from repro.workloads import parallel_workload, spec17_workload

BASE = SystemConfig()

#: Every scheme of the paper's evaluation: the unprotected baseline,
#: the InvisiSpec-class comparison point, and each delay-based defense
#: under both pinning flavors.
SCHEMES = {
    "unsafe": BASE,
    "invisi": BASE.with_defense(DefenseKind.INVISI, COMPREHENSIVE,
                                PinningMode.NONE),
    "fence-lp": BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                                  PinningMode.LATE),
    "fence-ep": BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                                  PinningMode.EARLY),
    "dom-lp": BASE.with_defense(DefenseKind.DOM, COMPREHENSIVE,
                                PinningMode.LATE),
    "dom-ep": BASE.with_defense(DefenseKind.DOM, COMPREHENSIVE,
                                PinningMode.EARLY),
    "stt-lp": BASE.with_defense(DefenseKind.STT, COMPREHENSIVE,
                                PinningMode.LATE),
    "stt-ep": BASE.with_defense(DefenseKind.STT, COMPREHENSIVE,
                                PinningMode.EARLY),
}


def small_workload(instructions=300):
    return spec17_workload("mcf_r", instructions=instructions)


def _warm_system(config, workload):
    system = System(config, workload)
    system.mem.warm(workload)
    return system


def _straight_result(config, workload):
    """The full result document of an uninterrupted run, and its
    cycle count."""
    system = _warm_system(config, workload)
    system.run()
    return collect_result(system).to_dict(), system.cycles


def _paused_result(config, workload, stops):
    """Pause at each cycle in ``stops`` with ``run(stop_cycle=...)``,
    continue on the same object to completion, and return the full
    result document."""
    system = _warm_system(config, workload)
    for stop in stops:
        system.run(stop_cycle=stop)
        assert not system.done
        assert system.cycles == stop
    system.run()
    assert system.done
    return collect_result(system).to_dict()


class TestRoundTripEveryScheme:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_resume_is_bit_identical(self, scheme):
        config = SCHEMES[scheme]
        workload = small_workload()
        expected, cycles = _straight_result(config, workload)
        stop = max(1, cycles // 2)
        assert _paused_result(config, workload, [stop]) == expected

    def test_resume_with_chaos_state(self):
        """RNG state, NACK backoff counters, and pending chaos events
        carry across the pause: the continued chaos run replays the
        exact fault schedule of an uninterrupted one."""
        workload = small_workload(500)
        config = dataclasses.replace(
            SCHEMES["fence-ep"],
            chaos=ChaosConfig(seed=7, wb_spike_interval=200))
        expected, cycles = _straight_result(config, workload)
        stop = max(1, cycles // 3)
        assert _paused_result(config, workload, [stop]) == expected

    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_chaos_resume_is_bit_identical(self, scheme):
        """The chaos round trip holds per scheme, not just on one cell:
        each defense family keeps different column state (taint roots,
        pin tables, invisible buffers) beside the chaos RNG/backoff
        state."""
        workload = small_workload(500)
        config = dataclasses.replace(
            SCHEMES[scheme],
            chaos=ChaosConfig(seed=11, wb_spike_interval=150))
        expected, cycles = _straight_result(config, workload)
        stop = max(1, cycles // 3)
        assert _paused_result(config, workload, [stop]) == expected

    def test_multithreaded_round_trip(self):
        """The multi-core loop's pause exit: eight threads with
        barriers, paused twice and continued."""
        workload = parallel_workload("radix", num_threads=8,
                                     instructions_per_thread=250)
        config = SystemConfig(num_cores=8).with_defense(
            DefenseKind.FENCE, COMPREHENSIVE, PinningMode.EARLY)
        expected, cycles = _straight_result(config, workload)
        stops = [max(1, cycles // 3), max(2, 2 * cycles // 3)]
        assert _paused_result(config, workload, stops) == expected


class TestStopCycle:
    def test_pause_then_resume_in_place(self):
        workload = small_workload()
        config = SCHEMES["fence-lp"]
        expected, cycles = _straight_result(config, workload)
        stops = [50, 150, 400]
        assert stops[-1] < cycles  # every stop is a real mid-run pause
        assert _paused_result(config, workload, stops) == expected

    def test_stop_past_completion_is_harmless(self):
        workload = small_workload()
        expected, cycles = _straight_result(BASE, workload)
        system = _warm_system(BASE, workload)
        system.run(stop_cycle=cycles * 10)
        assert system.done
        assert system.cycles == cycles
        assert collect_result(system).to_dict() == expected
