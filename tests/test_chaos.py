"""Deterministic fault injection (``repro.chaos``).

The chaos engine's contract has three legs:

* **determinism** — a chaos run is a pure function of (config,
  workload): same seed, same faults, same cycle count, same stats;
* **architectural invariance** — any seed may change *timing* (cycles,
  miss counts) but never *architecture*: the retired instruction
  stream, its FNV signature, and branch-squash counts match the
  fault-free run, and the sanitizer stays silent;
* **teeth** — the ``evict-pinned`` mutation, which deliberately evicts
  pinned lines, must be caught by the sanitizer's pin-safety invariant
  (otherwise a green campaign proves nothing).

Plus the campaign runner that packages all of this, and the structured
diagnostic dump attached to ``DeadlockError``.
"""

import dataclasses

import pytest

from repro.chaos.campaign import architectural_fingerprint, run_campaign
from repro.chaos.engine import ChaosEngine
from repro.common.errors import (ConfigError, DeadlockError,
                                 InvariantViolation)
from repro.common.params import (COMPREHENSIVE, ChaosConfig, DefenseKind,
                                 PinningMode, SystemConfig)
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim.runner import run_simulation
from repro.sim.system import System
from repro.workloads import parallel_workload, spec17_workload

BASE = SystemConfig()
FENCE_EP = BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                             PinningMode.EARLY)

#: Exercises every fault class: jitter+reorder, NACKs, forced evictions,
#: and write-buffer backpressure spikes.
FULL_CHAOS = ChaosConfig(seed=0, wb_spike_interval=300)


def small_workload(instructions=800):
    return spec17_workload("mcf_r", instructions=instructions)


def chaos_run(config, workload, **chaos_fields):
    chaotic = dataclasses.replace(
        config, chaos=dataclasses.replace(FULL_CHAOS, **chaos_fields))
    return run_simulation(chaotic, workload)


class TestConfigValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig(msg_jitter_prob=1.5).validate()
        with pytest.raises(ConfigError):
            ChaosConfig(nack_prob=-0.1).validate()

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig(mutate="evict-everything").validate()

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig(msg_jitter=-1).validate()
        with pytest.raises(ConfigError):
            ChaosConfig(evict_interval=-5).validate()

    def test_system_config_validates_chaos(self):
        bad = dataclasses.replace(BASE, chaos=ChaosConfig(nack_prob=2.0))
        with pytest.raises(ConfigError):
            bad.validate()


class TestDeterminism:
    def test_same_seed_same_run(self):
        workload = small_workload()
        first = chaos_run(FENCE_EP, workload, seed=3)
        second = chaos_run(FENCE_EP, workload, seed=3)
        assert first.to_dict() == second.to_dict()

    def test_faults_actually_injected(self):
        result = chaos_run(FENCE_EP, small_workload())
        assert result.network_stats.get("chaos_jitter_msgs", 0) > 0
        assert result.mem_stats.get("chaos_nacks", 0) > 0
        assert result.mem_stats.get("chaos_forced_evictions", 0) > 0
        assert result.mem_stats.get("chaos_wb_spikes", 0) > 0


class TestArchitecturalInvariance:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_never_changes_architecture(self, seed):
        workload = small_workload()
        baseline = run_simulation(FENCE_EP, workload)
        chaotic = chaos_run(FENCE_EP, workload, seed=seed)
        assert architectural_fingerprint(chaotic) \
            == architectural_fingerprint(baseline)

    def test_invariance_holds_multithreaded(self):
        workload = parallel_workload("radix", num_threads=2,
                                     instructions_per_thread=400)
        config = SystemConfig(num_cores=2).with_defense(
            DefenseKind.FENCE, COMPREHENSIVE, PinningMode.LATE)
        baseline = run_simulation(config, workload)
        chaotic = chaos_run(config, workload, seed=5)
        assert architectural_fingerprint(chaotic) \
            == architectural_fingerprint(baseline)

    def test_sanitizer_silent_under_chaos(self):
        config = dataclasses.replace(FENCE_EP, sanitize=True)
        # raises InvariantViolation if any injected fault broke a rule
        chaos_run(config, small_workload(), seed=9)


class TestNackBackoff:
    def test_backoff_grows_then_escapes_livelock(self):
        """With nack_prob=1 every request is NACKed until the escape
        hatch: delays grow exponentially to the cap, and after
        ``max_nacks`` consecutive NACKs the request is admitted."""
        config = ChaosConfig(nack_prob=1.0, nack_backoff=8,
                             nack_backoff_cap=64, max_nacks=4)
        engine = ChaosEngine(config, system=None)
        delays = [engine.nack_delay("read", 0, 0x40) for _ in range(5)]
        assert delays == [8, 16, 32, 64, 0]
        # the episode counter resets after admission
        assert engine.nack_delay("read", 0, 0x40) == 8

    def test_independent_episodes_per_line(self):
        config = ChaosConfig(nack_prob=1.0, nack_backoff=8,
                             nack_backoff_cap=64, max_nacks=4)
        engine = ChaosEngine(config, system=None)
        assert engine.nack_delay("read", 0, 0x40) == 8
        assert engine.nack_delay("read", 0, 0x80) == 8
        assert engine.nack_delay("write", 0, 0x40) == 8


class TestMutationTeeth:
    def test_evict_pinned_mutant_is_caught(self):
        """The deliberate bug — forced evictions target *pinned* lines —
        must trip the sanitizer's pin-safety invariant.  This is the
        campaign's self-test: it proves a green chaos run means the
        checker could have seen a violation, not that it looked away."""
        config = dataclasses.replace(
            FENCE_EP, sanitize=True,
            chaos=ChaosConfig(seed=0, evict_interval=5, msg_jitter=0,
                              msg_jitter_prob=0.0, nack_prob=0.0,
                              mutate="evict-pinned"))
        with pytest.raises(InvariantViolation) as excinfo:
            run_simulation(config, small_workload())
        assert excinfo.value.invariant == "pin-safety"


class TestCampaign:
    def test_small_campaign_passes(self):
        report = run_campaign(["mcf_r"], ["unsafe", "fence-ep"], seeds=2,
                              instructions=500)
        assert report["passed"]
        assert not report["failures"]
        assert report["self_test"]["detected"]
        for cell in report["cells"]:
            assert not cell["divergences"]
            assert not cell["violations"]
            assert all(run["ok"] and run["faults_injected"] > 0
                       for run in cell["seed_runs"])


class TestDiagnosticDump:
    def test_deadlock_error_carries_structured_dump(self):
        # thread 0 waits at a barrier thread 1 never reaches — the
        # detector trips and must attach a postmortem dump
        t0 = Trace([MicroOp(0, OpClass.BARRIER, barrier_id=0)], "t0")
        t1 = Trace([MicroOp(0, OpClass.INT_ALU)], "t1")
        hung = Workload([t0, t1], name="hung")
        config = dataclasses.replace(SystemConfig(num_cores=2),
                                     deadlock_cycles=300)
        with pytest.raises(DeadlockError) as excinfo:
            System(config, hung).run()
        dump = excinfo.value.dump
        assert dump is not None
        assert dump["cycle"] > 0
        assert len(dump["cores"]) == 2
        for core_state in dump["cores"]:
            assert "rob_head" in core_state
            assert "oldest_load" in core_state
            assert "pinned_total" in core_state
        assert isinstance(dump["pending_events"], list)
