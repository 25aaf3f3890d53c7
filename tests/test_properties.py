"""Property-based end-to-end invariants over randomized workloads.

These drive the full simulator with hypothesis-generated profiles and
check the properties that must hold for *every* workload and configuration:
completion, determinism, pinned-load safety, and the security orderings the
paper's design arguments rest on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import (DefenseKind, PinnedLoadsParams,
                                 PinningMode, SystemConfig, ThreatModel)
from repro.sim.runner import run_simulation
from repro.workloads import WorkloadProfile, build_workload

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("prop"),
    load_frac=st.floats(min_value=0.1, max_value=0.35),
    store_frac=st.floats(min_value=0.02, max_value=0.15),
    branch_frac=st.floats(min_value=0.02, max_value=0.25),
    fp_frac=st.floats(min_value=0.0, max_value=0.9),
    mispredict_rate=st.floats(min_value=0.0, max_value=0.15),
    warm_frac=st.floats(min_value=0.0, max_value=0.3),
    stream_frac=st.floats(min_value=0.0, max_value=0.2),
    dependent_load_frac=st.floats(min_value=0.0, max_value=0.5),
    hot_lines=st.integers(min_value=16, max_value=512),
    warm_lines=st.integers(min_value=512, max_value=4096),
)

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

MODES = st.sampled_from([PinningMode.NONE, PinningMode.LATE,
                         PinningMode.EARLY])
DEFENSES = st.sampled_from([DefenseKind.FENCE, DefenseKind.DOM,
                            DefenseKind.STT])


def config_for(defense, mode):
    return SystemConfig(
        defense=defense, threat_model=ThreatModel.MCV,
        pinning=PinnedLoadsParams(mode=mode))


class TestCompletionAndDeterminism:
    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50),
           defense=DEFENSES, mode=MODES)
    def test_every_configuration_completes(self, profile, seed, defense,
                                           mode):
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=300)
        result = run_simulation(config_for(defense, mode), workload)
        assert result.core_stats[0]["retired"] == 300
        assert result.cycles > 0

    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50))
    def test_runs_are_deterministic(self, profile, seed):
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = config_for(DefenseKind.FENCE, PinningMode.EARLY)
        assert run_simulation(config, workload).cycles \
            == run_simulation(config, workload).cycles


class TestSecurityInvariants:
    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50),
           mode=st.sampled_from([PinningMode.LATE, PinningMode.EARLY]))
    def test_pinned_loads_never_squashed(self, profile, seed, mode):
        """Paper §4: once pinned, retirement is guaranteed."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=300)
        result = run_simulation(config_for(DefenseKind.STT, mode), workload)
        squashed_pins = sum(s.get("pinned_squashed", 0)
                            for s in result.pinning_stats.values())
        assert squashed_pins == 0

    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50))
    def test_defended_runs_cost_at_least_unsafe(self, profile, seed):
        """No defense may beat the unsafe machine on the same trace."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=300)
        unsafe = run_simulation(SystemConfig(), workload)
        fence = run_simulation(config_for(DefenseKind.FENCE,
                                          PinningMode.NONE), workload)
        assert fence.cycles >= unsafe.cycles * 0.98

    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50))
    def test_pinning_never_hurts_fence_comprehensive(self, profile, seed):
        """Pinning only accelerates VP progress; EP/LP should not slow the
        Comp baseline down (small tolerance for timing noise)."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=300)
        comp = run_simulation(config_for(DefenseKind.FENCE,
                                         PinningMode.NONE), workload)
        ep = run_simulation(config_for(DefenseKind.FENCE,
                                       PinningMode.EARLY), workload)
        assert ep.cycles <= comp.cycles * 1.05

    @SLOW
    @given(profile=PROFILES, seed=st.integers(min_value=1, max_value=50))
    def test_threat_levels_monotone(self, profile, seed):
        """More squash sources to wait for can only delay the VP."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=300)
        spectre = run_simulation(
            SystemConfig().with_defense(DefenseKind.FENCE,
                                        ThreatModel.CTRL), workload)
        comp = run_simulation(
            SystemConfig().with_defense(DefenseKind.FENCE,
                                        ThreatModel.MCV), workload)
        assert comp.cycles >= spectre.cycles * 0.98


class TestMulticoreProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=1, max_value=30),
           shared=st.floats(min_value=0.0, max_value=0.2),
           mode=MODES)
    def test_shared_memory_runs_complete(self, seed, shared, mode):
        profile = WorkloadProfile(
            name="mt", read_shared_frac=shared,
            write_shared_frac=shared / 2, lock_frac=0.002, barriers=2)
        workload = build_workload(profile, num_threads=4, seed=seed,
                                  instructions_per_thread=200)
        config = SystemConfig(
            num_cores=4, defense=DefenseKind.DOM,
            threat_model=ThreatModel.MCV,
            pinning=PinnedLoadsParams(mode=mode))
        result = run_simulation(config, workload)
        for core_id in range(4):
            assert result.core_stats[core_id]["retired"] == \
                len(workload.traces[core_id])
