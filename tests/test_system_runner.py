"""System assembly, the run loop, the experiment runner, and caching."""

import pytest

from repro.common.errors import ConfigError, DeadlockError
from repro.common.params import (DefenseKind, PinningMode, SystemConfig,
                                 ThreatModel)
from repro.sim.runner import ExperimentCache, run_simulation, scheme_grid
from repro.sim.system import BarrierManager, System
from repro.workloads import parallel_workload, spec17_workload


class TestBarrierManager:
    def test_releases_when_all_arrive(self):
        barriers = BarrierManager(num_cores=3)
        barriers.arrive(0, 0)
        barriers.arrive(0, 1)
        assert not barriers.released(0)
        barriers.arrive(0, 2)
        assert barriers.released(0)

    def test_barrier_ids_independent(self):
        barriers = BarrierManager(num_cores=1)
        barriers.arrive(0, 0)
        assert barriers.released(0)
        assert not barriers.released(1)

    def test_duplicate_arrivals_idempotent(self):
        barriers = BarrierManager(num_cores=2)
        barriers.arrive(0, 0)
        barriers.arrive(0, 0)
        assert not barriers.released(0)


class TestSystem:
    def test_thread_core_mismatch_rejected(self):
        workload = spec17_workload("namd_r", instructions=50)
        with pytest.raises(ConfigError):
            System(SystemConfig(num_cores=2), workload)

    def test_run_returns_cycles_and_retires_everything(self):
        workload = spec17_workload("namd_r", instructions=300)
        system = System(SystemConfig(), workload)
        cycles = system.run()
        assert cycles > 0
        assert system.total_retired == 300

    def test_max_cycles_guard(self):
        workload = spec17_workload("namd_r", instructions=5000)
        system = System(SystemConfig(), workload)
        with pytest.raises(DeadlockError):
            system.run(max_cycles=10)

    def test_multicore_completion(self):
        workload = parallel_workload("blackscholes", num_threads=8,
                                     instructions_per_thread=200)
        system = System(SystemConfig(num_cores=8), workload)
        system.run()
        assert all(core.done for core in system.cores)


class TestRunSimulation:
    def test_result_fields_populated(self):
        workload = spec17_workload("povray_r", instructions=400)
        result = run_simulation(SystemConfig(), workload)
        assert result.instructions == 400
        assert result.cycles > 0
        assert result.cpi > 0
        assert 0 in result.core_stats
        assert "loads" in result.mem_stats
        assert result.workload_name == "povray_r"

    def test_determinism(self):
        workload = spec17_workload("povray_r", instructions=400)
        a = run_simulation(SystemConfig(), workload)
        b = run_simulation(SystemConfig(), workload)
        assert a.cycles == b.cycles
        assert a.mem_stats == b.mem_stats

    def test_warm_reduces_cycles(self):
        workload = spec17_workload("povray_r", instructions=400)
        cold = run_simulation(SystemConfig(), workload, warm=False)
        warm = run_simulation(SystemConfig(), workload, warm=True)
        assert warm.cycles < cold.cycles

    def test_normalized_cpi_requires_same_workload(self):
        a = run_simulation(SystemConfig(),
                           spec17_workload("povray_r", instructions=200))
        b = run_simulation(SystemConfig(),
                           spec17_workload("namd_r", instructions=200))
        with pytest.raises(ValueError):
            a.normalized_cpi(b)

    def test_per_million_insns(self):
        workload = spec17_workload("povray_r", instructions=1000)
        result = run_simulation(SystemConfig(), workload)
        assert result.per_million_insns(5) == pytest.approx(5000)

    def test_describe_mentions_configuration(self):
        workload = spec17_workload("povray_r", instructions=200)
        config = SystemConfig().with_defense(DefenseKind.DOM,
                                             pinning_mode=PinningMode.LATE)
        result = run_simulation(config, workload)
        text = result.describe()
        assert "dom" in text and "lp" in text


class TestExperimentCache:
    def test_identical_runs_are_cached(self):
        cache = ExperimentCache()
        workload = spec17_workload("povray_r", instructions=200)
        a = cache.run(SystemConfig(), workload)
        b = cache.run(SystemConfig(), workload)
        assert a is b

    def test_different_configs_not_conflated(self):
        cache = ExperimentCache()
        workload = spec17_workload("povray_r", instructions=200)
        a = cache.run(SystemConfig(), workload)
        b = cache.run(SystemConfig().with_defense(DefenseKind.FENCE),
                      workload)
        assert a is not b

    def test_clear(self):
        cache = ExperimentCache()
        workload = spec17_workload("povray_r", instructions=200)
        a = cache.run(SystemConfig(), workload)
        cache.clear()
        assert cache.run(SystemConfig(), workload) is not a


class TestSchemeGrid:
    def test_grid_covers_tables_2_and_3(self):
        grid = scheme_grid()
        assert len(grid) == 12   # 3 schemes x 4 extensions
        for scheme in ("fence", "dom", "stt"):
            for ext in ("comp", "lp", "ep", "spectre"):
                assert f"{scheme}-{ext}" in grid

    def test_grid_cells_are_valid_configs(self):
        base = SystemConfig()
        for defense, threat, pinning in scheme_grid().values():
            base.with_defense(defense, threat, pinning).validate()

    def test_spectre_cells_use_ctrl_model(self):
        grid = scheme_grid()
        for scheme in ("fence", "dom", "stt"):
            _, threat, pinning = grid[f"{scheme}-spectre"]
            assert threat is ThreatModel.CTRL
            assert pinning is PinningMode.NONE
