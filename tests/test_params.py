"""Configuration dataclasses: defaults, validation, derived values."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (COMPREHENSIVE, DEFENSE_MUTATIONS, SPECTRE,
                                 CacheParams, CoreParams, DefenseKind,
                                 NetworkParams, PinnedLoadsParams,
                                 PinningMode, SystemConfig, ThreatModel)


class TestThreatModel:
    def test_levels_are_cumulatively_ordered(self):
        assert (ThreatModel.CTRL.level < ThreatModel.ALIAS.level
                < ThreatModel.EXCEPT.level < ThreatModel.MCV.level)

    def test_aliases_match_paper_vocabulary(self):
        assert SPECTRE is ThreatModel.CTRL
        assert COMPREHENSIVE is ThreatModel.MCV


class TestCoreParams:
    def test_defaults_match_table1(self):
        core = CoreParams()
        assert core.width == 8
        assert core.rob_entries == 192
        assert core.load_queue_entries == 62
        assert core.store_queue_entries == 32

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            CoreParams(width=0).validate()

    def test_rejects_tiny_rob(self):
        with pytest.raises(ConfigError):
            CoreParams(width=8, rob_entries=4).validate()

    def test_rejects_empty_queues(self):
        with pytest.raises(ConfigError):
            CoreParams(load_queue_entries=0).validate()


class TestCacheParams:
    def test_l1_geometry_matches_table1(self):
        l1 = SystemConfig().l1d
        assert l1.size_bytes == 32 * 1024
        assert l1.ways == 8
        assert l1.sets == 64

    def test_llc_slice_geometry_matches_table1(self):
        llc = SystemConfig().llc_slice
        assert llc.size_bytes == 2 * 1024 * 1024
        assert llc.ways == 16
        assert llc.sets == 2048

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=3 * 64 * 4, ways=4, latency=1).validate()

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=1000, ways=3, latency=1).validate()


class TestNetworkParams:
    def test_default_mesh_is_4x2(self):
        net = NetworkParams()
        assert net.node_count == 8


class TestPinnedLoadsParams:
    def test_defaults_match_table1(self):
        params = PinnedLoadsParams()
        assert (params.l1_cst_entries, params.l1_cst_records) == (12, 8)
        assert (params.dir_cst_entries, params.dir_cst_records) == (40, 2)
        assert params.w_d == 2
        assert params.cpt_entries == 4
        assert params.lq_id_tag_bits == 24

    def test_rejects_zero_wd(self):
        with pytest.raises(ConfigError):
            PinnedLoadsParams(w_d=0).validate()


class TestSystemConfig:
    def test_default_validates(self):
        SystemConfig().validate()

    def test_eight_core_validates(self):
        SystemConfig(num_cores=8).validate()

    def test_rejects_more_cores_than_mesh_nodes(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=9).validate()

    def test_rejects_pinning_under_spectre(self):
        config = SystemConfig(
            threat_model=SPECTRE,
            pinning=PinnedLoadsParams(mode=PinningMode.EARLY))
        with pytest.raises(ConfigError):
            config.validate()

    def test_rejects_defense_mutation_on_another_family(self):
        for mutation in DEFENSE_MUTATIONS:
            own = DefenseKind(mutation.split("-", 1)[0])
            SystemConfig(defense=own, defense_mutation=mutation).validate()
            for other in DefenseKind:
                if other is own:
                    continue
                config = SystemConfig(defense=other,
                                      defense_mutation=mutation)
                with pytest.raises(ConfigError, match="weakens"):
                    config.validate()

    def test_with_defense_builds_table3_cell(self):
        config = SystemConfig().with_defense(
            DefenseKind.STT, pinning_mode=PinningMode.EARLY)
        assert config.defense is DefenseKind.STT
        assert config.threat_model is COMPREHENSIVE
        assert config.pinning.mode is PinningMode.EARLY
        config.validate()

    def test_with_defense_preserves_other_fields(self):
        base = SystemConfig(num_cores=8, dram_latency=77)
        derived = base.with_defense(DefenseKind.FENCE)
        assert derived.num_cores == 8
        assert derived.dram_latency == 77

    def test_config_is_hashable_for_experiment_caching(self):
        a = SystemConfig().with_defense(DefenseKind.DOM)
        b = SystemConfig().with_defense(DefenseKind.DOM)
        assert a == b
        assert hash(a) == hash(b)

    def test_num_slices_tracks_mesh(self):
        assert SystemConfig().num_slices == 8
