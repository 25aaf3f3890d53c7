"""The adversarial attack suite: generator determinism, the leakage
oracle's verdicts against the expected table, the mutant self-tests
(an oracle that cannot detect a weakened defense is theater), the
campaign's bit-identity across seeds and ``--jobs``, and how
``build_cell`` resolves ``attack:...`` workload names.
"""

import pytest

from repro.security.attacks import (ATTACK_CLASSES, attack_cell,
                                    attack_cores, attack_workload)
from repro.security.campaign import (all_scheme_names, expected_verdict,
                                     format_report, matrix_artifact,
                                     run_campaign)
from repro.security.oracle import CHANNELS, leakage_probe
from repro.sim.executor import cache_key
from repro.sim.runner import build_cell


class TestAttackGenerator:
    def test_unknown_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="unknown attack class"):
            attack_workload("rowhammer", 0)
        with pytest.raises(ValueError, match="secret must be"):
            attack_workload("prime_probe", 2)
        with pytest.raises(ValueError, match="seed must be"):
            attack_workload("prime_probe", 0, seed=-1)
        with pytest.raises(ValueError, match="unknown scheme"):
            attack_cell("prime_probe", 0, 0, "nosuch")

    def test_generation_is_a_pure_function_of_its_name(self):
        for attack in ATTACK_CLASSES:
            a = attack_workload(attack, 1, seed=3)
            b = attack_workload(attack, 1, seed=3)
            assert a.fingerprint == b.fingerprint

    def test_pair_variants_share_name_but_not_content(self):
        """The two variants of a pair differ only through the secret:
        same display name (directly comparable result documents), a
        different content fingerprint (distinct cache identities)."""
        for attack in ATTACK_CLASSES:
            v0 = attack_workload(attack, 0, seed=0)
            v1 = attack_workload(attack, 1, seed=0)
            assert v0.name == v1.name
            assert v0.fingerprint != v1.fingerprint

    def test_seeds_randomize_addresses(self):
        assert attack_workload("prime_probe", 0, seed=0).fingerprint \
            != attack_workload("prime_probe", 0, seed=1).fingerprint

    def test_core_counts(self):
        assert attack_cores("xcore_covert") == 2
        assert attack_cores("prime_probe") == 1
        tx_rx = attack_workload("xcore_covert", 0)
        assert len(tx_rx.traces) == 2

    def test_probe_marks_survive_into_traces(self):
        workload = attack_workload("lru_probe", 0)
        (trace,) = workload.traces
        assert len(trace.probe_indices) == 3
        assert all(trace[i].probe for i in trace.probe_indices)


class TestProbeTiming:
    def test_unsafe_run_reports_probe_records(self):
        config, workload = attack_cell("prime_probe", 1, 0, "unsafe")
        from repro.sim.runner import run_simulation
        result = run_simulation(config, workload)
        assert result.probes is not None
        records = result.probes[0]
        assert len(records) == 2
        for record in records:
            assert record["complete"] > record["dispatch"] >= 0

    def test_non_attack_runs_have_no_probe_channel(self):
        config, workload = build_cell("mcf_r", 300, 1, "unsafe")
        from repro.sim.runner import run_simulation
        result = run_simulation(config, workload)
        assert result.probes is None


class TestOracleVerdicts:
    """Key cells of the verdict table, each the subject of a rationale
    paragraph in ``docs/security.md``."""

    def test_unsafe_leaks_every_class(self):
        for attack in ATTACK_CLASSES:
            report = leakage_probe(attack, "unsafe")
            assert report["verdict"] == "leaks", attack
            assert report["leaked_bits"] == 1
            assert "probe_timing" in report["leaking_channels"]

    def test_fence_blocks_every_class(self):
        for attack in ATTACK_CLASSES:
            report = leakage_probe(attack, "fence-comp")
            assert report["verdict"] == "blocks", attack
            assert report["leaking_channels"] == []

    def test_stt_residual_channel_is_the_untainted_register(self):
        # tainted transient address: STT stalls it
        assert leakage_probe("prime_probe", "stt-comp")["verdict"] \
            == "blocks"
        # pure-register transient address: STT has nothing to stall
        assert leakage_probe("secret_reg", "stt-comp")["verdict"] \
            == "leaks"

    def test_dom_residual_channel_is_the_lru_hit(self):
        # cold transient access: DOM stalls the miss
        assert leakage_probe("prime_probe", "dom-comp")["verdict"] \
            == "blocks"
        # resident transient access: DOM permits the hit, LRU reorders
        report = leakage_probe("lru_probe", "dom-comp")
        assert report["verdict"] == "leaks"
        assert "probe_timing" in report["leaking_channels"]
        # by construction the hit/miss *counts* stay symmetric — only
        # timing-shaped channels see the reordered victim choice
        assert "cache_state" not in report["leaking_channels"]

    def test_verdicts_are_seed_stable(self):
        for seed in range(3):
            assert leakage_probe("lru_probe", "dom-comp",
                                 seed=seed)["verdict"] == "leaks"
            assert leakage_probe("lru_probe", "stt-comp",
                                 seed=seed)["verdict"] == "blocks"

    def test_mutants_flip_their_cells(self):
        """The oracle self-test primitive: a weakened defense must be
        observed leaking where the intact one blocks."""
        assert leakage_probe("prime_probe", "dom-comp",
                             mutation="dom-leaky-miss")["verdict"] \
            == "leaks"
        assert leakage_probe("prime_probe", "stt-comp",
                             mutation="stt-blind-taint")["verdict"] \
            == "leaks"


class TestCampaign:
    SCHEMES = ["unsafe", "fence-comp", "dom-comp", "stt-comp"]

    def test_expected_verdict_table_shape(self):
        schemes = all_scheme_names()
        assert len(schemes) == 13
        for attack in ATTACK_CLASSES:
            assert expected_verdict(attack, "unsafe") == "leaks"
            for scheme in schemes:
                if scheme.startswith("fence"):
                    assert expected_verdict(attack, scheme) == "blocks"

    def test_campaign_passes_and_reports_the_matrix(self):
        report = run_campaign(scheme_names=self.SCHEMES,
                              attack_names=list(ATTACK_CLASSES),
                              seeds=1, jobs=1)
        assert report["passed"], report["failures"]
        assert report["channels"] == list(CHANNELS)
        artifact = matrix_artifact(report)
        assert artifact["matrix"] == artifact["expected"]
        assert artifact["matrix"]["secret_reg"]["stt-comp"] == "leaks"
        assert artifact["matrix"]["lru_probe"]["dom-comp"] == "leaks"
        checks = {c["mutation"]: c for c in report["self_test"]}
        assert checks["dom-leaky-miss"]["detected"]
        assert checks["stt-blind-taint"]["detected"]
        text = format_report(report)
        assert "PASS" in text and "oracle has teeth" in text

    def test_campaign_is_jobs_invariant(self):
        kwargs = dict(scheme_names=["unsafe", "dom-comp"],
                      attack_names=["lru_probe"], seeds=2,
                      self_test=False)
        serial = run_campaign(jobs=1, **kwargs)
        parallel = run_campaign(jobs=4, **kwargs)
        assert serial["cells"] == parallel["cells"]
        assert matrix_artifact(serial) == matrix_artifact(parallel)

    def test_campaign_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_campaign(scheme_names=["nosuch"], seeds=1)
        with pytest.raises(ValueError, match="unknown attack"):
            run_campaign(attack_names=["nosuch"], seeds=1)
        with pytest.raises(ValueError, match="seeds"):
            run_campaign(seeds=0)


class TestBuildCell:
    def test_build_cell_resolves_attack_names(self):
        config, workload = build_cell("attack:lru_probe:s1:seed2",
                                      1, 1, "dom-comp")
        direct_config, direct = attack_cell("lru_probe", 1, 2, "dom-comp")
        assert workload.fingerprint == direct.fingerprint
        assert cache_key(config, workload) \
            == cache_key(direct_config, direct)

    def test_instructions_and_threads_do_not_change_identity(self):
        name = "attack:prime_probe:s0:seed0"
        assert cache_key(*build_cell(name, 100, 1, "unsafe")) \
            == cache_key(*build_cell(name, 9000, 4, "unsafe"))

    def test_malformed_attack_names_raise_value_error(self):
        for name in ("attack:prime_probe", "attack:prime_probe:s2:seed0",
                     "attack:prime_probe:sX:seed0",
                     "attack:prime_probe:s0:seedX",
                     "attack:nosuch:s0:seed0"):
            with pytest.raises(ValueError):
                build_cell(name, 1, 1, "unsafe")
        with pytest.raises(ValueError, match="unknown scheme"):
            build_cell("attack:prime_probe:s0:seed0", 1, 1, "nosuch")
        with pytest.raises(ValueError, match="unknown scheme"):
            build_cell("mcf_r", 1, 1, "nosuch")
