"""Randomized parity of the engine against its never-skip build.

``System.run`` runs every configuration on ``repro.sim.engine`` —
per-scheme specialized closures over precompiled trace arrays, with
build-time variants for InvisiSpec, the defense mutants, sanitized runs
and transient (attack) traces — and fast-forwards over cycles it proves
quiet.  The property that keeps the fast-forward honest: for *any*
generated workload (1, 2 or 4 threads, with barriers) and *any*
configuration — the 13 paper schemes, InvisiSpec x {comp, lp, ep,
spectre}, both ``DEFENSE_MUTATIONS`` — with or without chaos fault
injection and with or without a 7-bit LQ-ID tag (pinned runs then wrap
it and drain), a run must be bit-indistinguishable from the same config
with ``sanitize=True``, whose engine ticks every live core every cycle
(``tests/parity.py``): equal cycles and equal counters, every one.
Attack pairs from ``attack_cell`` (transient uops, NOP twins) get the
same check.  What the cycle-by-cycle semantics are is pinned by
``GOLDEN_STATS.json``.

One more property pins down the seam: every configuration, sanitized
or not, runs on exactly one ``SpecializedEngine`` per ``System.run``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.attacks import ATTACK_CLASSES, attack_cores, \
    attack_workload
from repro.sim import engine
from repro.sim.engine import SpecializedEngine
from repro.sim.system import System
from repro.workloads import WorkloadProfile, build_workload
from tests import golden_stats
from tests.golden_stats import CHAOS
from tests.parity import (BASE, PROFILES, SLOW, assert_matches_never_skip,
                          assert_same_counters, never_skip)

#: Every engine variant: the paper grid, InvisiSpec under each
#: extension, and each defense mutant on its own scheme.
CONFIGS = {label: golden_stats.scheme_config_of(label, BASE)
           for label in golden_stats.SCHEMES + golden_stats.INVISI
           + golden_stats.MUTANTS}


def _variant(label, chaos=False, sanitize=False, num_cores=1):
    replacements = {"num_cores": num_cores, "sanitize": sanitize}
    if chaos:
        replacements["chaos"] = CHAOS
    return dataclasses.replace(CONFIGS[label], **replacements)


def _fresh(config, workload):
    system = System(config, workload)
    system.mem.warm(workload)
    return system


class TestEngineMatchesReference:
    @settings(SLOW, max_examples=20)
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           threads=st.sampled_from([1, 2, 4]),
           barriers=st.integers(min_value=0, max_value=3),
           label=st.sampled_from(sorted(CONFIGS)),
           chaos=st.booleans(),
           lqid7=st.booleans())
    def test_engine_matches_reference(self, profile, seed, threads,
                                      barriers, label, chaos, lqid7):
        """For any workload, configuration, and fault schedule, a run
        must match its never-skip run on cycles and every counter; 2-
        and 4-thread draws reach the multi-core loop's per-core skip
        and barrier wakeups, and a 7-bit LQ-ID tag the §6.2 drain of
        the pin chain (about half of such pinned draws wrap)."""
        profile = dataclasses.replace(profile, barriers=barriers)
        workload = build_workload(profile, seed=seed, num_threads=threads,
                                  instructions_per_thread=250)
        config = _variant(label, chaos, num_cores=threads)
        if lqid7:
            config = golden_stats.with_lqid7(config)
        assert_matches_never_skip(
            config, workload,
            f"{label} chaos={chaos} lqid7={lqid7} threads={threads} "
            f"barriers={barriers} seed={seed}")

    @SLOW
    @given(attack=st.sampled_from(ATTACK_CLASSES),
           secret=st.sampled_from([0, 1]),
           seed=st.integers(min_value=0, max_value=3),
           label=st.sampled_from(sorted(CONFIGS)),
           chaos=st.booleans())
    def test_attack_pairs_match_reference(self, attack, secret, seed, label,
                                          chaos):
        """Transient traces: guarded uops execute until their guard
        resolves and replay as NOP twins — the fast-forward must not
        change when the twin view is re-synced."""
        workload = attack_workload(attack, secret, seed)
        config = _variant(label, chaos, num_cores=attack_cores(attack))
        assert_matches_never_skip(
            config, workload,
            f"{attack}:s{secret}:seed{seed} {label} chaos={chaos}")


class TestEveryConfigBuildsEngine:
    def _workload(self):
        profile = WorkloadProfile(name="soa-engine", load_frac=0.25,
                                  store_frac=0.1)
        return build_workload(profile, seed=7,
                              instructions_per_thread=150)

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_config_runs_on_engine(self, label, sanitize, monkeypatch):
        """No configuration falls back to another loop: the run builds
        exactly one engine, and it finishes with the counters of the
        never-skip run (for a sanitized config, of a second sanitized
        run)."""
        built = []
        real_build = engine.build_engine

        def build_engine(system):
            built.append(real_build(system))
            return built[-1]

        monkeypatch.setattr(engine, "build_engine", build_engine)
        workload = self._workload()
        config = _variant(label, sanitize=sanitize)
        opt = _fresh(config, workload)
        opt.run()
        assert len(built) == 1, f"{label}: {len(built)} engine builds"
        assert isinstance(built[0], SpecializedEngine), label
        assert opt.done, label
        assert_same_counters(
            golden_stats.counters(opt),
            golden_stats.run_counters(never_skip(config), workload),
            f"{label} sanitize={sanitize}")
