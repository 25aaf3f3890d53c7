"""Randomized parity of the engine against the ``run_reference`` oracle.

``System.run`` runs every configuration on ``repro.sim.engine`` —
per-scheme specialized closures over precompiled trace arrays, with
build-time variants for InvisiSpec, the defense mutants, sanitized runs
and transient (attack) traces.  The property that keeps that one fast
path honest: for *any* generated workload and *any* configuration —
the 13 paper schemes, InvisiSpec x {comp, lp, ep, spectre}, both
``DEFENSE_MUTATIONS``, sanitizer on or off — with or without chaos
fault injection, the engine must be bit-indistinguishable from the
cycle-by-cycle ``run_reference`` oracle: equal cycle counts, equal
per-core pipeline *and* pinning statistics.  Attack pairs from
``attack_cell`` (transient uops, NOP twins) get the same check.

More properties pin down the seams:

* a snapshot taken mid-run under the engine must resume to the exact
  same end state as an uninterrupted run — including one taken
  mid-transient just after a guard resolved, where the rebuilt engine
  must re-derive its twin view from the restored state;
* every configuration builds an engine, and a restored system rebuilds
  it lazily.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import (DEFENSE_MUTATIONS, ChaosConfig,
                                 DefenseKind, PinningMode, SystemConfig,
                                 ThreatModel)
from repro.security.attacks import ATTACK_CLASSES, attack_cores, \
    attack_workload
from repro.sim.checkpoint import restore_system, snapshot_system
from repro.sim.engine import SpecializedEngine
from repro.sim.runner import collect_result, scheme_grid
from repro.sim.system import System
from repro.workloads import WorkloadProfile, build_workload

BASE = SystemConfig()

#: Label -> config for every scheme the paper measures, plus unsafe.
SCHEMES = dict(
    [("unsafe", BASE)]
    + [(label, BASE.with_defense(defense, threat, pinning))
       for label, (defense, threat, pinning)
       in sorted(scheme_grid().items())])

#: Every engine variant: the paper grid, InvisiSpec under each
#: extension, and each defense mutant on its own scheme.
CONFIGS = dict(SCHEMES)
for _ext, (_threat, _pinning) in {
        "comp": (ThreatModel.MCV, PinningMode.NONE),
        "lp": (ThreatModel.MCV, PinningMode.LATE),
        "ep": (ThreatModel.MCV, PinningMode.EARLY),
        "spectre": (ThreatModel.CTRL, PinningMode.NONE)}.items():
    CONFIGS[f"invisi-{_ext}"] = BASE.with_defense(DefenseKind.INVISI,
                                                  _threat, _pinning)
for _mutation in DEFENSE_MUTATIONS:
    _family = _mutation.split("-", 1)[0]
    for _ext in ("comp", "ep"):
        CONFIGS[f"{_family}-{_ext}+{_mutation}"] = dataclasses.replace(
            SCHEMES[f"{_family}-{_ext}"], defense_mutation=_mutation)

#: Every fault class on: jitter+reorder, NACKs, evictions, WB spikes.
CHAOS = ChaosConfig(seed=3, wb_spike_interval=300)

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("soa"),
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

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _variant(label, chaos=False, sanitize=False, num_cores=1):
    replacements = {"num_cores": num_cores, "sanitize": sanitize}
    if chaos:
        replacements["chaos"] = CHAOS
    return dataclasses.replace(CONFIGS[label], **replacements)


def _fresh(config, workload):
    system = System(config, workload)
    system.mem.warm(workload)
    return system


def _assert_indistinguishable(opt, ref, label):
    assert opt.cycles == ref.cycles, label
    for oc, rc in zip(opt.cores, ref.cores):
        assert oc.stats.as_dict() == rc.stats.as_dict(), \
            f"{label}: core {oc.core_id} pipeline stats"
        assert oc.controller.stats.as_dict() \
            == rc.controller.stats.as_dict(), \
            f"{label}: core {oc.core_id} pinning stats"
        assert oc.retired == rc.retired, label


def _assert_matches_reference(config, workload, label):
    opt = _fresh(config, workload)
    opt.run()
    ref = _fresh(config, workload)
    ref.run_reference()
    _assert_indistinguishable(opt, ref, label)


class TestEngineMatchesReference:
    @settings(SLOW, max_examples=20)
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(CONFIGS)),
           chaos=st.booleans(),
           sanitize=st.booleans())
    def test_engine_matches_reference(self, profile, seed, label, chaos,
                                      sanitize):
        """For any workload, configuration, and fault schedule, the
        engine run must match ``run_reference`` on cycles and every
        per-core statistic."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        _assert_matches_reference(
            _variant(label, chaos, sanitize), workload,
            f"{label} chaos={chaos} sanitize={sanitize} seed={seed}")

    @SLOW
    @given(attack=st.sampled_from(ATTACK_CLASSES),
           secret=st.sampled_from([0, 1]),
           seed=st.integers(min_value=0, max_value=3),
           label=st.sampled_from(sorted(CONFIGS)),
           chaos=st.booleans(),
           sanitize=st.booleans())
    def test_attack_pairs_match_reference(self, attack, secret, seed, label,
                                          chaos, sanitize):
        """Transient traces: guarded uops execute until their guard
        resolves and replay as NOP twins — the engine's twin view must
        reproduce the reference dispatch exactly."""
        workload = attack_workload(attack, secret, seed)
        config = _variant(label, chaos, sanitize, attack_cores(attack))
        _assert_matches_reference(
            config, workload,
            f"{attack}:s{secret}:seed{seed} {label} chaos={chaos} "
            f"sanitize={sanitize}")


class TestCheckpointMidRun:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(CONFIGS)),
           fraction=st.floats(min_value=0.1, max_value=0.9))
    def test_snapshot_resume_bit_identity(self, profile, seed, label,
                                          fraction):
        """A snapshot taken mid-run under the engine, restored into a
        fresh process-local ``System``, must finish with exactly the
        state an uninterrupted run reaches."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = CONFIGS[label]
        straight = _fresh(config, workload)
        total = straight.run()
        paused = _fresh(config, workload)
        paused.run(stop_cycle=max(1, int(total * fraction)))
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        _assert_indistinguishable(resumed, straight,
                                  f"{label} seed={seed} f={fraction:.2f}")

    @pytest.mark.parametrize("label", ["unsafe", "dom-ep", "invisi-comp"])
    @pytest.mark.parametrize("attack", ATTACK_CLASSES)
    def test_resume_after_guard_resolved(self, attack, label):
        """Pause at the first cycle a guard has resolved, while its
        transient uops still wait to replay: the engine rebuilt after
        the restore must read them as NOP twins, or the replay would
        re-execute the wrong path."""
        workload = attack_workload(attack, 1, 0)
        config = _variant(label, num_cores=attack_cores(attack))
        straight = _fresh(config, workload)
        straight.run()
        expected = collect_result(straight).to_dict()
        guards = {uop.guard for trace in workload.traces for uop in trace
                  if uop.guard is not None}
        paused = _fresh(config, workload)
        while not any(core._resolved_mispredicts & guards
                      for core in paused.cores):
            paused.run(stop_cycle=paused.cycles + 1)
            assert not paused.done, "no guard resolved before the end"
        replay_pending = [
            core for core in paused.cores
            if any(uop.guard in core._resolved_mispredicts
                   and uop.index >= core._cursor for uop in core.trace)]
        assert replay_pending, "every neutered uop already replayed"
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        assert collect_result(resumed).to_dict() == expected


class TestEveryConfigBuildsEngine:
    def _workload(self):
        profile = WorkloadProfile(name="soa-engine", load_frac=0.25,
                                  store_frac=0.1)
        return build_workload(profile, seed=7,
                              instructions_per_thread=150)

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_config_runs_on_engine(self, label, sanitize):
        """No configuration falls back to another loop: mid-run the
        system holds an engine, and it finishes matching the oracle."""
        workload = self._workload()
        config = _variant(label, sanitize=sanitize)
        opt = _fresh(config, workload)
        opt.run(stop_cycle=20)
        assert isinstance(opt._engine, SpecializedEngine), label
        opt.run()
        assert opt.done and opt._engine is None, \
            f"{label}: a finished run keeps its engine"
        ref = _fresh(config, workload)
        ref.run_reference()
        _assert_indistinguishable(opt, ref, f"{label} sanitize={sanitize}")

    def test_restored_system_rebuilds_engine_lazily(self):
        """``__getstate__`` drops the compiled engine; the next ``run``
        after a restore must rebuild it rather than crash."""
        paused = _fresh(SCHEMES["dom-ep"], self._workload())
        paused.run(stop_cycle=50)
        resumed = restore_system(snapshot_system(paused))
        assert resumed._engine is None
        resumed.run(stop_cycle=60)
        assert isinstance(resumed._engine, SpecializedEngine)
