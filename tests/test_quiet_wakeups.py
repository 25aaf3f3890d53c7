"""Randomized soundness of the quiet-skip wakeup contract.

``System.run`` fast-forwards over cycles every live core declares quiet
(the ``_wake_pending`` contract).  The property that keeps the
optimization honest is: for *any* generated workload and *any* scheme,
with or without chaos fault injection, ``run`` must be
indistinguishable from the cycle-by-cycle ``run_reference`` loop —
equal cycle counts and equal per-core pipeline *and* pinning
statistics.  ``tests/test_soa_parity.py`` asserts the same parity over
multi-core workloads and attack pairs.

Sanitized runs (``config.sanitize``) are the escape hatch: the
engine's sanitized variant calls ``Sanitizer.check_tick`` after every
tick and never quiet-skips, because the per-tick invariant checks are
observations that a skipped cycle would silently drop.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import ChaosConfig, SystemConfig
from repro.sim.runner import scheme_grid
from repro.sim.system import System
from repro.workloads import WorkloadProfile, build_workload

BASE = SystemConfig()

#: Label -> config for every scheme the paper measures, plus unsafe.
SCHEMES = dict(
    [("unsafe", BASE)]
    + [(label, BASE.with_defense(defense, threat, pinning))
       for label, (defense, threat, pinning)
       in sorted(scheme_grid().items())])

#: Every fault class on: jitter+reorder, NACKs, evictions, WB spikes.
CHAOS = ChaosConfig(seed=3, wb_spike_interval=300)

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("quiet"),
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


def _run_both(config, workload):
    """Fresh systems through both loops; returns (optimized, reference)."""
    opt = System(config, workload)
    opt.mem.warm(workload)
    opt.run()
    ref = System(config, workload)
    ref.mem.warm(workload)
    ref.run_reference()
    return opt, ref


def _assert_indistinguishable(opt, ref, label):
    assert opt.cycles == ref.cycles, label
    for oc, rc in zip(opt.cores, ref.cores):
        assert oc.stats.as_dict() == rc.stats.as_dict(), \
            f"{label}: core {oc.core_id} pipeline stats"
        assert oc.controller.stats.as_dict() \
            == rc.controller.stats.as_dict(), \
            f"{label}: core {oc.core_id} pinning stats"
        assert oc.retired == rc.retired, label


class TestQuietUntilSoundness:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(SCHEMES)),
           chaos=st.booleans())
    def test_run_matches_reference(self, profile, seed, label, chaos):
        """Fast-forward may only skip provably dead cycles: for any
        workload, scheme, and fault schedule, ``run`` must match
        ``run_reference`` on cycles and every per-core statistic."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = SCHEMES[label]
        if chaos:
            config = dataclasses.replace(config, chaos=CHAOS)
        opt, ref = _run_both(config, workload)
        _assert_indistinguishable(opt, ref,
                                  f"{label} chaos={chaos} seed={seed}")


class TestSanitizedRunsNeverSkip:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(SCHEMES)),
           threads=st.sampled_from([1, 2]))
    def test_sanitized_run_visits_every_cycle(self, profile, seed, label,
                                              threads):
        """With the sanitizer attached, every live core is checked at
        every cycle: core ``c`` at exactly cycles ``1..done_cycle(c)``."""
        workload = build_workload(profile, seed=seed, num_threads=threads,
                                  instructions_per_thread=200)
        config = dataclasses.replace(SCHEMES[label], num_cores=threads,
                                     sanitize=True)
        system = System(config, workload)
        system.mem.warm(workload)
        checked = {core.core_id: [] for core in system.cores}
        check_tick = system.sanitizer.check_tick

        # shadow the hook before the first run builds the engine, which
        # binds it; the real checks still run
        def recording_check(core):
            checked[core.core_id].append(core.cycle)
            check_tick(core)

        system.sanitizer.check_tick = recording_check
        cycles = system.run()
        for core in system.cores:
            assert checked[core.core_id] \
                == list(range(1, core.done_cycle + 1)), \
                f"{label}: core {core.core_id}"
        assert max(core.done_cycle for core in system.cores) == cycles
