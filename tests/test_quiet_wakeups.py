"""Randomized soundness of the quiet-skip wakeup contract.

``System.run`` fast-forwards over cycles every live core declares quiet
(the ``_wake_pending`` contract).  The property that keeps the
optimization honest is: for *any* generated workload and *any* scheme,
with or without chaos fault injection, ``run`` must be
indistinguishable from the never-skip build of the same config
(``sanitize=True``, which ticks every live core every cycle) — equal
cycles and every counter equal (``tests/parity.py``).
``tests/test_soa_parity.py`` asserts the same parity over multi-core
workloads, InvisiSpec, the mutants and attack pairs.

That reference only holds if sanitized runs really never skip: the
engine's sanitized variant calls ``Sanitizer.check_tick`` after every
tick and never quiet-skips, because the per-tick invariant checks are
observations that a skipped cycle would silently drop.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.system import System
from repro.workloads import build_workload
from tests.golden_stats import CHAOS
from tests.parity import PROFILES, SCHEMES, SLOW, assert_matches_never_skip


class TestQuietUntilSoundness:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(SCHEMES)),
           chaos=st.booleans())
    def test_run_matches_reference(self, profile, seed, label, chaos):
        """Fast-forward may only skip provably dead cycles: for any
        workload, scheme, and fault schedule, ``run`` must match the
        never-skip run on cycles and every counter."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = SCHEMES[label]
        if chaos:
            config = dataclasses.replace(config, chaos=CHAOS)
        assert_matches_never_skip(config, workload,
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
