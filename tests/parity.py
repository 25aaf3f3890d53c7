"""Never-skip parity: the reference a normal run is checked against.

``System.run`` fast-forwards: a core whose quiet probe proves its next
ticks are no-ops is skipped (the ``_wake_pending`` contract), and the
clock jumps when every core is quiet.  A sanitized system
(``SystemConfig.sanitize``) builds the same engine with ``_never_quiet``,
so every live core ticks every cycle and nothing is skipped.  Running a
config plain and sanitized and comparing every counter (cycles, every
per-core pipeline and pinning counter, memory and network counters,
probe timing) therefore checks the fast-forward against the
cycle-by-cycle run of the same code.

The per-cycle semantics themselves are pinned by ``GOLDEN_STATS.json``
(``tests/test_golden_stats.py``), and CI compares every counter against
the merge-base tree on random cells (``python -m tests.golden_stats
--random``).

Shared by ``test_soa_parity``, ``test_quiet_wakeups`` and
``test_executor``.
"""

import dataclasses

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.common.params import SystemConfig
from repro.workloads import WorkloadProfile
from tests import golden_stats

BASE = SystemConfig()

#: Label -> config for every scheme the paper measures, plus unsafe.
SCHEMES = {label: golden_stats.scheme_config_of(label, BASE)
           for label in golden_stats.SCHEMES}

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("parity"),
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
    # multi-threaded draws only: coherence traffic between the cores
    read_shared_frac=st.floats(min_value=0.0, max_value=0.3),
    write_shared_frac=st.floats(min_value=0.0, max_value=0.3),
)

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def never_skip(config: SystemConfig) -> SystemConfig:
    """The same config on the engine build that ticks every cycle."""
    return dataclasses.replace(config, sanitize=True)


def assert_same_counters(actual, expected, label) -> None:
    """Every counter equal; a failure lists each one that moved."""
    moved = golden_stats.diff(expected, actual)
    assert not moved, (f"{label}: {len(moved)} counter(s) differ from "
                       "the never-skip run (never-skip -> run):\n  "
                       + "\n  ".join(moved))


def assert_matches_never_skip(config, workload, label) -> None:
    """Fresh warmed systems, ``config`` and its never-skip twin, run to
    completion: every counter must agree."""
    assert_same_counters(golden_stats.run_counters(config, workload),
                         golden_stats.run_counters(never_skip(config),
                                                   workload),
                         label)
