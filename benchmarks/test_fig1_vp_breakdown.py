"""Figure 1: overhead added by each reason a load's VP is delayed.

A fence-based defense is run with the fence removed at four successively
later points (Ctrl / +Alias / +Exception / +MCV); the stacked differences
attribute the execution overhead per squash source.  The paper's finding —
that waiting out potential MCVs dominates — is asserted.
"""

from harness import level_cycles, suite_apps, write_result
from repro.analysis.breakdown import geomean_stack
from repro.analysis.tables import format_breakdown_table
from repro.common.params import DefenseKind

SUITES = ("spec17", "splash2", "parsec")


def _suite_apps(suite):
    if suite == "spec17":
        return suite_apps("spec17")
    from repro.workloads import PARSEC_NAMES, SPLASH2_NAMES
    return list(SPLASH2_NAMES if suite == "splash2" else PARSEC_NAMES)


def _stack_for(suite):
    apps = _suite_apps(suite)
    lookup_suite = "spec17" if suite == "spec17" else "parallel"
    per_app = [level_cycles(app, lookup_suite, DefenseKind.FENCE)
               for app in apps]
    return geomean_stack(per_app)


def test_fig1_vp_condition_breakdown(benchmark):
    stacks = benchmark.pedantic(
        lambda: {suite: _stack_for(suite) for suite in SUITES},
        rounds=1, iterations=1)
    table = format_breakdown_table(
        "Figure 1: geomean execution overhead of Fence by VP condition",
        stacks)
    write_result("fig1.txt", table)
    for suite, stack in stacks.items():
        # the paper's central observation, per suite: the MCV condition
        # delays the VP far more than aliasing or exceptions, and more
        # than branch resolution
        assert stack["mcv"] > stack["alias"], suite
        assert stack["mcv"] > stack["exception"], suite
        assert stack["mcv"] > stack["ctrl"], suite
        assert stack["ctrl"] > 0, suite
