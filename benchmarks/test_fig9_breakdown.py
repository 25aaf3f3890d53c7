"""Figure 9: overhead breakdown by squash source for each defense scheme,
next to the total overheads of the LP- and EP-extended schemes.

Combines the Figure 1-style stacked bars (per scheme x suite) with the LP
and EP overheads from the Figure 7/8 grids — all runs shared through the
process-wide cache.
"""

from harness import (SCHEMES, grid_normalized_cpis, level_cycles,
                     suite_apps, write_result)
from repro.analysis.breakdown import geomean_stack
from repro.analysis.tables import format_breakdown_table
from repro.common.params import DefenseKind
from repro.common.stats import geomean

DEFENSES = {"fence": DefenseKind.FENCE, "dom": DefenseKind.DOM,
            "stt": DefenseKind.STT}
SUITES = ("spec17", "parallel")


def _group(scheme: str, suite: str):
    apps = suite_apps(suite)
    stack = geomean_stack([level_cycles(app, suite, DEFENSES[scheme])
                           for app in apps])
    extras = {}
    for ext in ("lp", "ep"):
        cpis = [grid_normalized_cpis(app, suite)[f"{scheme}-{ext}"]
                for app in apps]
        extras[ext.upper()] = (geomean(cpis) - 1.0) * 100.0
    return stack, extras


def test_fig9_breakdown(benchmark):
    def build():
        stacks, extras = {}, {}
        for scheme in SCHEMES:
            for suite in SUITES:
                label = f"{scheme.upper()} {suite}"
                stacks[label], extras[label] = _group(scheme, suite)
        return stacks, extras

    stacks, extras = benchmark.pedantic(build, rounds=1, iterations=1)
    table = format_breakdown_table(
        "Figure 9: overhead breakdown (Comp) and LP/EP total overheads",
        stacks, extras)
    write_result("fig9.txt", table)
    for label, stack in stacks.items():
        comp_total = sum(stack.values())
        # LP and EP mainly remove the MCV share: the extended schemes must
        # land between the Ctrl-only floor and the full Comp overhead
        assert extras[label]["EP"] <= comp_total * 1.02, label
        assert extras[label]["LP"] <= comp_total * 1.02, label
        assert extras[label]["EP"] >= stack["ctrl"] * 0.5, label
        # the removed overhead comes out of the MCV share
        removed = comp_total - extras[label]["EP"]
        assert removed <= stack["mcv"] * 1.3 + 5.0, label
