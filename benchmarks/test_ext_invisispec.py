"""Extension study: Pinned Loads on an invisible-speculation defense.

The paper's §4 lists invisible-execution schemes (InvisiSpec-class) among
the baselines Pinned Loads can augment but does not evaluate one.  This
benchmark runs our InvisiSpec-like scheme through the same Comp / LP /
EP / Spectre grid on the SPEC17 suite: earlier VPs start validations
earlier and overlap them, so pinning recovers most of the double-access
cost under the Comprehensive model.
"""

from harness import run, base_config, suite_apps, unsafe_run, write_result
from repro.analysis.tables import format_normalized_cpi_table
from repro.common.params import DefenseKind, PinningMode, ThreatModel
from repro.common.stats import geomean

SUITE = "spec17"
CELLS = [("comp", ThreatModel.MCV, PinningMode.NONE),
         ("lp", ThreatModel.MCV, PinningMode.LATE),
         ("ep", ThreatModel.MCV, PinningMode.EARLY),
         ("spectre", ThreatModel.CTRL, PinningMode.NONE)]


def _panel():
    apps = suite_apps(SUITE)
    base = base_config(SUITE)
    data = {}
    for app in apps:
        unsafe = unsafe_run(app, SUITE)
        row = {}
        for label, threat, pin in CELLS:
            config = base.with_defense(DefenseKind.INVISI, threat, pin)
            row[label] = run(config, app, SUITE).cycles / unsafe.cycles
        data[app] = row
    return apps, data


def test_ext_invisispec_grid(benchmark):
    apps, data = benchmark.pedantic(_panel, rounds=1, iterations=1)
    table = format_normalized_cpi_table(
        "Extension: invisible speculation (InvisiSpec-class) x Pinned "
        "Loads, SPEC17", apps, [c[0] for c in CELLS], data)
    write_result("ext_invisispec.txt", table)
    means = {label: geomean([data[app][label] for app in apps])
             for label, _, _ in CELLS}
    # the same headline shape as the paper's three schemes
    assert means["comp"] > means["lp"]
    assert means["comp"] > means["ep"]
    assert means["ep"] >= means["spectre"] * 0.9
    # and pinning removes at least a third of the Comp overhead
    assert (means["ep"] - 1) < (means["comp"] - 1) * 0.67
