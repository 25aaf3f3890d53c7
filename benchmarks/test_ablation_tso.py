"""Ablation (DESIGN.md §6): the aggressive-TSO refinement of §3.3.

The paper's evaluated Late Pinning exploits the TSO implementation in
which the oldest load in the ROB is never MCV-squashed, allowing two
outstanding loads (the oldest plus the pin-on-arrival one).  Under the
conservative rule, every load — including the oldest — must pin on data
arrival, collapsing LP to one outstanding pinned load at a time.  This
ablation quantifies that refinement.
"""

from harness import SPEC_SWEEP_APPS, pinned_result, unsafe_run, write_result
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode
from repro.common.stats import geomean


def _sweep():
    rows = {}
    for mode, label in ((PinningMode.LATE, "lp"),
                        (PinningMode.EARLY, "ep")):
        for aggressive in (True, False):
            cpis = []
            for app in SPEC_SWEEP_APPS:
                result = pinned_result(app, "spec17", DefenseKind.FENCE,
                                       mode, aggressive_tso=aggressive)
                cpis.append(result.cycles
                            / unsafe_run(app, "spec17").cycles)
            key = f"{label}_{'aggressive' if aggressive else 'conservative'}"
            rows[key] = {"geomean_cpi": geomean(cpis),
                         "overhead_pct": (geomean(cpis) - 1) * 100}
    return rows


def test_ablation_aggressive_tso(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_stat_table(
        "Ablation: aggressive vs conservative TSO squash rule (Fence)",
        rows)
    write_result("ablation_tso.txt", table)
    # the oldest-load exemption must help Late Pinning (it enables the
    # second outstanding load of paper Fig. 2c-e)
    assert rows["lp_aggressive"]["geomean_cpi"] \
        <= rows["lp_conservative"]["geomean_cpi"] * 1.01
    # EP depends on it much less: pins happen pre-issue anyway
    lp_gain = (rows["lp_conservative"]["overhead_pct"]
               - rows["lp_aggressive"]["overhead_pct"])
    ep_gain = (rows["ep_conservative"]["overhead_pct"]
               - rows["ep_aggressive"]["overhead_pct"])
    assert lp_gain >= ep_gain - 3.0
