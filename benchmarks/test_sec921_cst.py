"""§9.2.1: Cache Shadow Table configuration sensitivity.

Measures (a) false-positive denial rates of the default CST geometry and
(b) the execution overhead of the chosen configuration against an infinite
CST, sweeping CST sizes on the representative app subset.
"""

from harness import (SPEC_SWEEP_APPS, pinned_result, unsafe_run,
                     write_result)
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode
from repro.common.stats import geomean

#: (label, l1 entries, l1 records, dir entries, dir records)
CST_SIZES = [
    ("half", 6, 4, 20, 2),
    ("default", 12, 8, 40, 2),
    ("double", 24, 8, 80, 2),
    ("infinite", 12, 8, 40, 2),     # infinite_cst flag set below
]


def _sweep():
    rows = {}
    for label, l1e, l1r, dire, dirr in CST_SIZES:
        cpis = []
        fp_l1, fp_dir = [], []
        for app in SPEC_SWEEP_APPS:
            result = pinned_result(
                app, "spec17", DefenseKind.FENCE, PinningMode.EARLY,
                l1_cst_entries=l1e, l1_cst_records=l1r,
                dir_cst_entries=dire, dir_cst_records=dirr,
                infinite_cst=(label == "infinite"))
            cpis.append(result.cycles / unsafe_run(app, "spec17").cycles)
            stats = result.pinning_stats[0]
            fp_l1.append(stats.get("cst_l1_fp_rate", 0.0))
            fp_dir.append(stats.get("cst_dir_fp_rate", 0.0))
        rows[label] = {
            "geomean_cpi": geomean(cpis),
            "l1_fp_rate": sum(fp_l1) / len(fp_l1),
            "dir_fp_rate": sum(fp_dir) / len(fp_dir),
        }
    return rows


def test_sec921_cst_sensitivity(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_stat_table(
        "Sec 9.2.1: CST size sensitivity (Fence+EP, representative apps)",
        rows)
    write_result("sec921_cst.txt", table)
    # infinite CST never denies
    assert rows["infinite"]["l1_fp_rate"] == 0.0
    assert rows["infinite"]["dir_fp_rate"] == 0.0
    # bigger tables deny less
    assert rows["double"]["dir_fp_rate"] <= rows["half"]["dir_fp_rate"]
    # the chosen configuration costs only a little over infinite
    # (paper: +3.6% on average)
    overhead_vs_infinite = (rows["default"]["geomean_cpi"]
                            / rows["infinite"]["geomean_cpi"] - 1.0) * 100
    assert overhead_vs_infinite < 15.0
    # and monotone: default is no faster than infinite
    assert rows["default"]["geomean_cpi"] \
        >= rows["infinite"]["geomean_cpi"] * 0.999
