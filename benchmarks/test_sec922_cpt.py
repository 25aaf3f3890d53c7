"""§9.2.2: Cannot-Pin Table size study.

With an ideal (unbounded) CPT, measure how many lines it actually holds on
the parallel suites (paper: average ~1, max 4-7), then confirm the default
4-entry CPT virtually never overflows.
"""

from harness import pinned_result, suite_apps, write_result
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode


def _occupancy_rows():
    rows = {}
    for app in suite_apps("parallel"):
        ideal = pinned_result(app, "parallel", DefenseKind.DOM,
                              PinningMode.EARLY, ideal_cpt=True)
        sized = pinned_result(app, "parallel", DefenseKind.DOM,
                              PinningMode.EARLY, ideal_cpt=False)
        max_occ = max(stats.get("cpt_max_occupancy", 0)
                      for stats in ideal.pinning_stats.values())
        mean_occ = max(stats.get("cpt_mean_occupancy", 0.0)
                       for stats in ideal.pinning_stats.values())
        overflow = max(stats.get("cpt_overflow_rate", 0.0)
                       for stats in sized.pinning_stats.values())
        rows[app] = {"ideal_max": max_occ, "ideal_mean": mean_occ,
                     "overflow_rate_4entries": overflow}
    return rows


def test_sec922_cpt_occupancy(benchmark):
    rows = benchmark.pedantic(_occupancy_rows, rounds=1, iterations=1)
    table = format_stat_table(
        "Sec 9.2.2: CPT occupancy with an ideal CPT (DOM+EP, 8 threads)",
        rows)
    write_result("sec922_cpt.txt", table)
    worst_max = max(r["ideal_max"] for r in rows.values())
    worst_mean = max(r["ideal_mean"] for r in rows.values())
    worst_overflow = max(r["overflow_rate_4entries"] for r in rows.values())
    # paper: the CPT only ever needs to hold a handful of lines (max 4-7)
    # and the mean occupancy is around one line
    assert worst_max <= 8
    assert worst_mean <= 2.0
    # and the 4-entry CPT (Table 1) essentially never overflows
    assert worst_overflow <= 0.01
