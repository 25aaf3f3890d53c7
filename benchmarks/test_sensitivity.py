"""Design-space sensitivity: how Pinned Loads' benefit scales.

Not a paper figure, but the ablations DESIGN.md §6 calls out: the benefit
of Early Pinning should grow with memory latency (more MLP to recover)
and with window size (more loads to overlap), and the W_L1 (L1
associativity) budget bounds how many lines one set can pin.
"""

from dataclasses import replace

from harness import SPEC_SWEEP_APPS, base_config, run, write_result
from repro.analysis.tables import format_stat_table
from repro.common.params import (CacheParams, CoreParams, DefenseKind,
                                 PinningMode, ThreatModel)
from repro.common.stats import geomean


def _ep_benefit(config) -> float:
    """Fraction of the Fence-Comp overhead that EP removes (geomean over
    the representative apps)."""
    comp_cfg = config.with_defense(DefenseKind.FENCE, ThreatModel.MCV,
                                   PinningMode.NONE)
    ep_cfg = config.with_defense(DefenseKind.FENCE, ThreatModel.MCV,
                                 PinningMode.EARLY)
    unsafe_cfg = config.with_defense(DefenseKind.UNSAFE, ThreatModel.MCV)
    ratios = []
    for app in SPEC_SWEEP_APPS:
        unsafe = run(unsafe_cfg, app, "spec17").cycles
        comp = run(comp_cfg, app, "spec17").cycles / unsafe
        ep = run(ep_cfg, app, "spec17").cycles / unsafe
        removed = (comp - ep) / max(comp - 1.0, 1e-9)
        ratios.append(max(min(removed, 1.0), 1e-3))
    return geomean(ratios)


def _overhead(config, defense, pinning) -> float:
    cfg = config.with_defense(defense, ThreatModel.MCV, pinning)
    unsafe_cfg = config.with_defense(DefenseKind.UNSAFE, ThreatModel.MCV)
    cpis = [run(cfg, app, "spec17").cycles
            / run(unsafe_cfg, app, "spec17").cycles
            for app in SPEC_SWEEP_APPS]
    return (geomean(cpis) - 1.0) * 100.0


def test_dram_latency_sensitivity(benchmark):
    def sweep():
        rows = {}
        for dram in (50, 100, 200):
            config = replace(base_config("spec17"), dram_latency=dram)
            rows[f"dram_{dram}"] = {
                "fence_comp_pct": _overhead(config, DefenseKind.FENCE,
                                            PinningMode.NONE),
                "fence_ep_pct": _overhead(config, DefenseKind.FENCE,
                                          PinningMode.EARLY),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result("sensitivity_dram.txt", format_stat_table(
        "Sensitivity: Fence overhead vs DRAM latency", rows))
    # note: the *relative* Comp overhead can shrink with DRAM latency
    # (the Unsafe baseline gets memory-bound too); the robust invariant
    # is that EP removes a large share of the Comp overhead everywhere
    for dram in (50, 100, 200):
        row = rows[f"dram_{dram}"]
        assert row["fence_ep_pct"] < row["fence_comp_pct"] * 0.75


def test_rob_size_sensitivity(benchmark):
    def sweep():
        rows = {}
        for rob in (64, 192, 384):
            config = replace(base_config("spec17"),
                             core=CoreParams(rob_entries=rob))
            rows[f"rob_{rob}"] = {
                "fence_comp_pct": _overhead(config, DefenseKind.FENCE,
                                            PinningMode.NONE),
                "fence_ep_pct": _overhead(config, DefenseKind.FENCE,
                                          PinningMode.EARLY),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result("sensitivity_rob.txt", format_stat_table(
        "Sensitivity: Fence overhead vs ROB size", rows))
    for rob in (64, 192, 384):
        row = rows[f"rob_{rob}"]
        assert row["fence_ep_pct"] < row["fence_comp_pct"]


def test_l1_associativity_sensitivity(benchmark):
    """W_L1 is the L1 associativity (§5.1.4): fewer ways = fewer pinnable
    lines per set, so EP loses headroom."""
    def sweep():
        rows = {}
        for ways, records in ((2, 2), (4, 4), (8, 8)):
            config = replace(
                base_config("spec17"),
                l1d=CacheParams(size_bytes=32 * 1024, ways=ways,
                                latency=2))
            config = replace(config, pinning=replace(
                config.pinning, l1_cst_records=records))
            rows[f"ways_{ways}"] = {
                "fence_ep_pct": _overhead(config, DefenseKind.FENCE,
                                          PinningMode.EARLY),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result("sensitivity_wl1.txt", format_stat_table(
        "Sensitivity: Fence+EP overhead vs L1 associativity (W_L1)",
        rows))
    # 8-way (Table 1) must not be worse than a 2-way machine for EP
    assert rows["ways_8"]["fence_ep_pct"] \
        <= rows["ways_2"]["fence_ep_pct"] + 3.0
