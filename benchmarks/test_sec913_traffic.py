"""§9.1.3: network traffic overhead of Pinned Loads.

The paper reports that enabling Pinned Loads has no significant impact on
traffic because very few writes and evictions retry due to pinning: at
worst 14.8 retried writes and 0.05 retried evictions per million
instructions.  We measure the same counters across the parallel suite
under EP and compare total message counts against the unextended scheme.
"""

from harness import base_config, run, suite_apps, write_result
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode, ThreatModel


def _traffic_rows():
    rows = {}
    base = base_config("parallel")
    for app in suite_apps("parallel"):
        comp = run(base.with_defense(DefenseKind.DOM, ThreatModel.MCV,
                                     PinningMode.NONE), app, "parallel")
        ep = run(base.with_defense(DefenseKind.DOM, ThreatModel.MCV,
                                   PinningMode.EARLY), app, "parallel")
        insns = ep.instructions
        rows[app] = {
            "wr_retry_per_Mi": ep.mem_stats.get("write_retries", 0)
            * 1e6 / insns,
            "ev_retry_per_Mi": ep.mem_stats.get("eviction_retries", 0)
            * 1e6 / insns,
            "wr_retry_frac": (ep.mem_stats.get("write_retries", 0)
                              / max(ep.mem_stats.get("stores", 1), 1)),
            "msg_ratio_ep_vs_comp": (
                ep.network_stats.get("messages", 0)
                / max(comp.network_stats.get("messages", 1), 1)),
        }
    return rows


def test_sec913_network_traffic(benchmark):
    rows = benchmark.pedantic(_traffic_rows, rounds=1, iterations=1)
    table = format_stat_table(
        "Sec 9.1.3: Pinned Loads traffic overhead (DOM+EP, parallel suite)",
        rows)
    write_result("sec913_traffic.txt", table)
    worst_retry_frac = max(r["wr_retry_frac"] for r in rows.values())
    worst_ratio = max(r["msg_ratio_ep_vs_comp"] for r in rows.values())
    # shape: retried writes are rare.  The paper reports <= 14.8 per Minsn
    # on 50M-instruction runs; at our trace lengths the robust equivalent
    # is the retry-to-write ratio, which must stay well under 2%
    assert worst_retry_frac < 0.02
    # and total traffic is essentially unchanged
    assert worst_ratio < 1.25
