"""The leakage oracle: differential analysis of an attack pair.

An attack class (``repro.security.attacks``) yields two workloads that
differ only in a secret bit carried by a transient load's address.  The
oracle runs both variants under one scheme — with the invariant
sanitizer on, so a run that leaks is still a *correct* run — and diffs
every timing-observable channel of the two result documents:

* ``probe_timing`` — per-probe dispatch/complete cycles
  (``SimResult.probes``), the attacker's per-line stopwatch;
* ``cache_state`` — the memory-system counters (hits, misses, LLC
  misses, prefetches): aggregate cache-footprint observables;
* ``retire_timing`` — total cycles plus the per-core pipeline counters
  (retire/done cycles, squash counts): frontend-visible timing;
* ``traffic`` — the interconnect counters: what a bus/mesh observer
  sees.

The verdict is ``leaks`` iff *any* channel differs: the secret is one
bit, so any reproducible difference transfers it completely
(``leaked_bits`` = 1).  A scheme blocks the attack only when the two
runs are bit-identical on every channel — the strongest possible
non-interference statement this simulator can make.

Deliberately excluded: the pinning controller's internal statistics
(CST/CPT occupancy and false-positive rates).  Those structures are not
architecturally observable — an attacker cannot read them — and any
*timing* consequence they have necessarily shows up in the four
channels above.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional

from repro.security.attacks import attack_cell
from repro.sim.results import SimResult

#: Channel names, in report order.
CHANNELS = ("probe_timing", "cache_state", "retire_timing", "traffic")

#: Maps one attack variant to its result: (attack, secret, seed, scheme,
#: mutation) -> SimResult.  The campaign injects an executor-backed
#: runner; the default simulates in-process.
VariantRunner = Callable[[str, int, int, str, str], SimResult]


def run_variant(attack: str, secret: int, seed: int, scheme: str,
                mutation: str = "") -> SimResult:
    """Default in-process runner: one sanitized attack-variant run."""
    from repro.sim.runner import run_simulation
    config, workload = attack_cell(attack, secret, seed, scheme)
    config = dataclasses.replace(config, sanitize=True,
                                 defense_mutation=mutation)
    return run_simulation(config, workload)


def _dict_delta(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Differing keys of two flat stat dicts, with both values."""
    delta = {}
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            delta[key] = [a.get(key), b.get(key)]
    return delta


def _probe_delta(r0: SimResult, r1: SimResult) -> Dict[str, Any]:
    """Per-probe timing differences between the two variants."""
    delta: Dict[str, Any] = {}
    probes0 = r0.probes or {}
    probes1 = r1.probes or {}
    for core_id in sorted(set(probes0) | set(probes1)):
        for p0, p1 in zip(probes0.get(core_id, ()),
                          probes1.get(core_id, ())):
            if p0 == p1:
                continue
            lat0 = p0["complete"] - p0["dispatch"]
            lat1 = p1["complete"] - p1["dispatch"]
            delta[f"core{core_id}:line{p0['line']:#x}"] = {
                "latency": [lat0, lat1],
                "dispatch": [p0["dispatch"], p1["dispatch"]],
                "complete": [p0["complete"], p1["complete"]],
            }
    return delta


def compare_variants(r0: SimResult, r1: SimResult) -> Dict[str, Any]:
    """Diff the two runs of an attack pair; see the module docstring.

    Returns a JSON-serializable report: per-channel ``differs`` flags
    with observable deltas, the ``verdict``, and ``leaked_bits``.
    """
    probe_delta = _probe_delta(r0, r1)
    cache_delta = _dict_delta(r0.mem_stats, r1.mem_stats)
    retire0 = {"cycles": r0.cycles}
    retire1 = {"cycles": r1.cycles}
    for core_id, stats in r0.core_stats.items():
        for key, value in stats.items():
            retire0[f"core{core_id}:{key}"] = value
    for core_id, stats in r1.core_stats.items():
        for key, value in stats.items():
            retire1[f"core{core_id}:{key}"] = value
    retire_delta = _dict_delta(retire0, retire1)
    traffic_delta = _dict_delta(r0.network_stats, r1.network_stats)
    channels = {
        "probe_timing": {"differs": bool(probe_delta),
                         "delta": probe_delta},
        "cache_state": {"differs": bool(cache_delta),
                        "delta": cache_delta},
        "retire_timing": {"differs": bool(retire_delta),
                          "delta": retire_delta},
        "traffic": {"differs": bool(traffic_delta),
                    "delta": traffic_delta},
    }
    leaks = any(channel["differs"] for channel in channels.values())
    return {
        "verdict": "leaks" if leaks else "blocks",
        "leaked_bits": 1 if leaks else 0,
        "channels": channels,
        "leaking_channels": [name for name in CHANNELS
                             if channels[name]["differs"]],
    }


def leakage_probe(attack: str, scheme: str, seed: int = 0,
                  mutation: str = "",
                  runner: Optional[VariantRunner] = None) -> Dict[str, Any]:
    """Run one oracle cell: both secret variants, then the diff."""
    if runner is None:
        runner = run_variant
    r0 = runner(attack, 0, seed, scheme, mutation)
    r1 = runner(attack, 1, seed, scheme, mutation)
    report = compare_variants(r0, r1)
    report.update({"attack": attack, "scheme": scheme, "seed": seed})
    if mutation:
        report["mutation"] = mutation
    return report
