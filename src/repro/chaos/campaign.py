"""The chaos campaign: N seeded fault-injection runs per cell, asserted
architecturally identical (``repro chaos``).

Chaos only perturbs *timing*, so for every (workload, scheme) cell and
every seed the run must retire exactly the same instruction stream as
the fault-free baseline, with the invariant sanitizer silent throughout.
The campaign compares an *architectural fingerprint* per run:

* per-core retired-instruction count and ``retire_sig`` — a running
  FNV-1a hash over retired uop indices, which catches dropped, doubled,
  or out-of-order retirement that a bare count would miss;
* per-core branch-squash count — timing-independent (each mispredicted
  branch squashes exactly once, at resolution);
* the total number of performed stores.

Deliberately excluded: cycle counts, MCV/alias squash counts, cache and
network statistics — those are *supposed* to move under fault injection.

The campaign also self-tests its own teeth: a deliberately broken
mutant (``mutate="evict-pinned"``, which lets forced evictions target
pinned lines in violation of §5.1.3) must be caught by the sanitizer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.errors import InvariantViolation
from repro.common.params import ChaosConfig, SystemConfig
from repro.isa.trace import Workload
from repro.sim.results import SimResult
from repro.sim.runner import build_cell, run_simulation

#: Campaign-wide chaos knobs layered over ``ChaosConfig`` defaults: the
#: write-buffer spike generator is off by default (interval 0) but the
#: campaign wants every fault class exercised.
CAMPAIGN_CHAOS_DEFAULTS = {"wb_spike_interval": 400}


def architectural_fingerprint(result: SimResult) -> Dict:
    """The timing-independent outcome of one run (see module docs)."""
    cores = {}
    for core_id in sorted(result.core_stats):
        stats = result.core_stats[core_id]
        cores[str(core_id)] = {
            "retired": stats.get("retired", 0.0),
            "retire_sig": stats.get("retire_sig", 0.0),
            "squashes_branch": stats.get("squashes_branch", 0.0),
        }
    return {
        "instructions": result.instructions,
        "stores": result.mem_stats.get("stores", 0.0),
        "cores": cores,
    }


def _fingerprint_diff(baseline: Dict, other: Dict) -> List[str]:
    """Human-readable field-level differences between two fingerprints."""
    diffs: List[str] = []
    for field in ("instructions", "stores"):
        if baseline[field] != other[field]:
            diffs.append(f"{field}: {baseline[field]} != {other[field]}")
    core_ids = sorted(set(baseline["cores"]) | set(other["cores"]))
    for core_id in core_ids:
        base_core = baseline["cores"].get(core_id, {})
        other_core = other["cores"].get(core_id, {})
        for field in sorted(set(base_core) | set(other_core)):
            a, b = base_core.get(field), other_core.get(field)
            if a != b:
                diffs.append(f"core {core_id} {field}: {a} != {b}")
    return diffs


def _chaos_config(seed: int, overrides: Optional[Dict]) -> ChaosConfig:
    knobs = dict(CAMPAIGN_CHAOS_DEFAULTS)
    if overrides:
        knobs.update(overrides)
    return ChaosConfig(seed=seed, **knobs)


def _simulate(config: SystemConfig, workload: Workload,
              chaos: Optional[ChaosConfig]) -> SimResult:
    """One sanitized run, under ``chaos`` or fault-free; raises
    ``InvariantViolation`` when the sanitizer trips."""
    return run_simulation(
        dataclasses.replace(config, sanitize=True, chaos=chaos), workload)


def _run_cell(config: SystemConfig, workload: Workload, scheme: str,
              seeds: int, overrides: Optional[Dict]) -> Dict:
    """One (workload, scheme) cell: sanitized baseline + N chaos seeds."""
    baseline = _simulate(config, workload, None)
    expected = architectural_fingerprint(baseline)
    cell = {
        "workload": baseline.workload_name,
        "scheme": scheme,
        "baseline_cycles": baseline.cycles,
        "seed_runs": [],
        "divergences": [],
        "violations": [],
    }
    for seed in range(seeds):
        try:
            result = _simulate(config, workload,
                               _chaos_config(seed, overrides))
        except InvariantViolation as violation:
            cell["violations"].append(
                {"seed": seed, "violation": str(violation)[:500]})
            cell["seed_runs"].append({"seed": seed, "ok": False})
            continue
        fingerprint = architectural_fingerprint(result)
        diffs = _fingerprint_diff(expected, fingerprint)
        injected = (result.mem_stats.get("chaos_nacks", 0)
                    + result.mem_stats.get("chaos_forced_evictions", 0)
                    + result.mem_stats.get("chaos_wb_spikes", 0)
                    + result.network_stats.get("chaos_jitter_msgs", 0))
        cell["seed_runs"].append({
            "seed": seed, "ok": not diffs, "cycles": result.cycles,
            "faults_injected": int(injected),
        })
        if diffs:
            cell["divergences"].append({"seed": seed, "diffs": diffs})
    return cell


def _run_self_test(config: SystemConfig, workload: Workload,
                   scheme: str) -> Dict:
    """Campaign self-test: the ``evict-pinned`` mutant MUST be caught.

    Forced evictions are allowed (forced, even: every tick targets a
    pinned line, at an aggressive interval) to violate the §5.1.3
    pin-safety guarantee; if the sanitizer stays silent the campaign has
    no teeth and the self-test fails.
    """
    mutant = ChaosConfig(seed=0, evict_interval=5, msg_jitter=0,
                         msg_jitter_prob=0.0, nack_prob=0.0,
                         mutate="evict-pinned")
    try:
        _simulate(config, workload, mutant)
    except InvariantViolation as violation:
        return {"scheme": scheme, "detected": True,
                "violation": str(violation)[:500]}
    return {"scheme": scheme, "detected": False}


def run_campaign(workload_names: List[str], scheme_names: List[str],
                 seeds: int = 5, instructions: int = 3000,
                 threads: int = 4, chaos_overrides: Optional[Dict] = None,
                 self_test: bool = True) -> Dict:
    """Run the full campaign; returns a JSON-serializable report whose
    ``passed`` field is the overall verdict."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    cells = []
    for name in workload_names:
        for scheme in scheme_names:
            config, workload = build_cell(name, instructions, threads,
                                          scheme)
            cells.append(_run_cell(config, workload, scheme, seeds,
                                   chaos_overrides))
    report: Dict = {
        "seeds": seeds,
        "instructions": instructions,
        "workloads": list(workload_names),
        "schemes": list(scheme_names),
        "cells": cells,
        "self_test": None,
    }
    # the self-test needs a pinning scheme (only pinned lines make the
    # mutant meaningful) and prefers a single-threaded workload so every
    # forced-eviction tick lands on the one core doing the pinning
    pinning = [s for s in scheme_names if s.endswith(("-lp", "-ep"))]
    if self_test and pinning:
        config, workload = build_cell(workload_names[0], instructions,
                                      threads, pinning[0])
        report["self_test"] = _run_self_test(config, workload, pinning[0])
    failures: List[str] = []
    for cell in cells:
        label = f"{cell['workload']}/{cell['scheme']}"
        if cell["divergences"]:
            failures.append(f"{label}: architectural divergence")
        if cell["violations"]:
            failures.append(f"{label}: invariant violation under chaos")
    if report["self_test"] is not None \
            and not report["self_test"]["detected"]:
        failures.append("self-test: evict-pinned mutant went undetected")
    report["failures"] = failures
    report["passed"] = not failures
    return report


def format_report(report: Dict) -> str:
    """Terminal-friendly campaign summary."""
    lines = [f"chaos campaign: {len(report['cells'])} cell(s) x "
             f"{report['seeds']} seed(s), "
             f"{report['instructions']} instructions"]
    for cell in report["cells"]:
        runs = cell["seed_runs"]
        ok = sum(1 for run in runs if run["ok"])
        faults = sum(run.get("faults_injected", 0) for run in runs)
        cycles = [run["cycles"] for run in runs if "cycles" in run]
        spread = (f"cycles {min(cycles)}..{max(cycles)}"
                  if cycles else "no completed runs")
        lines.append(f"  {cell['workload']:<16}{cell['scheme']:<12}"
                     f"{ok}/{len(runs)} seeds identical, "
                     f"{faults} faults injected, {spread} "
                     f"(baseline {cell['baseline_cycles']})")
        for divergence in cell["divergences"]:
            for diff in divergence["diffs"][:4]:
                lines.append(f"    seed {divergence['seed']} "
                             f"DIVERGED: {diff}")
        for violation in cell["violations"]:
            lines.append(f"    seed {violation['seed']} VIOLATION: "
                         f"{violation['violation'].splitlines()[0]}")
    self_test = report.get("self_test")
    if self_test is not None:
        verdict = ("mutant detected (sanitizer has teeth)"
                   if self_test["detected"] else "MUTANT NOT DETECTED")
        lines.append(f"  self-test ({self_test['scheme']}): {verdict}")
    lines.append("PASS" if report["passed"]
                 else "FAIL: " + "; ".join(report["failures"]))
    return "\n".join(lines)
