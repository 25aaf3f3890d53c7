"""The attack campaign: the full scheme x attack-class leakage matrix
with an asserted expected-verdict table (``repro attack``).

For every (scheme, attack class) cell the campaign runs the leakage
oracle — both secret variants, sanitized, diffed channel by channel —
across N seeds, and asserts three properties:

* the observed verdict matches the *expected verdict table* below
  (``unsafe`` leaks on every class; Fence blocks every class; DOM leaks
  exactly on the LRU-reorder channel it architecturally permits; STT
  leaks exactly on the untainted-register-address channel its taint
  tracker cannot see);
* the verdict is identical across every seed — address randomization
  must never flip a cell;
* the oracle itself has teeth: under a test-only defense weakening
  (``DEFENSE_MUTATIONS``) the weakened scheme's cell MUST flip to
  ``leaks``.  A mutant that goes undetected means the oracle could not
  catch a real defense regression either.

Cells are resolved through the executor (``--jobs``): each variant is
one content-addressed experiment, so re-runs and parallel runs produce
bit-identical matrices.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.security.attacks import ATTACK_CLASSES, attack_cell
from repro.security.oracle import CHANNELS, compare_variants
from repro.sim.results import SimResult

#: Matrix-order scheme names: the unsafe baseline plus the full
#: (defense x extension) grid of Tables 2/3.
def all_scheme_names() -> List[str]:
    from repro.sim.runner import scheme_grid
    return ["unsafe"] + list(scheme_grid())


def expected_verdict(attack: str, scheme: str) -> str:
    """The asserted verdict table (rationale: ``docs/security.md``).

    * ``unsafe`` leaks on every class — no issue gating at all.
    * ``secret_reg`` leaks under every STT variant: the transient
      address carries no load-derived taint, so STT has nothing to
      stall (the residual channel of taint-tracking defenses).
    * ``lru_probe`` leaks under every DOM variant: DOM deliberately
      permits pre-VP L1 *hits*, and a hit reorders replacement state
      (the residual channel of delay-on-miss defenses).
    * Everything else blocks.  The LP/EP/Spectre extensions never
      change a verdict: pinning only moves the *MCV* visibility
      condition, while every attack here hides behind an unresolved
      branch — a condition all threat models share.
    """
    if scheme == "unsafe":
        return "leaks"
    defense = scheme.split("-", 1)[0]
    if attack == "secret_reg" and defense == "stt":
        return "leaks"
    if attack == "lru_probe" and defense == "dom":
        return "leaks"
    return "blocks"


#: The mutant self-tests: (mutation, defense family it weakens, attack
#: class whose blocked cell the mutation must flip to ``leaks``).
MUTANT_CHECKS: Tuple[Tuple[str, str, str], ...] = (
    ("dom-leaky-miss", "dom", "prime_probe"),
    ("stt-blind-taint", "stt", "prime_probe"),
)

#: Maps one attack variant to its result: (attack, secret, seed,
#: scheme, mutation) -> SimResult.
VariantRunner = Callable[[str, int, int, str, str], SimResult]

_VariantKey = Tuple[str, int, int, str, str]


def _variant_label(key: _VariantKey) -> str:
    attack, secret, seed, scheme, mutation = key
    label = f"attack:{attack}:s{secret}:seed{seed}/{scheme}"
    if mutation:
        label += f"/{mutation}"
    return label


def _executor_runner(keys: List[_VariantKey], jobs: int) -> VariantRunner:
    """Resolve every variant up front through the executor (one
    content-addressed task per variant), then serve from the
    result map.  ``--jobs 1`` and ``--jobs N`` are bit-identical by
    construction: tasks are pure (config, workload) functions."""
    from repro.sim.executor import Executor, Task
    tasks = []
    for key in keys:
        attack, secret, seed, scheme, mutation = key
        config, workload = attack_cell(attack, secret, seed, scheme)
        config = dataclasses.replace(config, sanitize=True,
                                     defense_mutation=mutation)
        tasks.append(Task(_variant_label(key), config, workload))
    outcome = Executor(jobs=jobs).run_tasks(tasks)
    if outcome.failures:
        failure = outcome.failures[0]
        raise RuntimeError(
            f"attack variant {failure.label} failed: {failure.message}")
    results = {key: outcome.results[_variant_label(key)] for key in keys}

    def run(attack: str, secret: int, seed: int, scheme: str,
            mutation: str) -> SimResult:
        return results[(attack, secret, seed, scheme, mutation)]

    return run


def _oracle_cell(runner: VariantRunner, attack: str, scheme: str,
                 seeds: int) -> Dict[str, Any]:
    """One matrix cell: the oracle across every seed, plus stability."""
    expected = expected_verdict(attack, scheme)
    seed_reports = []
    for seed in range(seeds):
        r0 = runner(attack, 0, seed, scheme, "")
        r1 = runner(attack, 1, seed, scheme, "")
        diff = compare_variants(r0, r1)
        seed_reports.append({
            "seed": seed,
            "verdict": diff["verdict"],
            "leaked_bits": diff["leaked_bits"],
            "leaking_channels": diff["leaking_channels"],
        })
    verdicts = {report["verdict"] for report in seed_reports}
    verdict = seed_reports[0]["verdict"] if len(verdicts) == 1 \
        else "unstable"
    return {
        "attack": attack,
        "scheme": scheme,
        "expected": expected,
        "verdict": verdict,
        "match": verdict == expected,
        "seed_runs": seed_reports,
    }


def _run_self_test(runner: VariantRunner, scheme_names: List[str],
                   attack_names: List[str]) -> List[Dict[str, Any]]:
    """Weaken each defense behind its test-only mutation and assert the
    oracle flips that scheme's blocked cell to ``leaks``."""
    checks = []
    for mutation, family, attack in MUTANT_CHECKS:
        schemes = [name for name in scheme_names
                   if name.split("-", 1)[0] == family]
        if not schemes or attack not in attack_names:
            continue
        scheme = schemes[0]
        r0 = runner(attack, 0, 0, scheme, mutation)
        r1 = runner(attack, 1, 0, scheme, mutation)
        diff = compare_variants(r0, r1)
        checks.append({
            "mutation": mutation,
            "scheme": scheme,
            "attack": attack,
            "verdict": diff["verdict"],
            "detected": diff["verdict"] == "leaks",
        })
    return checks


def run_campaign(scheme_names: Optional[List[str]] = None,
                 attack_names: Optional[List[str]] = None,
                 seeds: int = 2, jobs: int = 1,
                 self_test: bool = True) -> Dict[str, Any]:
    """Run the leakage campaign; returns a JSON-serializable report
    whose ``passed`` field is the overall verdict (see module docs)."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    schemes = list(scheme_names) if scheme_names else all_scheme_names()
    attacks = list(attack_names) if attack_names else list(ATTACK_CLASSES)
    known = set(all_scheme_names())
    for scheme in schemes:
        if scheme not in known:
            raise ValueError(f"unknown scheme {scheme!r}; choose from "
                             f"{all_scheme_names()}")
    for attack in attacks:
        if attack not in ATTACK_CLASSES:
            raise ValueError(f"unknown attack class {attack!r}; choose "
                             f"from {ATTACK_CLASSES}")
    keys: List[_VariantKey] = []
    for attack in attacks:
        for scheme in schemes:
            for seed in range(seeds):
                for secret in (0, 1):
                    keys.append((attack, secret, seed, scheme, ""))
    self_test_keys: List[_VariantKey] = []
    if self_test:
        for mutation, family, attack in MUTANT_CHECKS:
            family_schemes = [name for name in schemes
                              if name.split("-", 1)[0] == family]
            if family_schemes and attack in attacks:
                for secret in (0, 1):
                    self_test_keys.append(
                        (attack, secret, 0, family_schemes[0], mutation))
    runner = _executor_runner(keys + self_test_keys, jobs)
    cells = [_oracle_cell(runner, attack, scheme, seeds)
             for attack in attacks for scheme in schemes]
    report: Dict[str, Any] = {
        "seeds": seeds,
        "schemes": schemes,
        "attacks": attacks,
        "cells": cells,
        "self_test": (_run_self_test(runner, schemes, attacks)
                      if self_test else None),
        "channels": list(CHANNELS),
    }
    failures: List[str] = []
    for cell in cells:
        label = f"{cell['attack']}/{cell['scheme']}"
        if cell["verdict"] == "unstable":
            failures.append(f"{label}: verdict differs across seeds")
        elif not cell["match"]:
            failures.append(
                f"{label}: expected {cell['expected']}, observed "
                f"{cell['verdict']}")
    if report["self_test"] is not None:
        for check in report["self_test"]:
            if not check["detected"]:
                failures.append(
                    f"self-test: {check['mutation']} mutant on "
                    f"{check['scheme']} went undetected")
    report["failures"] = failures
    report["passed"] = not failures
    return report


def matrix_artifact(report: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical committed form of the leakage matrix.

    Verdicts only — per-channel deltas and raw timings may legitimately
    vary across seeds, but the verdict table is asserted bit-identical
    across seeds and ``--jobs`` settings, so this document is
    reproducible byte for byte.
    """
    matrix: Dict[str, Dict[str, str]] = {}
    for cell in report["cells"]:
        matrix.setdefault(cell["attack"], {})[cell["scheme"]] = \
            cell["verdict"]
    return {
        "format": 1,
        "attacks": report["attacks"],
        "schemes": report["schemes"],
        "matrix": matrix,
        "expected": {
            attack: {scheme: expected_verdict(attack, scheme)
                     for scheme in report["schemes"]}
            for attack in report["attacks"]},
        "passed": report["passed"],
    }


def format_report(report: Dict[str, Any]) -> str:
    """Terminal-friendly campaign summary: the matrix plus verdicts."""
    schemes = report["schemes"]
    lines = [f"attack campaign: {len(report['attacks'])} class(es) x "
             f"{len(schemes)} scheme(s), {report['seeds']} seed(s)"]
    width = max(len(s) for s in schemes) + 2
    header = " " * 14 + "".join(f"{s:<{width}}" for s in schemes)
    lines.append(header)
    by_attack: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for cell in report["cells"]:
        by_attack.setdefault(cell["attack"], {})[cell["scheme"]] = cell
    for attack in report["attacks"]:
        row = f"{attack:<14}"
        for scheme in schemes:
            cell = by_attack[attack][scheme]
            mark = cell["verdict"]
            if not cell["match"]:
                mark = f"{mark}(!={cell['expected']})"
            row += f"{mark:<{width}}"
        lines.append(row)
    for cell in report["cells"]:
        if cell["verdict"] == "leaks" and cell["match"]:
            channels = cell["seed_runs"][0]["leaking_channels"]
            lines.append(f"  {cell['attack']}/{cell['scheme']}: leaks "
                         f"via {', '.join(channels)} (expected)")
    if report["self_test"] is not None:
        for check in report["self_test"]:
            verdict = ("mutant detected (oracle has teeth)"
                       if check["detected"] else "MUTANT NOT DETECTED")
            lines.append(f"  self-test {check['mutation']} on "
                         f"{check['scheme']}: {verdict}")
    lines.append("PASS" if report["passed"]
                 else "FAIL: " + "; ".join(report["failures"]))
    return "\n".join(lines)
