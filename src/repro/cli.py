"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run``        — one workload on one configuration, printed as a row
* ``grid``       — the Tables 2/3 grid (Comp/LP/EP/Spectre per scheme)
* ``breakdown``  — the Figure 1 per-condition overhead stack
* ``workloads``  — list the available benchmark profiles
* ``hardware``   — the Table 1 CST cost rows from the analytical model
* ``verify``     — the verification passes (``model``, ``trace``,
  ``analyze``); see ``docs/verification.md``
* ``chaos``      — the seeded fault-injection campaign (N seeds per
  cell must be architecturally identical); see ``docs/resilience.md``
* ``attack``     — the adversarial leakage campaign (per-scheme,
  per-attack-class verdict matrix); see ``docs/security.md``

Exit codes are part of the contract: every command returns 0 only on
full success and a nonzero status on any failure (divergence, lint
finding, unexpected verdict), so CI can gate on them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.area import cst_hardware_table
from repro.analysis.breakdown import stacked_overheads, vp_condition_cycles
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode, ThreatModel
from repro.sim.runner import ExperimentCache, build_cell, scheme_config
from repro.workloads import PARALLEL_NAMES, SPEC17_NAMES

_THREAT_NAMES = {"spectre": ThreatModel.CTRL, "ctrl": ThreatModel.CTRL,
                 "alias": ThreatModel.ALIAS, "except": ThreatModel.EXCEPT,
                 "comp": ThreatModel.MCV, "mcv": ThreatModel.MCV}
_PIN_NAMES = {"none": PinningMode.NONE, "lp": PinningMode.LATE,
              "ep": PinningMode.EARLY}


def _build_workload(name: str, instructions: int, threads: int):
    try:
        return build_cell(name, instructions, threads, "unsafe")
    except ValueError as error:
        raise SystemExit(f"{error}; see `repro workloads`")


def _cmd_run(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    unsafe = cache.run(base, workload)
    config = base.with_defense(DefenseKind(args.defense),
                               _THREAT_NAMES[args.threat],
                               _PIN_NAMES[args.pinning])
    result = cache.run(config, workload)
    norm = result.cycles / unsafe.cycles
    print(f"workload      : {args.workload} "
          f"({workload.total_instructions} instructions, "
          f"{workload.num_threads} thread(s))")
    print(f"configuration : {args.defense} / {args.threat} / "
          f"{args.pinning}")
    print(f"cycles        : {result.cycles} (unsafe: {unsafe.cycles})")
    print(f"normalized CPI: {norm:.3f}  "
          f"(overhead {100 * (norm - 1):.1f}%)")
    squashes = result.squash_summary()
    print(f"squashes      : branch={squashes['branch']:.0f} "
          f"alias={squashes['alias']:.0f} "
          f"mcv={squashes['mcv_inval'] + squashes['mcv_evict']:.0f}")
    return 0


def _cmd_grid(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    unsafe = cache.run(base, workload)
    print(f"{args.workload}: normalized CPI vs Unsafe "
          f"({workload.total_instructions} instructions)")
    print(f"{'scheme':<8}{'comp':>9}{'lp':>9}{'ep':>9}{'spectre':>9}")
    for scheme in ("fence", "dom", "stt"):
        cells = []
        for ext in ("comp", "lp", "ep", "spectre"):
            result = cache.run(scheme_config(f"{scheme}-{ext}", base),
                               workload)
            cells.append(result.cycles / unsafe.cycles)
        print(f"{scheme:<8}" + "".join(f"{c:>9.3f}" for c in cells))
    return 0


def _cmd_breakdown(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    cycles = vp_condition_cycles(
        base, DefenseKind(args.defense),
        run=lambda config: cache.run(config, workload))
    stack = stacked_overheads(cycles)
    print(f"{args.workload} / {args.defense}: overhead by VP condition")
    for condition in ("ctrl", "alias", "exception", "mcv"):
        print(f"  {condition:<10}{stack[condition]:>8.1f}%")
    print(f"  {'total':<10}{sum(stack.values()):>8.1f}%")
    return 0


def _cmd_workloads(_args) -> int:
    print("SPEC17 (single-threaded):")
    for name in SPEC17_NAMES:
        print(f"  {name}")
    print("SPLASH2 + PARSEC (multithreaded):")
    for name in PARALLEL_NAMES:
        print(f"  {name}")
    return 0


def _cmd_hardware(_args) -> int:
    table = cst_hardware_table()
    print(format_stat_table("Table 1: CST hardware cost at 22nm",
                            table))
    return 0


def _cmd_verify_model(args) -> int:
    from repro.verify.explorer import EXPECTED_DEAD, explore
    from repro.verify.model import ModelConfig
    mutate = frozenset(args.mutate or ())
    try:
        config = ModelConfig(cores=args.cores, lines=args.lines,
                             max_pins_per_core=args.max_pins,
                             mutate=mutate)
    except ValueError as error:
        raise SystemExit(f"repro verify model: {error}")
    result = explore(config)
    print(f"explored {result.num_states} states / "
          f"{result.num_transitions} transitions "
          f"({config.cores} cores x {config.lines} lines)")
    for violation in result.violations:
        print(violation)
    if mutate:
        # checker self-test: an injected protocol bug MUST be detected
        if result.violations:
            print(f"mutation(s) {sorted(mutate)} detected; checker "
                  f"self-test passed")
            return 0
        print(f"no violation under mutation(s) {sorted(mutate)}; the "
              f"checker missed the injected bug")
        return 1
    status = 1 if result.violations else 0
    dead = set(result.dead_pairs())
    for state, kind in sorted(dead - EXPECTED_DEAD):
        print(f"[coverage] ({state}, {kind}) became unreachable but "
              f"is not expected-dead")
        status = 1
    for state, kind in sorted(EXPECTED_DEAD - dead):
        print(f"[coverage] ({state}, {kind}) is expected-dead but "
              f"was exercised")
        status = 1
    if status == 0:
        print("all invariants hold; transition coverage matches the "
              "expected-dead set")
    return status


def _cmd_verify_trace(args) -> int:
    import dataclasses

    from repro.common.errors import InvariantViolation
    from repro.sim.runner import run_simulation
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    config = base.with_defense(DefenseKind(args.defense),
                               _THREAT_NAMES[args.threat],
                               _PIN_NAMES[args.pinning])
    config = dataclasses.replace(config, sanitize=True)
    try:
        result = run_simulation(config, workload)
    except InvariantViolation as violation:
        print(violation)
        return 1
    print(f"sanitized run clean: {args.workload} / {args.defense} / "
          f"{args.threat} / {args.pinning}, {result.cycles} cycles")
    return 0


def _cmd_verify_analyze(args) -> int:
    import json
    import sys
    from pathlib import Path

    paths = [Path(p) for p in args.paths] or [Path(__file__).parent]
    for path in paths:
        if not path.exists():
            raise SystemExit(
                f"repro verify analyze: no such path: {path}")
    passes = [p.strip() for p in args.passes.split(",")
              if p.strip()] or None
    try:
        from repro.verify.passes import analyze_paths, write_baseline
        report = analyze_paths(
            [str(p) for p in paths], passes=passes,
            baseline_path=args.baseline or None)
        if args.update_baseline:
            from repro.verify.passes import default_baseline_path
            target = Path(args.baseline) if args.baseline \
                else default_baseline_path()
            errors = [f for f in report.findings
                      if f.severity == "error"]
            write_baseline(errors, target)
            print(f"baseline updated: {target} "
                  f"({len(errors)} finding(s))", file=sys.stderr)
            return 0
    except SystemExit:
        raise
    except ValueError as err:
        # unknown pass names are usage errors, not internal failures
        raise SystemExit(f"repro verify analyze: {err}")
    except Exception as err:  # noqa: B902 - the distinct-exit contract
        print(f"repro verify analyze: internal error: "
              f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    doc = report.to_doc()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos import format_report, run_campaign
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not workloads or not schemes:
        raise SystemExit("repro chaos: need at least one workload and "
                         "one scheme")
    try:
        report = run_campaign(
            workloads, schemes, seeds=args.seeds,
            instructions=args.instructions, threads=args.threads,
            self_test=not args.no_self_test)
    except ValueError as error:
        raise SystemExit(f"repro chaos: {error}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"report        : {args.out}")
    return 0 if report["passed"] else 1


def _cmd_attack(args) -> int:
    import json

    from repro.security.campaign import (format_report, matrix_artifact,
                                         run_campaign)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()] \
        if args.schemes else None
    classes = [c.strip() for c in args.classes.split(",") if c.strip()] \
        if args.classes else None
    try:
        report = run_campaign(
            scheme_names=schemes, attack_names=classes,
            seeds=args.seeds, jobs=args.jobs,
            self_test=not args.no_self_test)
    except ValueError as error:
        raise SystemExit(f"repro attack: {error}")
    except Exception as error:  # noqa: B902 - the distinct-exit contract
        print(f"repro attack: internal error: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(matrix_artifact(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"matrix        : {args.out}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pinned Loads (ASPLOS 2022) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("workload", help="benchmark name (see `workloads`)")
        p.add_argument("--instructions", type=int, default=4000,
                       help="instructions per thread (default 4000)")
        p.add_argument("--threads", type=int, default=8,
                       help="threads for parallel workloads (default 8)")

    run_p = sub.add_parser("run", help="run one configuration")
    common(run_p)
    run_p.add_argument("--defense", default="fence",
                       choices=[k.value for k in DefenseKind])
    run_p.add_argument("--threat", default="comp",
                       choices=sorted(_THREAT_NAMES))
    run_p.add_argument("--pinning", default="none",
                       choices=sorted(_PIN_NAMES))
    run_p.set_defaults(func=_cmd_run)

    grid_p = sub.add_parser("grid", help="the Tables 2/3 grid")
    common(grid_p)
    grid_p.set_defaults(func=_cmd_grid)

    breakdown_p = sub.add_parser("breakdown",
                                 help="Figure 1 per-condition stack")
    common(breakdown_p)
    breakdown_p.add_argument("--defense", default="fence",
                             choices=[k.value for k in DefenseKind])
    breakdown_p.set_defaults(func=_cmd_breakdown)

    workloads_p = sub.add_parser("workloads", help="list benchmarks")
    workloads_p.set_defaults(func=_cmd_workloads)

    hardware_p = sub.add_parser("hardware", help="Table 1 CST rows")
    hardware_p.set_defaults(func=_cmd_hardware)

    verify_p = sub.add_parser(
        "verify",
        help="protocol model check / sanitized run / static "
             "contract analysis")
    verify_sub = verify_p.add_subparsers(dest="pass_name", required=True)

    model_p = verify_sub.add_parser(
        "model", help="exhaustively model-check the pinning protocol")
    model_p.add_argument("--cores", type=int, default=2)
    model_p.add_argument("--lines", type=int, default=2)
    model_p.add_argument("--max-pins", type=int, default=2,
                         help="max simultaneously pinned lines per core")
    model_p.add_argument("--mutate", action="append", default=None,
                         metavar="MUTATION",
                         help="inject a named protocol bug; the check "
                         "then must FAIL (checker self-test)")
    model_p.set_defaults(func=_cmd_verify_model)

    trace_p = verify_sub.add_parser(
        "trace", help="run one workload with the invariant sanitizer on")
    common(trace_p)
    trace_p.add_argument("--defense", default="fence",
                         choices=[k.value for k in DefenseKind])
    trace_p.add_argument("--threat", default="comp",
                         choices=sorted(_THREAT_NAMES))
    trace_p.add_argument("--pinning", default="ep",
                         choices=sorted(_PIN_NAMES))
    trace_p.set_defaults(func=_cmd_verify_trace)

    analyze_p = verify_sub.add_parser(
        "analyze",
        help="multi-pass static contract analysis (lint, wakeup, "
             "determinism, event discipline)")
    analyze_p.add_argument("paths", nargs="*",
                           help="files/directories to analyze "
                                "(default: the repro package)")
    analyze_p.add_argument("--json", action="store_true",
                           help="emit the JSON report on stdout")
    analyze_p.add_argument("--out", default="",
                           help="also write the JSON report to this "
                                "file")
    analyze_p.add_argument("--passes", default="",
                           help="comma-separated pass subset "
                                "(default: all)")
    analyze_p.add_argument("--baseline", default="",
                           help="baseline file of accepted finding "
                                "fingerprints (default: the committed "
                                "one)")
    analyze_p.add_argument("--update-baseline", action="store_true",
                           help="accept all current findings into the "
                                "baseline and exit 0")
    analyze_p.set_defaults(func=_cmd_verify_analyze)

    chaos_p = sub.add_parser(
        "chaos", help="seeded fault-injection campaign (must be "
        "architecturally invisible)")
    chaos_p.add_argument("--seeds", type=int, default=5,
                         help="chaos seeds per (workload, scheme) cell")
    chaos_p.add_argument("--workloads", default="mcf_r,radix",
                         help="comma-separated workload names")
    chaos_p.add_argument("--schemes", default="unsafe,fence-lp,fence-ep",
                         help="comma-separated schemes (unsafe or "
                         "scheme_grid cells)")
    chaos_p.add_argument("--instructions", type=int, default=3000,
                         help="instructions per thread (default 3000)")
    chaos_p.add_argument("--threads", type=int, default=4,
                         help="threads for parallel workloads")
    chaos_p.add_argument("--out", default="",
                         help="write the JSON report here")
    chaos_p.add_argument("--no-self-test", action="store_true",
                         help="skip the evict-pinned mutant self-test")
    chaos_p.add_argument("--json", action="store_true",
                         help="print the full JSON report to stdout "
                         "instead of the human-readable summary")
    chaos_p.set_defaults(func=_cmd_chaos)

    attack_p = sub.add_parser(
        "attack", help="adversarial leakage campaign (per-scheme x "
        "per-attack-class verdict matrix)")
    attack_p.add_argument("--seeds", type=int, default=2,
                          help="address-randomization seeds per cell "
                          "(verdicts must agree across all of them)")
    attack_p.add_argument("--schemes", default="",
                          help="comma-separated schemes (default: unsafe "
                          "plus the full 12-cell defense grid)")
    attack_p.add_argument("--classes", default="",
                          help="comma-separated attack classes (default: "
                          "all four)")
    attack_p.add_argument("--jobs", type=int, default=1,
                          help="parallel workers (bit-identical to "
                          "--jobs 1)")
    attack_p.add_argument("--out", default="",
                          help="write the canonical leakage-matrix JSON "
                          "artifact here")
    attack_p.add_argument("--no-self-test", action="store_true",
                          help="skip the weakened-defense mutant "
                          "self-tests")
    attack_p.add_argument("--json", action="store_true",
                          help="print the full JSON report to stdout "
                          "instead of the human-readable summary")
    attack_p.set_defaults(func=_cmd_attack)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
