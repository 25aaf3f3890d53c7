"""Paired compare of two simulator source trees on this benchmark.

    python3 bench/compare.py --old ../parent --new . \\
        --workloads fig7-spec17 --pairs 10

Runs the same benchmark code (this directory) against the ``src/`` of
each tree, one pair per seed (``--seed``, ``--seed`` + 1, ...),
alternating which tree runs first.  For every (workload, end-to-end
metric) it prints each side's median and quartiles, the share of pairs
the new tree won (ties count for neither side), and a verdict:

* ``gain``: every new run beat every old run, or the new tree won at
  least 9 of 10 pairs and the medians differ by more than the old tree's
  own quartile spread; never when the new tree failed more cells;
* ``regression``: every new run is worse than every old run, or the
  spreads are inside the bound, and the new median is worse by more than
  the metric's bound in ``BENCHMARK.json`` (for ``setup_s``, by more
  than the bound and ``SETUP_FLOOR_S``);
* ``unresolved``: either side's quartile spread is wider than the bound
  and no all-runs case above applies;
* ``within bound`` otherwise.

It also asserts that every cell both trees delivered at one seed has the
same output.  Exit status: 0, 1 when outputs differ or a cell failed,
2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_side(tree: Path, workload: str, seed: int, seconds: float,
             out: Path) -> Dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--src", str(tree / "src"), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode not in (0, 1) or not out.is_file():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(out.read_text())["workloads"][workload]["runs"][0]


#: Smallest set-up worsening that counts as a regression, in seconds:
#: interpreter start alone moves by more than a bound's share of it.
SETUP_FLOOR_S = 0.05


def verdict(name: str, old: List[float], new: List[float], better: str,
            bound: float, failed_old: int = 0, failed_new: int = 0) -> Dict:
    """Label the change of one metric over paired runs (see above)."""
    sign = 1.0 if better == "lower" else -1.0
    old_q = statistics.quantiles(old, n=4)
    new_q = statistics.quantiles(new, n=4)
    old_med, new_med = statistics.median(old), statistics.median(new)
    wins = sum(1 for o, n in zip(old, new) if sign * (o - n) > 0)
    spread = max((old_q[2] - old_q[0]) / old_med,
                 (new_q[2] - new_q[0]) / new_med)
    worse_by = sign * (new_med - old_med) / old_med
    allowed = bound
    if name == "setup_s":
        allowed = max(bound, SETUP_FLOOR_S / old_med)
    may_gain = failed_new <= failed_old
    if may_gain and all(sign * (o - n) > 0 for o in old for n in new):
        label = "gain"
    elif worse_by > allowed and all(sign * (n - o) > 0
                                    for o in old for n in new):
        label = "regression"
    elif spread > bound:
        label = "unresolved"
    elif may_gain and wins >= 0.9 * len(old) and worse_by < 0 \
            and abs(new_med - old_med) > old_q[2] - old_q[0]:
        label = "gain"
    elif worse_by > allowed:
        label = "regression"
    else:
        label = "within bound"
    return {"old": [old_q[0], old_med, old_q[2]],
            "new": [new_q[0], new_med, new_q[2]],
            "new_over_old": new_med / old_med, "win_frac": wins / len(old),
            "spread": spread, "bound": bound, "verdict": label}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", type=Path, required=True,
                        help="parent source tree (holds src/repro)")
    parser.add_argument("--new", type=Path, required=True,
                        help="changed source tree (holds src/repro)")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path,
                        default=BENCH_DIR / "out" / "compare.json")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    scratch = args.out.resolve().parent / "compare-runs"
    scratch.mkdir(parents=True, exist_ok=True)
    report: Dict = {"old": str(trees["old"]), "new": str(trees["new"]),
                    "pairs": args.pairs, "seconds": args.seconds,
                    "workloads": {}}
    broken = False
    for workload in args.workloads.split(","):
        values = {"old": {}, "new": {}}
        mismatches: List[str] = []
        failed = {"old": 0, "new": 0}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            runs = {}
            for side in order:
                try:
                    runs[side] = run_side(
                        trees[side], workload, seed, args.seconds,
                        scratch / f"{workload}-{side}-{seed}.json")
                except RuntimeError as err:
                    print(f"compare: error: {err}", file=sys.stderr)
                    return 2
                failed[side] += len(runs[side]["failures"])
                for name, value in runs[side]["metrics"].items():
                    values[side].setdefault(name, []).append(value)
            old_out, new_out = runs["old"]["outputs"], runs["new"]["outputs"]
            for label in sorted(old_out.keys() & new_out.keys()):
                if old_out[label] != new_out[label]:
                    mismatches.append(f"seed {seed} {label}: "
                                      f"{old_out[label]} != {new_out[label]}")
            print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} "
                  f"first={order[0]} shared cells "
                  f"{len(old_out.keys() & new_out.keys())}", flush=True)
        rows = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict(name, values["old"][name],
                                 values["new"][name], metric["better"],
                                 metric["bound"], failed["old"],
                                 failed["new"])
            row = rows[name]
            print(f"{workload} {name:16} old {row['old'][1]:.6g} "
                  f"[{row['old'][0]:.6g}, {row['old'][2]:.6g}] "
                  f"new {row['new'][1]:.6g} "
                  f"[{row['new'][0]:.6g}, {row['new'][2]:.6g}] "
                  f"new/old {row['new_over_old']:.3f} "
                  f"win {row['win_frac']:.2f} spread {row['spread']:.3f} "
                  f"bound {row['bound']} {row['verdict']}")
        print(f"{workload} output parity: "
              f"{'OK' if not mismatches else f'{len(mismatches)} differ'}; "
              f"failed cells old {failed['old']} new {failed['new']}")
        for line in mismatches[:20]:
            print(f"{workload}   {line}")
        broken |= bool(mismatches) or failed["old"] + failed["new"] > 0
        report["workloads"][workload] = {"metrics": rows,
                                         "mismatches": mismatches,
                                         "failed": failed}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
