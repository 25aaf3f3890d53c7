"""End-to-end benchmark of the Pinned Loads simulator.

Measures what a user of the simulator pays: host time to regenerate a
paper figure's grid of cells, per-cell latency, set-up time and peak
memory, on four workloads (see ``bench/README.md``), and checks every
delivered cell's output against ``bench/golden.json``.

    python3 bench/run.py --workload fig7-spec17 --seed 1 --seconds 10
    python3 bench/run.py --workload fig7-spec17 --trace 1   # per layer
    python3 bench/run.py --seed 1 --repeats 3 --out bench/out/BENCH_e2e.json
    python3 bench/run.py --update-golden

Every set-up, timed grid and pass runs in a fresh interpreter
(``bench/worker.py``, ``PYTHONHASHSEED=0``) on the simulator sources in
``src/`` (or ``--src``).  Times are normalised to a reference host speed
by calibration samples taken beside them.  Every metric is printed as
``workload metric value unit``; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
status: 0 when every cell is correct, 1 when any cell failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
GOLDEN = BENCH_DIR / "golden.json"
GOLDEN_SEEDS = (1, 2)
WORKLOADS = ("fig7-spec17", "fig8-pool", "checked-grid", "fig7-rerender")

#: Set-ups timed per run (spawn to ready of a fresh interpreter), the
#: timed grid's own process included.  The re-render set-up simulates a
#: whole figure, so it runs once.
SETUPS = 5
#: Re-render passes a run makes at least.
MIN_PASSES = 3
#: A cell's time is normalised by the calibration samples nearest it in
#: time, this many on each side.
NEAR = 4

#: Wall-clock cap on one workload run, under the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: Units of the metrics this file prints beside those in BENCHMARK.json.
PRINTED_UNITS = {"grid_wall_s": "s", "host_slowness": "x"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed cell)."""


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def tail_pct(cells: int) -> int:
    """The highest whole percentile with at least ten cells beyond it."""
    return max(50, math.floor(100 - 1000 / cells))


class HostSpeed:
    """Calibration samples ``[time, slowness]`` of a run (see
    ``worker.calibrate``); a time divided by the mean slowness around it
    is the time at the reference host speed."""

    def __init__(self, samples: List[List[float]]) -> None:
        self.samples = sorted(samples)
        self.times = [t for t, _slowness in self.samples]

    def around(self, t: float) -> float:
        """Mean slowness of the ``2 * NEAR`` samples nearest ``t``."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAR, len(self.samples) - 2 * NEAR))
        return statistics.fmean(s for _t, s in self.samples[lo:lo + 2 * NEAR])

    def within(self, start: float, end: float) -> float:
        """Mean slowness of the samples taken in ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi <= lo:
            return self.around((start + end) / 2)
        return statistics.fmean(s for _t, s in self.samples[lo:hi])


class Bench:
    def __init__(self, src: Path, outdir: Path, max_cells: int) -> None:
        self.src = src
        self.outdir = outdir
        self.max_cells = max_cells
        self.golden = {}
        if GOLDEN.is_file():
            self.golden = json.loads(GOLDEN.read_text())["seeds"]

    def spawn(self, spec: Dict, deadline: Optional[float]):
        """Run one worker to completion: (its JSON result, spawn time,
        exit time) on the monotonic clock the worker also reads."""
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(self.src))
        spawned = time.monotonic()
        # own process group, so the worker's pool children die with it
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)],
            stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True,
            start_new_session=True)
        timeout = None if deadline is None \
            else max(1.0, deadline - spawned)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except BaseException as err:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(err, subprocess.TimeoutExpired):
                raise BenchError(f"{spec['mode']} worker passed the "
                                 f"{RUN_BUDGET_S:.0f} s budget") from None
            raise
        ended = time.monotonic()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{spec['mode']} worker exited with status "
                             f"{proc.returncode}")
        return json.loads(lines[-1]), spawned, ended

    def check(self, records: List, seed: int,
              reference: Optional[Dict] = None) -> List:
        """``(label, reason)`` of each failed delivery among ``records``:
        errors, golden mismatches and, when given, mismatches against
        the outputs the cells were stored with."""
        golden = self.golden.get(str(seed))
        failures = []
        for label, _start, _seconds, _insts, output, error in records:
            if error is None and golden is not None \
                    and golden.get(label) != output:
                error = f"output {output} != golden {golden.get(label)}"
            if error is None and reference is not None \
                    and reference.get(label, output) != output:
                error = f"served {output} != stored {reference.get(label)}"
            if error is not None:
                failures.append((label, error))
        return failures

    def run_once(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict:
        deadline = time.monotonic() + RUN_BUDGET_S
        tmp = self.outdir / "tmp" / f"{workload}-s{seed}-{os.getpid()}"
        base = {"workload": workload, "seed": seed, "tmp": str(tmp),
                "max_cells": self.max_cells,
                "store": str(tmp / "figure-store")}

        def spawn(**spec):
            return self.spawn(dict(base, **spec), deadline)

        try:
            return self._run_once(spawn, seed, seconds, trace,
                                  self.outdir / f"trace-{workload}-s{seed}"
                                  ".json")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _run_once(self, spawn, seed, seconds, trace, trace_path) -> Dict:
        # the first set-up tells the workload's kind; a serve workload's
        # set-up fills the store its passes read
        setups = [spawn(mode="setup")[:2]]
        kind = setups[0][0]["kind"]
        filled = setups[0][0].get("records", [])
        reference = {rec[0]: rec[4] for rec in filled} \
            if kind == "serve" else None
        #: (records, HostSpeed) of each process that delivered cells
        deliveries = []
        #: (wall seconds, mean slowness, records) of each timed trip
        trips = []
        peaks = []
        run = {"golden": "checked" if str(seed) in self.golden
               else "absent"}
        if trace:
            self.outdir.mkdir(parents=True, exist_ok=True)
            out, _, _ = spawn(mode="slice", trace_path=str(trace_path))
            deliveries.append((out["records"], None))
            run.update(metrics=out["metrics"], units=out["units"],
                       table=out["table"], trace_path=str(trace_path))
        elif kind == "serve":
            # a trip is a fresh process serving the whole grid, timed
            # from inside
            start = time.monotonic()
            while len(trips) < MIN_PASSES \
                    or time.monotonic() - start < seconds:
                out = spawn(mode="pass")[0]
                speed = HostSpeed(out["cal"])
                (began, ended), = out["trips"]
                trips.append((ended - began, speed.around((began + ended) / 2),
                              out["records"]))
                deliveries.append((out["records"], speed))
                peaks.append(out["peak_rss_mb"])
        else:
            setups += [spawn(mode="setup")[:2] for _ in range(SETUPS - 2)]
            out, spawned, _ = spawn(mode="grid", seconds=seconds)
            setups.append((out, spawned))
            speed = HostSpeed(out["cal"])
            for began, ended in out["trips"]:
                trips.append((ended - began, speed.within(began, ended),
                              [rec for rec in out["records"]
                               if began <= rec[1] <= ended]))
            deliveries.append((out["records"], speed))
        peaks += [out["peak_rss_mb"] for out, _spawned in setups]

        failures = self.check(filled, seed)
        delivered = list(filled)
        for records, _speed in deliveries:
            failures += self.check(records, seed, reference)
            delivered += records
        run.update(attempted=len(delivered),
                   failures=[f"{label}: {error}" for label, error in failures],
                   outputs={rec[0]: rec[4] for rec in delivered})
        if trace:
            return run
        # each cell at its median over the trips, normalised
        per_cell: Dict[str, List[float]] = {}
        for records, speed in deliveries:
            for label, start, cell_s, *_ in records:
                per_cell.setdefault(label, []).append(
                    cell_s / speed.around(start + cell_s / 2))
        cells = [statistics.median(values) * 1e3
                 for values in per_cell.values()]
        tail = tail_pct(len(cells))
        run.update(trips=len(trips), tail=f"p{tail} of {len(cells)} cells")
        run["metrics"] = {
            "grid_s": statistics.median(wall / slowness
                                        for wall, slowness, _r in trips),
            "sim_insts_per_s": statistics.median(
                sum(rec[3] for rec in records) * slowness / wall
                for wall, slowness, records in trips),
            "cell_p50_ms": statistics.median(cells),
            "cell_tail_ms": percentile(cells, tail),
            "setup_s": statistics.median(
                (out["ready_at"] - spawned) / statistics.fmean(
                    out["setup_cal"]) for out, spawned in setups),
            "peak_rss_mb": max(peaks),
            "ok_frac": 1 - len({label for label, _e in failures})
            / len({rec[0] for rec in delivered}),
            "grid_wall_s": statistics.median(wall for wall, _s, _r in trips),
            "host_slowness": statistics.median(s for _w, s, _r in trips),
        }
        return run

    def update_golden(self) -> None:
        out, _, _ = self.spawn({"mode": "golden", "seeds": GOLDEN_SEEDS,
                                "tmp": str(self.outdir / "tmp" / "golden")},
                               None)
        lines = ["{", ' "seeds": {']
        seeds = sorted(out["golden"])
        for i, seed in enumerate(seeds):
            entries = out["golden"][seed]
            lines.append(f'  "{seed}": {{')
            labels = sorted(entries)
            for j, label in enumerate(labels):
                comma = "," if j + 1 < len(labels) else ""
                lines.append(f"   {json.dumps(label)}: "
                             f"{json.dumps(entries[label])}{comma}")
            lines.append("  }" + ("," if i + 1 < len(seeds) else ""))
        lines += [" }", "}"]
        GOLDEN.write_text("\n".join(lines) + "\n")
        print(f"wrote {GOLDEN} ({sum(len(e) for e in out['golden'].values())}"
              f" cells, seeds {', '.join(seeds)})")


def load_spec() -> Dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="least time each run keeps timing "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced slice run, per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="write the full record as JSON here")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="simulator source tree (holds repro/)")
    parser.add_argument("--max-cells", type=int, default=0,
                        help="cap each grid at this many cells "
                             "(smoke tests)")
    parser.add_argument("--update-golden", action="store_true",
                        help=f"rewrite {GOLDEN.name} for seeds "
                             f"{GOLDEN_SEEDS} and exit")
    args = parser.parse_args(argv)
    # a terminated run still stops its workers (see Bench.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = load_spec()
        src = args.src.resolve()
        if not (src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no simulator sources at {src}")
        if args.repeats < 1 or args.max_cells < 0:
            raise BenchError("--repeats must be >= 1, --max-cells >= 0")
        outdir = args.out.resolve().parent if args.out \
            else BENCH_DIR / "out"
        bench = Bench(src, outdir, args.max_cells)
        if args.update_golden:
            bench.update_golden()
            return 0
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        workloads = args.workload or list(WORKLOADS)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        units = {metric["name"]: metric["unit"]
                 for metric in spec["end_to_end"] + spec["per_layer"]}
        units.update(PRINTED_UNITS)
        record = {"seed": args.seed, "seconds": seconds,
                  "trace": args.trace, "cpus": os.cpu_count(),
                  "python": sys.version.split()[0], "workloads": {}}
        attempted = failed = 0
        final: Dict[str, Dict] = {}
        for workload in workloads:
            runs = [bench.run_once(workload, args.seed, seconds,
                                   bool(args.trace))
                    for _ in range(args.repeats)]
            medians = {name: statistics.median(r["metrics"][name]
                                               for r in runs)
                       for name in runs[0]["metrics"]}
            record["workloads"][workload] = {"runs": runs,
                                             "median": medians}
            for run in runs:
                attempted += run["attempted"]
                failed += len(run["failures"])
                for failure in run["failures"][:20]:
                    print(f"{workload} FAILED {failure}")
            report(workload, runs, medians, dict(units, **runs[0].get(
                "units", {})))
            for metric in wanted:
                name = metric["name"]
                if name not in medians:
                    raise BenchError(f"{workload} did not measure {name}")
                key = name if len(workloads) == 1 else f"{workload}:{name}"
                final[key] = {"value": medians[name], "unit": metric["unit"]}
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    except BenchError as err:
        print(f"bench: error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


def report(workload: str, runs: List[Dict], medians: Dict,
           units: Dict[str, str]) -> None:
    run = runs[0]
    print(f"{workload} golden: {run['golden']}")
    if "tail" in run:
        print(f"{workload} cell_tail_ms is the {run['tail']}")
    if "table" in run:
        print(f"{workload} layer table (traced slice, seconds): "
              "span calls total self")
        for span, row in sorted(run["table"].items(),
                                key=lambda item: -item[1]["self_s"]):
            print(f"{workload}   {span:<20} {row['calls']:>6} "
                  f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
    for name, value in medians.items():
        print(f"{workload} {name} {value!r} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
