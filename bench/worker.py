"""Simulator-side half of the benchmark.

``bench/run.py`` starts this file in a fresh interpreter for every
set-up, timed grid, re-render pass and traced slice, with one JSON spec
as its only argument, and reads the JSON object it prints as its last
line of standard output.  Each cell is driven through the simulator's
public functions in the order ``ExperimentCache.run`` and
``run_simulation`` call them, timed from outside:

    generate workload -> cache_key -> ResultStore.get -> System(...)
    -> mem.warm -> System.run -> collect_result -> ResultStore.put

Every timed interval comes with calibration samples taken next to it in
the same process (see ``calibrate``), from which ``run.py`` takes out
the host's speed swings.

Only API shared by every tree the paired compare runs against is used.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional

import repro.sim.engine as engine_mod
import repro.sim.executor as executor_mod
from repro.common.params import SystemConfig
from repro.sim.executor import Executor, ResultStore, Task, cache_key
from repro.sim.runner import ExperimentCache, collect_result, scheme_grid
from repro.sim.system import System
from repro.workloads import SPEC17_NAMES, parallel_workload, spec17_workload

from tracing import NullTracer, Tracer

SPEC17_INSNS = 4000
PARALLEL_INSNS = 1000
#: Pool width of the pool workloads: the harness's ``REPRO_JOBS=2``.
JOBS = 2

GRID = scheme_grid()
SCHEMES = ("unsafe",) + tuple(GRID)

#: Iterations of the calibration kernel, and the kernel's time at the
#: reference speed (the median on the 2-vCPU host the bounds were set
#: on), about 3% of a Figure 7 cell.
KERNEL_ITERS = 15000
KERNEL_REFERENCE_S = 0.0035
#: Calibration samples taken right after a process is ready, and at the
#: end of a re-render pass.
READY_SAMPLES = 5


def calibrate() -> List[float]:
    """``[monotonic time, slowness]`` of one run of a fixed pure-Python
    kernel (dict, list and integer work, like the simulator's), where
    slowness is its CPU time over ``KERNEL_REFERENCE_S``.  The host's
    speed swings by a third within seconds, and a lone process's CPU
    time swings with its wall time; a time divided by the mean slowness
    around it keeps only what the simulator did.  CPU time leaves out
    the moments the kernel waited for a CPU behind the pool's other
    processes, which would read as a slow host."""
    table: Dict[int, int] = {}
    items = list(range(64))
    acc = 0
    start = time.process_time()
    for i in range(KERNEL_ITERS):
        key = i & 255
        table[key] = table.get(key, 0) + items[i & 63]
        acc ^= table[key] * 3
    seconds = time.process_time() - start
    return [time.monotonic(), seconds / KERNEL_REFERENCE_S]


class Cell:
    """One (workload, scheme) cell.  The label names what is simulated,
    so a sanitized cell shares its label (and golden entry) with the
    unsanitized cell it must agree with.  ``insns`` is per thread;
    ``trace`` > 0 gives the cell a trace of its own, seeded apart from
    the trace its row shares."""

    __slots__ = ("suite", "threads", "app", "scheme", "insns", "sanitize",
                 "trace", "label")

    def __init__(self, suite: str, threads: int, app: str, scheme: str,
                 insns: int, sanitize: bool = False, trace: int = 0) -> None:
        self.suite = suite
        self.threads = threads
        self.app = app
        self.scheme = scheme
        self.insns = insns
        self.sanitize = sanitize
        self.trace = trace
        prefix = "spec17" if suite == "spec17" else f"par{threads}"
        self.label = f"{prefix}:{app}:{scheme}"
        if insns != (SPEC17_INSNS if suite == "spec17" else PARALLEL_INSNS):
            self.label += f":{insns}i"
        if trace:
            self.label += f":t{trace}"

    def unsanitized(self) -> "Cell":
        return Cell(self.suite, self.threads, self.app, self.scheme,
                    self.insns, trace=self.trace)

    def config(self) -> SystemConfig:
        # a fresh config per cell, as the figure harness builds them
        config = SystemConfig(num_cores=self.threads, sanitize=self.sanitize)
        if self.scheme != "unsafe":
            config = config.with_defense(*GRID[self.scheme])
        return config

    def generate(self, seed: int):
        if self.trace:
            seed = seed * 1000 + self.trace
        if self.suite == "spec17":
            return spec17_workload(self.app, self.insns, seed=seed)
        return parallel_workload(self.app, self.threads, self.insns,
                                 seed=seed)


def _row(suite: str, threads: int, apps, insns: int, sanitize: bool = False,
         own_traces: bool = False) -> List[Cell]:
    return [Cell(suite, threads, app, scheme, insns, sanitize,
                 trace=index + 1 if own_traces else 0)
            for app in apps for index, scheme in enumerate(SCHEMES)]


FIG8_APPS = ("fft", "radix", "lu_ncb", "x264", "canneal", "ocean_cp")


class Workload(NamedTuple):
    #: "serial": the grid cell by cell on a cold store; "pool": the grid
    #: in one ``Executor(jobs=2).run_tasks`` call on a cold store;
    #: "serve": set-up fills a store with the grid through the pool, and
    #: each timed pass is a fresh process serving the whole grid from it
    kind: str
    #: the figure grid; a timed trip delivers all of it
    cells: List[Cell]
    #: traced slice phases; every slice holds a "cold" phase, so every
    #: layer has a time on every workload
    slice: List


WORKLOADS = {
    "fig7-spec17": Workload(
        "serial", _row("spec17", 1, SPEC17_NAMES, SPEC17_INSNS),
        [("cold", _row("spec17", 1, ("mcf_r", "bwaves_r", "leela_r"),
                       SPEC17_INSNS))]),
    "fig8-pool": Workload(
        "pool", _row("parallel", 8, FIG8_APPS, PARALLEL_INSNS),
        [("cold", _row("parallel", 8, ("fft",), PARALLEL_INSNS)),
         ("pool", _row("parallel", 8, ("fft",), PARALLEL_INSNS))]),
    # Every checked cell simulates a trace of its own: with four traces
    # shared 13 ways, the seed alone moved the grid's host time by 10%.
    # The traces are half the figures' length, to keep the benchmark's
    # runs within their time budget.
    "checked-grid": Workload(
        "serial", _row("spec17", 1, ("mcf_r", "xz_r"), SPEC17_INSNS // 2,
                       True, True)
        + _row("parallel", 2, ("fft", "radix"), PARALLEL_INSNS // 2,
               True, True),
        [("cold", _row("spec17", 1, ("mcf_r",), SPEC17_INSNS // 2,
                       True, True))]),
    "fig7-rerender": Workload(
        "serve", _row("spec17", 1, SPEC17_NAMES, SPEC17_INSNS),
        [("serve", _row("spec17", 1, SPEC17_NAMES, SPEC17_INSNS)),
         ("cold", _row("spec17", 1, ("mcf_r",), SPEC17_INSNS))]),
}


def output_of(result) -> List:
    """What a cell's output is checked by: cycles + per-core retire_sig."""
    return [result.cycles] + [int(result.core_stats[core]["retire_sig"])
                              for core in sorted(result.core_stats)]


def record(label: str, start: float, seconds: float, result,
           error: Optional[str]) -> List:
    """``[label, start, seconds, insts, output, error]`` of one delivered
    cell; ``start`` is on the monotonic clock every process shares."""
    if error is None and result is None:
        error = "no result"
    if error is not None:
        return [label, start, seconds, 0, None, error]
    if result.total("retired") != result.instructions or result.cycles <= 0:
        error = (f"retired {result.total('retired')} of "
                 f"{result.instructions} instructions")
    return [label, start, seconds, result.instructions, output_of(result),
            error]


class Run:
    """State of one worker process: seed, tracer, scratch directory,
    generated workloads, calibration samples and per-layer counters."""

    def __init__(self, seed: int, tmp: str, tracer=None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer if tracer is not None else NullTracer()
        self.workloads: Dict = {}
        self.cal: List[List[float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.profiler: Optional[cProfile.Profile] = None
        self._stores = 0

    def workload(self, cell: Cell):
        """Generate each (suite, threads, app) once per pass, as the
        figure harness memoizes them."""
        key = (cell.suite, cell.threads, cell.app, cell.trace)
        workload = self.workloads.get(key)
        if workload is None:
            with self.tracer.span("workloads.gen"):
                workload = cell.generate(self.seed)
            self.workloads[key] = workload
        return workload

    def new_store(self) -> ResultStore:
        self._stores += 1
        path = os.path.join(self.tmp, f"store{self._stores}")
        shutil.rmtree(path, ignore_errors=True)
        return ResultStore(path)

    def count(self, result, system=None) -> None:
        counts = self.counts
        counts["sim.cells"] += 1
        counts["sim.insts"] += result.instructions
        counts["sim.cycles"] += result.cycles
        for stat in ("dispatched", "squashed_uops", "loads_issued",
                     "vp_reached"):
            counts["core." + stat] += result.total(stat)
        for stat in ("loads", "l1_load_hits", "l1_load_misses",
                     "llc_misses"):
            counts["mem." + stat] += result.mem_stats.get(stat, 0)
        counts["net.messages"] += result.network_stats.get("messages", 0)
        for stats in result.pinning_stats.values():
            counts["pin.pins"] += stats.get("pins", 0)
            counts["pin.denials"] += sum(
                value for name, value in stats.items()
                if name.startswith("pin_denied_")
                or name.endswith("_denials"))
        if system is not None:
            # simulated here, not served: the base of the host-cost rates
            counts["run.insts"] += result.instructions
            counts["run.cycles"] += result.cycles
            counts["events.scheduled"] += system.events._seq


def cold_cell(run: Run, cell: Cell, store: ResultStore, index: int) -> List:
    """Simulate one cell through the full cold-store chain, after one
    calibration sample."""
    tr = run.tracer
    result = None
    error = None
    run.cal.append(calibrate())
    start = time.monotonic()
    try:
        with tr.span("cell", cell=index):
            workload = run.workload(cell)
            config = cell.config()
            with tr.span("store.key"):
                key = cache_key(config, workload)
            with tr.span("store.get"):
                result = store.get(key)
            if result is not None:
                error = "cold store already held the cell"
            else:
                with tr.span("system.build"):
                    system = System(config, workload)
                with tr.span("mem.warm"):
                    system.mem.warm(workload)
                with tr.span("run"):
                    if run.profiler is not None:
                        run.profiler.enable()
                    try:
                        system.run()
                    finally:
                        if run.profiler is not None:
                            run.profiler.disable()
                with tr.span("results.collect"):
                    result = collect_result(system)
                with tr.span("store.put"):
                    store.put(key, result)
                run.count(result, system)
    except Exception as err:  # noqa: BLE001 - a failed cell is reported
        error = f"{type(err).__name__}: {err}"
    return record(cell.label, start, time.monotonic() - start, result,
                  error)


def serve_cell(run: Run, cell: Cell, store: ResultStore, index: int) -> List:
    """Serve one cell from a populated store: what
    ``ExperimentCache(store).peek`` does on a fresh cache."""
    tr = run.tracer
    result = None
    error = None
    start = time.monotonic()
    try:
        with tr.span("cell", cell=index):
            workload = run.workload(cell)
            config = cell.config()
            with tr.span("store.key"):
                key = cache_key(config, workload)
            with tr.span("store.get"):
                result = store.get(key)
        if result is None:
            error = "store miss"
        else:
            run.count(result)
    except Exception as err:  # noqa: BLE001 - a failed cell is reported
        error = f"{type(err).__name__}: {err}"
    return record(cell.label, start, time.monotonic() - start, result,
                  error)


# -- pool cells ---------------------------------------------------------

#: The file pool workers append their cell timings to.  Forked workers
#: inherit it; it is set once, before any pool starts.
_CELL_LOG: List[str] = []
_real_run_task = executor_mod._run_task


def _timed_run_task(label, *args, **kwargs):
    """``_run_task`` after one calibration sample, timed inside the pool
    worker: a cell's latency is not visible from outside the pool.
    Appends ``[label, start, seconds, sample]`` as a JSON line."""
    sample = calibrate()
    start = time.monotonic()
    outcome = _real_run_task(label, *args, **kwargs)
    seconds = time.monotonic() - start
    with open(_CELL_LOG[0], "a", encoding="utf-8") as fh:
        fh.write(json.dumps([label, start, seconds, sample]) + "\n")
    return outcome


# pickled by reference: pool workers are forked after the swap below
_timed_run_task.__module__ = executor_mod.__name__
_timed_run_task.__qualname__ = "_run_task"


def install_pool_timing(tmp: str) -> None:
    _CELL_LOG.append(os.path.join(tmp, "cells.log"))
    executor_mod._run_task = _timed_run_task


def pool_batch(run: Run, cells: List[Cell], store: ResultStore) -> List:
    """Run cells through one ``Executor(jobs=2).run_tasks`` call against
    ``store``, as ``Sweep._prefetch`` sends a figure's grid."""
    tr = run.tracer
    with tr.span("cell.batch"):
        tasks = [Task(cell.label, cell.config(), run.workload(cell))
                 for cell in cells]
        with tr.span("executor.run_tasks"):
            outcome = Executor(jobs=JOBS).run_tasks(
                tasks, cache=ExperimentCache(store))
    for name in ("retries", "pool_rebuilds", "failed"):
        run.counts["executor." + name] += outcome.stats.get(name, 0)
    timings = {}
    if os.path.exists(_CELL_LOG[0]):
        with open(_CELL_LOG[0], encoding="utf-8") as fh:
            for line in fh:
                label, start, seconds, sample = json.loads(line)
                timings[label] = (start, seconds)
                run.cal.append(sample)
        os.unlink(_CELL_LOG[0])
    errors = {failure.label: f"{failure.kind}: {failure.message}"
              for failure in outcome.failures}
    records = []
    for cell in cells:
        result = outcome.results.get(cell.label)
        if result is not None:
            run.count(result)
        error = errors.get(cell.label)
        if cell.label not in timings and error is None:
            error = "no cell timing from the pool"
        start, seconds = timings.get(cell.label, (0.0, 0.0))
        records.append(record(cell.label, start, seconds, result, error))
    return records


# -- modes --------------------------------------------------------------

def timed_grids(run: Run, workload: Workload, cells: List[Cell],
                seconds: float) -> Dict:
    """Deliver the whole grid, each time on a cold store with freshly
    generated workloads as a fresh figure run would, until ``seconds``
    pass (at least once)."""
    records: List = []
    trips: List[List[float]] = []
    start = time.monotonic()
    while not trips or time.monotonic() - start < seconds:
        store = run.new_store()
        run.workloads = {}
        began = time.monotonic()
        if workload.kind == "pool":
            records.extend(pool_batch(run, cells, store))
        else:
            for cell in cells:
                records.append(cold_cell(run, cell, store, len(records)))
        trips.append([began, time.monotonic()])
        shutil.rmtree(store.root, ignore_errors=True)
    return {"records": records, "trips": trips}


def serve_pass(run: Run, cells: List[Cell], store_dir: str) -> List:
    store = ResultStore(store_dir)
    return [serve_cell(run, cell, store, index)
            for index, cell in enumerate(cells)]


BUCKETS = (("repro/sim/engine.py", "engine"), ("repro/core/", "core"),
           ("repro/mem/", "mem"), ("repro/pinning/", "pinning"),
           ("repro/common/events.py", "events"),
           ("repro/security/", "security"), ("repro/verify/", "verify"))
BUCKET_NAMES = tuple(name for _needle, name in BUCKETS) + ("other",)


def _bucket(filename: str) -> str:
    filename = filename.replace(os.sep, "/")
    for needle, name in BUCKETS:
        if needle in filename:
            return name
    return "other"


def module_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per module bucket.  A builtin's time
    is charged to the modules that called it."""
    seconds: Dict[str, float] = defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, callers) \
            in pstats.Stats(profiler).stats.items():
        if filename == "~" and callers:
            for caller, caller_stats in callers.items():
                seconds[_bucket(caller[0])] += caller_stats[2]
        else:
            seconds[_bucket(filename)] += tottime
    total = sum(seconds.values())
    return {name: (seconds[name] / total if total else 0.0)
            for name in BUCKET_NAMES}


@contextmanager
def engine_spans(run: Run):
    """Wrap the engine builder and trace compiler, which ``System.run``
    calls internally, so their spans nest under the run span."""
    real_build = engine_mod.build_engine
    real_compile = engine_mod.compile_trace

    def build_engine(system):
        with run.tracer.span("engine.build"):
            engine = real_build(system)
        if engine is not None:
            run.counts["engine.builds"] += 1
        return engine

    def compile_trace(trace):
        with run.tracer.span("isa.compile"):
            return real_compile(trace)

    engine_mod.build_engine = build_engine
    engine_mod.compile_trace = compile_trace
    try:
        yield
    finally:
        engine_mod.build_engine = real_build
        engine_mod.compile_trace = real_compile


def slice_pass(run: Run, phases, store_dir: Optional[str],
               cold_only: bool = False) -> Dict:
    records: List = []
    store_bytes = 0
    start = time.perf_counter()
    for kind, cells in phases:
        if cold_only and kind != "cold":
            continue
        run.workloads = {}
        if kind == "serve":
            records.extend(serve_pass(run, cells, store_dir))
            continue
        store = run.new_store()
        if kind == "cold":
            for cell in cells:
                records.append(cold_cell(run, cell, store, len(records)))
        else:
            records.extend(pool_batch(run, cells, store))
        for folder, _dirs, files in os.walk(store.root):
            store_bytes += sum(os.path.getsize(os.path.join(folder, name))
                               for name in files if name.endswith(".json"))
    return {"records": records, "wall_s": time.perf_counter() - start,
            "store_bytes": store_bytes}


#: span name -> per-layer metric name
SPAN_METRICS = {
    "workloads.gen": "workloads.gen_s", "store.key": "store.key_s",
    "store.get": "store.get_s", "store.put": "store.put_s",
    "system.build": "system.build_s", "mem.warm": "mem.warm_s",
    "run": "run.s", "isa.compile": "isa.compile_s",
    "engine.build": "engine.build_s", "results.collect": "results.collect_s",
    "executor.run_tasks": "executor.run_tasks_s",
}

#: Units of the traced metrics that are printed but not in
#: ``BENCHMARK.json``: each reads 0 on a workload that bypasses its layer.
PRINTED_ONLY_UNITS = {
    "isa.compile_s": "s", "engine.build_s": "s",
    "executor.run_tasks_s": "s", "run.self.engine_s": "s",
    "run.self.security_s": "s", "run.self.verify_s": "s",
    "executor.retries": "count", "executor.pool_rebuilds": "count",
    "executor.failed": "count",
}


def traced_slice(seed: int, tmp: str, workload: str, max_cells: int,
                 store_dir: Optional[str], trace_path: str) -> Dict:
    """Run the workload's fixed slice three times: plain (the tracing
    overhead's base), traced (layer times and counts) and under cProfile
    around ``System.run`` only (the run's split by module)."""
    phases = [(kind, cells[:max_cells] if max_cells else cells)
              for kind, cells in WORKLOADS[workload].slice]
    plain = slice_pass(Run(seed, tmp), phases, store_dir)
    run = Run(seed, tmp, Tracer())
    with engine_spans(run):
        traced = slice_pass(run, phases, store_dir)
    profiled_run = Run(seed, tmp)
    profiled_run.profiler = cProfile.Profile()
    slice_pass(profiled_run, phases, store_dir, cold_only=True)
    shares = module_shares(profiled_run.profiler)

    tracer = run.tracer
    tracer.write_chrome_trace(trace_path, os.getpid())
    table = tracer.totals()
    metrics = {metric: table.get(span, {}).get("total_s", 0.0)
               for span, metric in SPAN_METRICS.items()}
    run_s = metrics["run.s"]
    for name in BUCKET_NAMES:
        metrics[f"run.self.{name}_s"] = shares[name] * run_s
    counts = run.counts
    metrics.update({name: counts[name] for name in (
        "sim.cells", "sim.insts", "sim.cycles", "core.dispatched",
        "core.squashed_uops", "core.loads_issued", "core.vp_reached",
        "mem.loads", "mem.l1_load_misses", "mem.llc_misses",
        "net.messages", "pin.pins", "pin.denials", "events.scheduled",
        "engine.builds")})
    metrics["run.host_us_per_inst"] = _ratio(run_s * 1e6,
                                             counts["run.insts"])
    metrics["run.host_ns_per_cycle"] = _ratio(run_s * 1e9,
                                              counts["run.cycles"])
    metrics["run.host_us_per_event"] = _ratio(run_s * 1e6,
                                              counts["events.scheduled"])
    metrics["mem.l1_hit_ratio"] = _ratio(
        counts["mem.l1_load_hits"],
        counts["mem.l1_load_hits"] + counts["mem.l1_load_misses"])
    metrics["pin.grant_ratio"] = _ratio(
        counts["pin.pins"], counts["pin.pins"] + counts["pin.denials"])
    metrics["store.bytes"] = traced["store_bytes"]
    for name in ("retries", "pool_rebuilds", "failed"):
        metrics["executor." + name] = counts["executor." + name]
    metrics["trace.overhead_x"] = traced["wall_s"] / plain["wall_s"]
    metrics["trace.layer_coverage"] = tracer.coverage("cell")
    return {"records": traced["records"], "metrics": metrics,
            "units": PRINTED_ONLY_UNITS, "table": table}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def golden(seeds: List[int], tmp: str) -> Dict:
    """Outputs of every distinct cell of every workload, simulated
    unsanitized through ``Executor(jobs=2)``."""
    cells: Dict[str, Cell] = {}
    for workload in WORKLOADS.values():
        for cell in workload.cells:
            cells.setdefault(cell.label, cell.unsanitized())
    entries = {}
    for seed in seeds:
        run = Run(seed, tmp)
        records = pool_batch(run, list(cells.values()), run.new_store())
        failed = [rec for rec in records if rec[5] is not None]
        if failed:
            raise RuntimeError(f"golden cells failed: {failed[:3]}")
        entries[str(seed)] = {rec[0]: rec[4] for rec in records}
    return entries


def prepare(workload: str) -> None:
    """Workload-specific set-up beyond the imports above."""
    if any(cell.sanitize for cell in WORKLOADS[workload].cells):
        import repro.verify.sanitizer  # noqa: F401 - checker-path import


def ready_samples(run: Run) -> None:
    """Take ``READY_SAMPLES`` calibration samples now."""
    run.cal.extend(calibrate() for _ in range(READY_SAMPLES))


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    tmp = spec["tmp"]
    os.makedirs(tmp, exist_ok=True)
    install_pool_timing(tmp)
    if mode == "golden":
        print(json.dumps({"golden": golden(spec["seeds"], tmp)}))
        return 0
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    max_cells = spec.get("max_cells", 0)
    cells = workload.cells[:max_cells] if max_cells else workload.cells
    prepare(spec["workload"])
    run = Run(seed, tmp)
    out: Dict = {"kind": workload.kind}
    if mode == "setup" and workload.kind == "serve":
        # the re-render set-up: fill its store through Executor(jobs=2)
        out["records"] = pool_batch(run, cells, ResultStore(spec["store"]))
    out["ready_at"] = time.monotonic()
    if mode in ("setup", "grid"):
        # a set-up is normalised by every sample it took, pool cells too
        ready_samples(run)
        out["setup_cal"] = [slowness for _t, slowness in run.cal]
        run.cal = []
    if mode == "grid":
        out.update(timed_grids(run, workload, cells, spec["seconds"]))
    elif mode == "pass":
        # the trip is the serve loop, bracketed by calibration samples;
        # interpreter start is what setup_s times
        ready_samples(run)
        began = time.monotonic()
        out["records"] = serve_pass(run, cells, spec["store"])
        out["trips"] = [[began, time.monotonic()]]
        ready_samples(run)
    elif mode == "slice":
        out.update(traced_slice(seed, tmp, spec["workload"], max_cells,
                                spec["store"], spec["trace_path"]))
    out["cal"] = run.cal
    # this process or the largest pool worker it reaped (Linux: KiB)
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
