"""Run experiments: one (config, workload) simulation at a time, with a
process-wide memo so the benchmark harnesses can share baseline runs."""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.common.params import (COMPREHENSIVE, DefenseKind, PinningMode,
                                 SystemConfig, ThreatModel)
from repro.isa.trace import Workload
from repro.sim.executor import ResultStore, cache_key
from repro.sim.results import SimResult
from repro.sim.system import System


def run_simulation(config: SystemConfig, workload: Workload,
                   warm: bool = True) -> SimResult:
    """Build a system, run the workload to completion, collect results.

    ``warm`` functionally pre-touches the workload's footprint so the timed
    run starts from cache steady state (the paper warms up 1M instructions
    before measuring each interval).
    """
    system = System(config, workload)
    if warm:
        system.mem.warm(workload)
    system.run()
    return collect_result(system)


def collect_result(system: System) -> SimResult:
    """Assemble the ``SimResult`` of a completed system."""
    config = system.config
    workload = system.workload
    result = SimResult(
        workload_name=workload.name,
        config=config,
        cycles=system.cycles,
        instructions=workload.total_instructions,
        core_stats={core.core_id: core.stats.as_dict()
                    for core in system.cores},
        mem_stats=system.mem.stats.as_dict(),
        network_stats=system.mem.network.stats.as_dict(),
        pinning_stats={core.core_id: core.controller.stats.as_dict()
                       for core in system.cores},
    )
    # pull CST/CPT summary metrics up into the per-core pinning stats
    for core in system.cores:
        stats = result.pinning_stats[core.core_id]
        controller = core.controller
        stats["cst_l1_fp_rate"] = controller.false_positive_rate("l1")
        stats["cst_dir_fp_rate"] = controller.false_positive_rate("dir")
        stats["cpt_mean_occupancy"] = controller.cpt.mean_occupancy
        stats["cpt_max_occupancy"] = controller.cpt.max_occupancy
        stats["cpt_overflow_rate"] = controller.cpt.overflow_rate
    # probe timing for adversarial traces: each probe load's dispatch
    # and completion cycles read from the ROB columns.  Attack traces
    # place probes in the final ROB window (asserted here), where the
    # column slots can no longer have been overwritten by younger uops.
    if any(trace.probe_indices for trace in workload.traces):
        probes: Dict[int, list] = {}
        for core in system.cores:
            cols = core.rob.cols
            mask = core.rob._mask
            records = []
            for index in core.trace.probe_indices:
                if index + core.rob.capacity < len(core.trace):
                    raise ValueError(
                        f"probe {index} outside the final ROB window of "
                        f"trace {core.trace.name!r}; its timing columns "
                        f"were recycled")
                slot = index & mask
                uop = core.trace[index]
                records.append({
                    "index": index,
                    "line": uop.addr >> 6,
                    "dispatch": cols.dispatch_cycle[slot],
                    "complete": cols.complete_cycle[slot],
                })
            probes[core.core_id] = records
        result.probes = probes
    return result


class ExperimentCache:
    """Memoizes runs by experiment *content*, optionally backed by a
    persistent on-disk ``ResultStore``.

    The in-process memo key is ``(workload.fingerprint, config)`` — the
    actual trace content, never the workload's display name, so two
    same-named workloads with different traces cannot alias (and configs
    are frozen dataclass trees, hence hashable).  With a store attached,
    misses fall through to disk before simulating, and fresh results are
    written back — so results survive across processes and runs
    (e.g. Figure 9 reuses every Figure 7/8 run, even from a previous
    invocation).
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 cache_dir: Optional[str] = None) -> None:
        if store is None and cache_dir:
            store = ResultStore(cache_dir)
        self.store = store
        self._results: Dict[Tuple, SimResult] = {}
        self.memo_hits = 0
        self.store_hits = 0
        self.simulations = 0

    def _memo_key(self, config: SystemConfig,
                  workload: Workload) -> Tuple:
        return (workload.fingerprint, config)

    def peek(self, config: SystemConfig,
             workload: Workload) -> Optional[SimResult]:
        """Cached result if one exists (memo, then store); no simulation.
        A store hit is promoted into the memo."""
        memo_key = self._memo_key(config, workload)
        result = self._results.get(memo_key)
        if result is not None:
            self.memo_hits += 1
            return result
        if self.store is not None:
            result = self.store.get(cache_key(config, workload))
            if result is not None:
                self.store_hits += 1
                self._results[memo_key] = result
                return result
        return None

    def insert(self, config: SystemConfig, workload: Workload,
               result: SimResult) -> None:
        """Deposit an externally-computed result (executor workers)."""
        self._results[self._memo_key(config, workload)] = result
        if self.store is not None:
            self.store.put(cache_key(config, workload), result)

    def run(self, config: SystemConfig, workload: Workload) -> SimResult:
        """Result for (config, workload), simulating on a miss."""
        result = self.peek(config, workload)
        if result is None:
            result = run_simulation(config, workload)
            self.simulations += 1
            self.insert(config, workload, result)
        return result

    def clear(self) -> None:
        """Drop the in-process memo (the persistent store is kept)."""
        self._results.clear()


#: Shared cache for the benchmark harnesses.  Set ``REPRO_CACHE_DIR`` to
#: back it with a persistent on-disk store.
# the env var picks the cache *location* only; entries are keyed by a
# content hash of (config, workload), so results cannot depend on it
GLOBAL_CACHE = ExperimentCache(
    cache_dir=os.environ.get("REPRO_CACHE_DIR"))  # repro: allow-env-read


def scheme_grid() -> Dict[str, Tuple[DefenseKind, ThreatModel, PinningMode]]:
    """The (defense x extension) grid of Tables 2/3: for each of Fence,
    DOM, and STT, the Comp / LP / EP / Spectre configurations."""
    grid: Dict[str, Tuple[DefenseKind, ThreatModel, PinningMode]] = {}
    for defense in (DefenseKind.FENCE, DefenseKind.DOM, DefenseKind.STT):
        name = defense.value
        grid[f"{name}-comp"] = (defense, COMPREHENSIVE, PinningMode.NONE)
        grid[f"{name}-lp"] = (defense, COMPREHENSIVE, PinningMode.LATE)
        grid[f"{name}-ep"] = (defense, COMPREHENSIVE, PinningMode.EARLY)
        grid[f"{name}-spectre"] = (defense, ThreatModel.CTRL,
                                   PinningMode.NONE)
    return grid


def scheme_config(label: str, base: SystemConfig) -> SystemConfig:
    """``base`` configured for a scheme label: ``unsafe`` (``base``
    itself) or a ``scheme_grid`` cell (``fence-ep``, ``stt-spectre``...).
    """
    if label == "unsafe":
        return base
    grid = scheme_grid()
    if label not in grid:
        raise ValueError(f"unknown scheme {label!r}; choose 'unsafe' or "
                         f"one of {sorted(grid)}")
    defense, threat, pin = grid[label]
    return base.with_defense(defense, threat, pin)


def build_cell(workload_name: str, instructions: int, threads: int,
               scheme: str) -> Tuple[SystemConfig, Workload]:
    """Deterministically build one (config, workload) cell from names.

    The single source of truth for turning CLI-level cell names into
    simulator objects: ``repro run`` and the chaos campaign resolve
    cells through here.  An ``attack:<class>:s<secret>:seed<k>`` name
    is a fixed-content adversarial trace (``repro.security.attacks``):
    the name pins everything, so ``instructions`` and ``threads`` do not
    apply.  Raises ``ValueError`` for an unknown workload or scheme and
    for a malformed attack name.
    """
    # deferred imports: repro.workloads.calibrate imports this module
    from repro.security.attacks import attack_cell
    from repro.workloads import (PARALLEL_NAMES, SPEC17_NAMES,
                                 parallel_workload, spec17_workload)
    if workload_name.startswith("attack:"):
        parts = workload_name.split(":")
        usage = ("attack workload names look like "
                 "'attack:<class>:s<0|1>:seed<k>'")
        if len(parts) != 4 or not parts[2].startswith("s") \
                or not parts[3].startswith("seed"):
            raise ValueError(f"malformed workload {workload_name!r}; "
                             f"{usage}")
        try:
            secret = int(parts[2][1:])
            seed = int(parts[3][len("seed"):])
        except ValueError:
            raise ValueError(f"malformed workload {workload_name!r}; "
                             f"{usage}") from None
        return attack_cell(parts[1], secret, seed, scheme)
    if workload_name in SPEC17_NAMES:
        base = SystemConfig()
        workload = spec17_workload(workload_name,
                                   instructions=instructions)
    elif workload_name in PARALLEL_NAMES:
        workload = parallel_workload(workload_name, num_threads=threads,
                                     instructions_per_thread=instructions)
        base = SystemConfig(num_cores=threads)
    else:
        raise ValueError(f"unknown workload {workload_name!r}; "
                         f"see `repro workloads`")
    return scheme_config(scheme, base), workload
