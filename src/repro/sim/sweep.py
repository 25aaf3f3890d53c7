"""Parameter sweeps over configurations and workload suites.

The benchmark harness and the sensitivity studies (§9.2.*) all reduce to
the same operation: run a grid of configurations over a set of workloads,
normalize to the Unsafe baseline, and aggregate.  ``Sweep`` packages that
with run memoization, so library users can reproduce or extend the
paper's studies in a few lines::

    sweep = Sweep(SystemConfig(), {"mcf": spec17_workload("mcf_r", 4000)})
    table = sweep.grid(scheme_grid())        # Tables 2/3 on one workload
    print(table["mcf"]["fence-ep"])          # normalized CPI
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.params import (DefenseKind, PinningMode, SystemConfig,
                                 ThreatModel)
from repro.common.stats import geomean
from repro.isa.trace import Workload
from repro.sim.executor import Executor, Task
from repro.sim.results import SimResult
from repro.sim.runner import ExperimentCache

GridCell = Tuple[DefenseKind, ThreatModel, PinningMode]


class Sweep:
    """Runs configuration grids over a named set of workloads.

    With an ``Executor`` attached, grid-shaped calls first *prefetch*
    every uncached cell through the process pool, then assemble the
    table from the (now warm) cache serially — so tables are
    bit-identical with and without parallelism, and a failed worker
    simply leaves its cell cold for the serial pass to re-raise.
    """

    def __init__(self, base_config: SystemConfig,
                 workloads: Mapping[str, Workload],
                 cache: Optional[ExperimentCache] = None,
                 executor: Optional[Executor] = None) -> None:
        if not workloads:
            raise ValueError("sweep needs at least one workload")
        self.base_config = base_config
        self.workloads = dict(workloads)
        self.cache = cache or ExperimentCache()
        self.executor = executor

    def _prefetch(self, cells: List[Tuple[str, SystemConfig]]) -> None:
        """Fan every uncached (label, config-on-workload) cell over the
        executor, depositing results into the shared cache."""
        if self.executor is None:
            return
        tasks = [Task(f"{name}:{label}", config, self.workloads[name])
                 for name in self.workloads
                 for label, config in cells]
        self.executor.run_tasks(tasks, cache=self.cache)

    def run_one(self, config: SystemConfig, name: str) -> SimResult:
        return self.cache.run(config, self.workloads[name])

    def unsafe(self, name: str) -> SimResult:
        config = self.base_config.with_defense(DefenseKind.UNSAFE,
                                               ThreatModel.MCV)
        return self.run_one(config, name)

    def normalized(self, config: SystemConfig, name: str) -> float:
        """Normalized CPI of ``config`` on workload ``name``."""
        return (self.run_one(config, name).cycles
                / self.unsafe(name).cycles)

    def grid(self, cells: Mapping[str, GridCell],
             ) -> Dict[str, Dict[str, float]]:
        """Normalized CPI for every (workload x grid cell)."""
        configs = [("unsafe/baseline",
                    self.base_config.with_defense(DefenseKind.UNSAFE,
                                                  ThreatModel.MCV))]
        configs += [
            (label, self.base_config.with_defense(defense, threat, pinning))
            for label, (defense, threat, pinning) in cells.items()]
        self._prefetch(configs)
        table: Dict[str, Dict[str, float]] = {}
        for name in self.workloads:
            row = {}
            for label, (defense, threat, pinning) in cells.items():
                config = self.base_config.with_defense(defense, threat,
                                                       pinning)
                row[label] = self.normalized(config, name)
            table[name] = row
        return table

    def geomeans(self, cells: Mapping[str, GridCell]) -> Dict[str, float]:
        """Suite-level geomean normalized CPI per grid cell."""
        table = self.grid(cells)
        return {label: geomean([table[name][label]
                                for name in self.workloads])
                for label in cells}

    def pinning_sweep(self, defense: DefenseKind, mode: PinningMode,
                      variants: Mapping[str, Dict],
                      ) -> Dict[str, Dict[str, float]]:
        """Sweep Pinned Loads hardware parameters (CST sizes, W_d, CPT,
        TSO rule...).  ``variants`` maps a label to ``PinnedLoadsParams``
        field overrides; returns normalized CPIs per workload/variant."""
        base = self.base_config.with_defense(defense, ThreatModel.MCV,
                                             mode)
        configs = [("unsafe/baseline",
                    self.base_config.with_defense(DefenseKind.UNSAFE,
                                                  ThreatModel.MCV))]
        configs += [
            (label, replace(base, pinning=replace(base.pinning,
                                                  **overrides)))
            for label, overrides in variants.items()]
        self._prefetch(configs)
        results: Dict[str, Dict[str, float]] = {}
        for label, overrides in variants.items():
            config = replace(base, pinning=replace(base.pinning,
                                                   **overrides))
            results[label] = {name: self.normalized(config, name)
                              for name in self.workloads}
        return results

    def apply(self, transform: Callable[[SystemConfig], SystemConfig],
              ) -> "Sweep":
        """A new sweep with a transformed base config, sharing the cache
        (and executor)."""
        return Sweep(transform(self.base_config), self.workloads,
                     cache=self.cache, executor=self.executor)
