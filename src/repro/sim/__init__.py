"""System assembly, experiment running, and result containers."""

from repro.sim.results import SimResult
from repro.sim.runner import (GLOBAL_CACHE, ExperimentCache, collect_result,
                              run_simulation, scheme_grid)
from repro.sim.sweep import Sweep
from repro.sim.system import BarrierManager, System

__all__ = ["BarrierManager", "ExperimentCache", "GLOBAL_CACHE", "SimResult",
           "Sweep", "System", "collect_result", "run_simulation",
           "scheme_grid"]
