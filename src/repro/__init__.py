"""Pinned Loads (ASPLOS 2022) reproduction.

The public API re-exports the pieces a downstream user needs: system
configuration, workload construction, and the experiment runner.

Quickstart::

    from repro import (SystemConfig, DefenseKind, PinningMode,
                       spec17_workload, run_simulation)

    workload = spec17_workload("mcf_r", instructions=5000)
    unsafe = run_simulation(SystemConfig(), workload)
    fence_ep = run_simulation(
        SystemConfig().with_defense(DefenseKind.FENCE,
                                    pinning_mode=PinningMode.EARLY),
        workload)
    print(fence_ep.cycles / unsafe.cycles)   # normalized CPI
"""

from repro.chaos import run_campaign
from repro.common.errors import InvariantViolation, VerificationError
from repro.common.params import (COMPREHENSIVE, SPECTRE, CacheParams,
                                 ChaosConfig, CoreParams, DefenseKind,
                                 NetworkParams, PinnedLoadsParams,
                                 PinningMode, SystemConfig, ThreatModel)
from repro.common.stats import geomean, overhead_pct
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.isa.serialize import load_workload, save_workload
from repro.sim.executor import Executor, ResultStore, Task, cache_key
from repro.sim.results import SimResult
from repro.sim.runner import ExperimentCache, run_simulation, scheme_grid
from repro.sim.sweep import Sweep
from repro.sim.system import System
from repro.workloads import (PARALLEL_NAMES, SPEC17_NAMES, WorkloadProfile,
                             build_workload, calibrate, parallel_workload,
                             spec17_workload)

__version__ = "1.0.0"

__all__ = [
    "COMPREHENSIVE", "SPECTRE", "CacheParams", "ChaosConfig",
    "CoreParams", "DefenseKind",
    "Executor", "ExperimentCache", "InvariantViolation", "MicroOp",
    "NetworkParams", "OpClass", "PARALLEL_NAMES", "ResultStore", "Task",
    "VerificationError",
    "PinnedLoadsParams", "PinningMode", "SPEC17_NAMES", "SimResult",
    "Sweep", "System", "SystemConfig", "ThreatModel", "Trace", "Workload",
    "WorkloadProfile", "build_workload", "cache_key", "calibrate",
    "geomean", "load_workload", "overhead_pct", "parallel_workload",
    "run_campaign", "run_simulation", "save_workload", "scheme_grid",
    "spec17_workload", "__version__",
]
