"""Threat models, taint tracking, attack traces and the leakage oracle.

The defenses themselves are no classes: each ``DefenseKind`` is one
branch of the engine's load-issue scan (``repro.sim.engine``).
"""

from repro.security.taint import TaintTracker
from repro.security.threat import (VPState, conditions_before_mcv,
                                   first_blocking_condition, vp_reached)

__all__ = [
    "TaintTracker", "VPState", "conditions_before_mcv",
    "first_blocking_condition", "vp_reached",
]
