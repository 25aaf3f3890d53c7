"""Correctness tooling for the Pinned Loads reproduction.

Three independent passes, surfaced through ``python -m repro verify``:

* :mod:`repro.verify.model` / :mod:`repro.verify.explorer` — an abstract
  transition model of the MESI + pinning protocol, explored exhaustively
  for small configurations, checking SWMR, pin-safety, writer progress
  (the CPT starvation guarantee), and transition-table reachability.
* :mod:`repro.verify.sanitizer` — an opt-in runtime invariant checker
  (``SystemConfig(sanitize=True)``) hooked into the live simulator;
  violations raise :class:`repro.common.errors.InvariantViolation` with
  the recent event trace attached.
* :mod:`repro.verify.lint` — an AST pass over the sources flagging
  simulation-determinism hazards and type-hint defects.
* :mod:`repro.verify.passes` — the multi-pass static analysis framework
  (``repro verify analyze``): the lint plus the wakeup-contract,
  determinism, and event-discipline passes, with unified waivers, a
  committed baseline, and a JSON report.

Every protocol or pinning change must keep ``repro verify model`` and
``repro verify analyze`` green; see ``docs/verification.md``.
"""

from repro.verify.explorer import ExplorationResult, explore
from repro.verify.lint import Finding, lint_source
from repro.verify.model import ModelConfig, PinnedProtocolModel
from repro.verify.passes import Report, analyze_paths
from repro.verify.sanitizer import Sanitizer

__all__ = [
    "ExplorationResult", "Finding", "ModelConfig", "PinnedProtocolModel",
    "Report", "Sanitizer", "analyze_paths", "explore", "lint_source",
]
