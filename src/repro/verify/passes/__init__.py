"""Multi-pass static analysis framework (``repro verify analyze``).

The simulator's soundness rests on contracts no runtime test checks on
every path: the wakeup dirty-bit protocol behind the event-driven
fast-forward, determinism of results in (config, workload, seed), and
the rule that chaos faults fire only from the event stream.  Each
contract gets a dedicated AST pass; the shared driver owns discovery,
waivers, baselining, and the JSON report.  See
``docs/verification.md`` for the pass catalog.
"""

from repro.verify.passes.base import (AnalysisPass, Finding, PassContext,
                                      SourceFile, canonical_path,
                                      package_of)
from repro.verify.passes.determinism import DeterminismPass
from repro.verify.passes.driver import (ALL_PASSES, Report, analyze_paths,
                                        analyze_sources,
                                        default_baseline_path,
                                        registered_rules, write_baseline)
from repro.verify.passes.event_discipline import EventDisciplinePass
from repro.verify.passes.lint_pass import LintPass
from repro.verify.passes.wakeup import WakeupContractPass

__all__ = [
    "ALL_PASSES", "AnalysisPass", "DeterminismPass",
    "EventDisciplinePass", "Finding", "LintPass", "PassContext",
    "Report", "SourceFile", "WakeupContractPass", "analyze_paths",
    "analyze_sources", "canonical_path", "default_baseline_path",
    "package_of", "registered_rules", "write_baseline",
]
