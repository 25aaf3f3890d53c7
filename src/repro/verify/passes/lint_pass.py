"""The determinism/idiom lint (``repro.verify.lint``) as a framework
pass.

``repro verify analyze --passes lint`` runs it alone.  The rules run
through the shared driver, so their waivers are audited and their
findings are baselinable like any other pass's.
"""

from __future__ import annotations

from typing import List

from repro.verify import lint as lint_mod
from repro.verify.passes.base import (AnalysisPass, Finding, PassContext)


class LintPass(AnalysisPass):
    name = "lint"
    description = ("determinism and idiom lint: wall-clock reads, global "
                   "RNG draws, unordered set iteration, implicit "
                   "Optional, slot-less hot-path classes")
    rules = dict(lint_mod.RULES)

    def run(self, ctx: PassContext) -> List[Finding]:
        # the known-set registry spans all analyzed files, so a set
        # annotated in one file is known where another iterates it
        registry = lint_mod._SetRegistry()
        for file in ctx.files:
            if file.tree is not None:
                registry.scan(file.tree)
        findings: List[Finding] = []
        for file in ctx.files:
            if file.tree is None:
                continue
            for raw in lint_mod.lint_source_raw(
                    file.text, file.path, registry, tree=file.tree):
                findings.append(Finding(self.name, raw.rule, raw.path,
                                        raw.line, raw.col, raw.message))
        return findings
