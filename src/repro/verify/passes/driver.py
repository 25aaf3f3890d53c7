"""Driver for the multi-pass static analysis (``repro verify analyze``).

Owns everything the passes share: file discovery, parse-once sources,
running each registered pass, unified waiver application (including the
waiver audit), baseline subtraction, and the JSON report.

Baselines
---------
``baseline.json`` (committed next to this module, overridable with
``--baseline``) lists fingerprints of *accepted* findings.  Analysis
reports them as ``baselined`` — they never fail the run — so a new
violation fails CI while the debt already triaged does not.  Update it
with ``repro verify analyze --update-baseline`` after deliberate
review; baseline entries whose finding no longer exists are summarized
as ``stale_baseline`` (prune them on the next update).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.verify.passes.base import (AnalysisPass, Finding, PassContext,
                                      SEVERITY_ERROR, SEVERITY_WARNING,
                                      SourceFile, assign_fingerprints,
                                      load_sources)
from repro.verify.passes.determinism import DeterminismPass
from repro.verify.passes.event_discipline import EventDisciplinePass
from repro.verify.passes.lint_pass import LintPass
from repro.verify.passes.waivers import (WAIVER_PASS_NAME, WAIVER_RULES,
                                         apply_waivers)
from repro.verify.passes.wakeup import WakeupContractPass

BASELINE_FILENAME = "baseline.json"
REPORT_VERSION = 1

#: registration order is presentation order
ALL_PASSES = (LintPass, WakeupContractPass, DeterminismPass,
              EventDisciplinePass)

#: synthetic driver-level findings
DRIVER_RULES = {"parse-error": "every analyzed file must parse"}


def registered_rules() -> Dict[str, str]:
    """Every rule any pass (or the driver/waiver audit) can emit."""
    rules: Dict[str, str] = dict(DRIVER_RULES)
    rules.update(WAIVER_RULES)
    for pass_cls in ALL_PASSES:
        rules.update(pass_cls.rules)
    return rules


class Report:
    """Analysis outcome: findings plus enough context to act on them."""

    __slots__ = ("paths", "passes", "findings", "waived", "files",
                 "stale_baseline")

    def __init__(self, paths: List[str], passes: List[str],
                 findings: List[Finding], waived: int, files: int,
                 stale_baseline: int) -> None:
        self.paths = paths
        self.passes = passes
        self.findings = findings
        self.waived = waived
        self.files = files
        self.stale_baseline = stale_baseline

    # -- verdicts ---------------------------------------------------------

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity == SEVERITY_ERROR and not f.baselined]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity == SEVERITY_WARNING and not f.baselined]

    @property
    def clean(self) -> bool:
        return not self.errors

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "tool": "repro verify analyze",
            "paths": self.paths,
            "passes": self.passes,
            "findings": [f.to_doc() for f in self.findings],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "baselined": sum(1 for f in self.findings if f.baselined),
                "waived": self.waived,
                "files": self.files,
                "stale_baseline": self.stale_baseline,
            },
        }

    @staticmethod
    def from_doc(doc: Dict[str, object]) -> "Report":
        findings = [Finding.from_doc(d)
                    for d in doc.get("findings", [])]  # type: ignore
        summary = doc.get("summary", {})
        return Report(
            paths=list(doc.get("paths", [])),  # type: ignore
            passes=list(doc.get("passes", [])),  # type: ignore
            findings=findings,
            waived=int(summary.get("waived", 0)),  # type: ignore
            files=int(summary.get("files", 0)),  # type: ignore
            stale_baseline=int(
                summary.get("stale_baseline", 0)),  # type: ignore
        )

    def render_text(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s) in {self.files} file(s) "
            f"({sum(1 for f in self.findings if f.baselined)} baselined, "
            f"{self.waived} waived, {self.stale_baseline} stale "
            f"baseline entries)")
        lines.append(f"passes: {', '.join(self.passes)}")
        return "\n".join(lines)


def default_baseline_path() -> Path:
    return Path(__file__).parent / BASELINE_FILENAME


def load_baseline(path: Union[str, Path]) -> List[Dict[str, object]]:
    path = Path(path)
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    return list(doc.get("findings", []))


def write_baseline(findings: Sequence[Finding],
                   path: Union[str, Path]) -> None:
    entries = [{"fingerprint": f.fingerprint, "rule": f.rule,
                "path": f.path, "line": f.line}
               for f in sorted(findings,
                               key=lambda f: (f.path, f.line, f.rule))]
    doc = {"version": 1, "findings": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _make_passes(only: Optional[Sequence[str]]) -> List[AnalysisPass]:
    passes = [pass_cls() for pass_cls in ALL_PASSES]
    if only is None:
        return passes
    unknown = set(only) - {p.name for p in passes}
    if unknown:
        raise ValueError(f"unknown pass(es): {', '.join(sorted(unknown))}")
    return [p for p in passes if p.name in only]


def analyze_sources(files: List[SourceFile],
                    passes: Optional[Sequence[str]] = None,
                    baseline_path: Optional[Union[str, Path]] = None,
                    paths: Optional[List[str]] = None) -> Report:
    """Run the framework over already-loaded sources."""
    active = _make_passes(passes)
    ctx = PassContext(files=files)
    findings: List[Finding] = []
    for file in files:
        if file.parse_error is not None:
            findings.append(Finding(
                "driver", "parse-error", file.path, 0, 0,
                f"file does not parse: {file.parse_error}"))
    for analysis_pass in active:
        findings.extend(analysis_pass.run(ctx))
    audited = set()
    for analysis_pass in active:
        audited.update(analysis_pass.rules)
    kept, waived, meta = apply_waivers(
        findings, files, set(registered_rules()), audited)
    findings = kept + meta
    assign_fingerprints(findings, files)
    baseline = load_baseline(baseline_path if baseline_path is not None
                             else default_baseline_path())
    accepted = {str(entry.get("fingerprint", "")) for entry in baseline}
    present = set()
    for finding in findings:
        if finding.fingerprint in accepted:
            finding.baselined = True
            present.add(finding.fingerprint)
    stale_baseline = len(accepted - present - {""})
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.pass_name,
                                 f.rule))
    return Report(
        paths=[str(p) for p in (paths or [])],
        passes=[p.name for p in active] + [WAIVER_PASS_NAME],
        findings=findings,
        waived=len(waived),
        files=len(files),
        stale_baseline=stale_baseline,
    )


def analyze_paths(paths: Iterable[Union[str, Path]],
                  passes: Optional[Sequence[str]] = None,
                  baseline_path: Optional[Union[str, Path]] = None
                  ) -> Report:
    """Discover, parse, and analyze every ``.py`` file under ``paths``."""
    path_list = [str(p) for p in paths]
    return analyze_sources(load_sources(path_list), passes=passes,
                           baseline_path=baseline_path, paths=path_list)
