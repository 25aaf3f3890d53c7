"""Shared plumbing for the multi-pass static analysis framework.

Every pass consumes the same parsed-once :class:`SourceFile` objects and
produces :class:`Finding` records; the driver (``repro.verify.passes.
driver``) owns file discovery, waiver application, baselining, and the
JSON report, so a pass is nothing but an AST walk plus a registry of
what it considers a violation.

Findings carry a *fingerprint* — a short hash of (canonical path, pass,
rule, offending line text, occurrence index) — which is what the
committed baseline file stores.  Hashing the line *text* rather than the
line *number* keeps baselines stable across unrelated edits above the
finding; the occurrence index disambiguates identical lines.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


def canonical_path(path: Union[str, Path]) -> str:
    """Machine-independent form of ``path`` used in fingerprints.

    Everything up to and including the last ``repro`` directory is
    stripped (``/home/x/src/repro/core/pipeline.py`` and a CI
    checkout's ``/work/src/repro/core/pipeline.py`` both canonicalise
    to ``repro/core/pipeline.py``); paths with no ``repro`` component
    (scratch files in tests) fall back to the basename.
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1] if parts else str(path)


def package_of(path: Union[str, Path]) -> str:
    """First package component under ``repro/``, or ``""``.

    ``repro/core/pipeline.py`` -> ``core``; ``repro/cli.py`` -> ``""``;
    a path with no ``repro`` component -> ``""`` (scoped passes skip
    such files).
    """
    canon = canonical_path(path)
    parts = canon.split("/")
    if parts[0] == "repro" and len(parts) > 2:
        return parts[1]
    return ""


@dataclass
class Finding:
    """One analysis finding, pointing at a source location."""

    pass_name: str
    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR
    fingerprint: str = ""
    baselined: bool = False

    def __str__(self) -> str:
        tag = "" if self.severity == SEVERITY_ERROR \
            else f" ({self.severity})"
        base = "" if not self.baselined else " [baselined]"
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.pass_name}/{self.rule}]{tag} "
                f"{self.message}{base}")

    def to_doc(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name, "rule": self.rule, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
            "severity": self.severity, "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }

    @staticmethod
    def from_doc(doc: Dict[str, object]) -> "Finding":
        return Finding(
            pass_name=str(doc["pass"]), rule=str(doc["rule"]),
            path=str(doc["path"]), line=int(doc["line"]),  # type: ignore
            col=int(doc["col"]), message=str(doc["message"]),  # type: ignore
            severity=str(doc.get("severity", SEVERITY_ERROR)),
            fingerprint=str(doc.get("fingerprint", "")),
            baselined=bool(doc.get("baselined", False)),
        )


class SourceFile:
    """One analyzed module: text, split lines, and the parsed tree.

    Parsing happens exactly once per file per analysis run, whatever
    the number of passes.  A file that fails to parse keeps ``tree =
    None`` and records the error; the driver turns that into a
    ``parse-error`` finding instead of aborting the run.
    """

    __slots__ = ("path", "canonical", "package", "text", "lines", "tree",
                 "parse_error")

    def __init__(self, path: Union[str, Path], text: str) -> None:
        self.path = str(path)
        self.canonical = canonical_path(path)
        self.package = package_of(path)
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[str] = None
        try:
            self.tree = ast.parse(text, filename=self.path)
        except SyntaxError as err:
            self.parse_error = f"{err.msg} (line {err.lineno})"

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass
class PassContext:
    """Everything a pass may need beyond the file list."""

    files: List[SourceFile]


class AnalysisPass:
    """Base class: a named pass with a registry of rules it can emit."""

    #: short machine name, e.g. ``wakeup-contract``
    name: str = ""
    #: one-line human description (shown in reports/docs)
    description: str = ""
    #: rule name -> one-line invariant statement
    rules: Dict[str, str] = {}

    def run(self, ctx: PassContext) -> List[Finding]:
        raise NotImplementedError

    # -- emission helper -------------------------------------------------

    def finding(self, file: SourceFile, node: Optional[ast.AST], rule: str,
                message: str,
                severity: str = SEVERITY_ERROR) -> Finding:
        assert rule in self.rules, f"pass {self.name} has no rule {rule}"
        line = getattr(node, "lineno", 0) if node is not None else 0
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(self.name, rule, file.path, line, col, message,
                       severity)


def discover(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def load_sources(paths: Iterable[Union[str, Path]]) -> List[SourceFile]:
    return [SourceFile(file, Path(file).read_text())
            for file in discover(paths)]


def assign_fingerprints(findings: Sequence[Finding],
                        files: Sequence[SourceFile]) -> None:
    """Stamp every finding with its stable fingerprint (in place)."""
    by_path = {file.path: file for file in files}
    counters: Dict[tuple, int] = {}
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col,
                                              f.pass_name, f.rule))
    for finding in ordered:
        file = by_path.get(finding.path)
        canon = file.canonical if file is not None \
            else canonical_path(finding.path)
        text = file.line_text(finding.line).strip() if file is not None \
            else ""
        key = (canon, finding.pass_name, finding.rule, text)
        occurrence = counters.get(key, 0)
        counters[key] = occurrence + 1
        payload = "::".join((canon, finding.pass_name, finding.rule, text,
                             str(occurrence)))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        finding.fingerprint = digest[:16]


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute path of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
