"""Name-based call graph over the analyzed files.

The simulator's contracts are phrased per *function* ("every function
that moves wake-relevant state must re-arm the dirty bit, or only ever
run under a caller that does"), so the wakeup and event-discipline
passes need to know, for each function, which functions call it.

Resolution is deliberately name-based — a lint, not a type checker:
``ctl._pin(load)`` is an edge to *every* function defined with the
bare name ``_pin``.  Over-approximating the caller set makes
caller-coverage *optimistic* (a mutation is excused if some same-named
covered function could be the caller), which is the right bias for a
contract checker that must not drown real violations in false
positives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.verify.passes.base import SourceFile


class FunctionNode:
    """One function/method definition and the bare names it calls."""

    __slots__ = ("name", "file", "node", "calls")

    def __init__(self, name: str, file: SourceFile,
                 node: ast.AST) -> None:
        self.name = name
        self.file = file
        self.node = node
        self.calls: Set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionNode({self.file.canonical}:{self.name})"


def _called_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class CallGraph:
    """Bare-name call graph plus the enclosing-function index."""

    def __init__(self, files: Iterable[SourceFile]) -> None:
        #: bare name -> every definition of that name
        self.functions: Dict[str, List[FunctionNode]] = {}
        #: callee bare name -> bare names of functions that call it
        self.callers: Dict[str, Set[str]] = {}
        #: id(ast stmt/expr node) -> enclosing FunctionNode
        self._owner: Dict[int, FunctionNode] = {}
        for file in files:
            if file.tree is None:
                continue
            self._index_scope(file, file.tree, None)

    def _index_scope(self, file: SourceFile, node: ast.AST,
                     owner: Optional[FunctionNode]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionNode(child.name, file, child)
                self.functions.setdefault(child.name, []).append(fn)
                self._owner[id(child)] = owner  # def site belongs outside
                self._index_scope(file, child, fn)
            else:
                self._owner[id(child)] = owner
                if isinstance(child, ast.Call) and owner is not None:
                    callee = _called_name(child)
                    if callee is not None:
                        owner.calls.add(callee)
                        self.callers.setdefault(callee, set()) \
                            .add(owner.name)
                self._index_scope(file, child, owner)

    def owner_of(self, node: ast.AST) -> Optional[FunctionNode]:
        """The function a node is defined in (None at module level)."""
        return self._owner.get(id(node))

    # -- contract closures ---------------------------------------------

    def covered_names(self, roots: Set[str],
                      exempt: Set[str]) -> Set[str]:
        """Least fixpoint of caller coverage.

        A bare name is *covered* when it is a root (satisfies the
        contract itself), is exempt by convention, or every function
        that calls it is itself covered (and at least one caller
        exists — an uncalled helper that mutates contract state gets no
        benefit of the doubt).
        """
        covered = set(roots) | set(exempt)
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                if name in covered:
                    continue
                callers = self.callers.get(name, set()) - {name}
                if callers and callers.issubset(covered):
                    covered.add(name)
                    changed = True
        return covered
