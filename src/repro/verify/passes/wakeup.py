"""wakeup-contract: wake-relevant mutations must re-arm the dirty bit.

The event-driven fast-forward (``System.run`` skipping cycles a defended
core proves quiet via the engine's quiet probe, ``repro.sim.engine``) is
sound only under one
contract: **every mutation that can change the next value-predictable
cycle — VP frontier membership, taint/root tracking, pin/CST/CPT state,
LQ/SQ allocation — must re-arm ``Core._wake_pending``**, either directly
or by running strictly under a caller that does.  A missed re-arm does
not fail loudly; it makes the core sleep through a wakeup and silently
diverges the defended run from ``run_reference`` (the bit-exact parity
the whole reproduction hangs on, see docs/performance.md).

This pass encodes the contract statically:

* *mutation sites* are assignments/calls touching a registry of
  wake-relevant attribute names and methods (below), in files under
  ``core/``, ``mem/``, ``pinning/`` and ``security/``;
* a function *re-arms* only if it assigns ``._wake_pending = True``
  itself (deliberately NOT "calls something that re-arms": such calls
  are usually conditional, and crediting them would have excused
  deleting the re-arm from every event callback in ``pipeline.py`` —
  the checker must catch its own seeded mutations to be worth running);
* a function is *covered* if it re-arms, is a conventional root
  (``__init__`` runs before the first tick; ``tick``/``tick_reference``
  mutations are observed by the cycle already being executed), or every
  caller is covered (least fixpoint; an uncalled function is NOT
  covered — event callbacks have no static callers and must re-arm
  themselves, which is exactly the bug class this pass hunts).

A mutation site in an uncovered function is a finding.  Intentional
exceptions carry ``# repro: allow-wakeup-rearm`` with a why-comment.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.verify.passes.base import (AnalysisPass, Finding, PassContext,
                                      SourceFile)
from repro.verify.passes.callgraph import CallGraph, FunctionNode

#: packages whose files are subject to the contract
WAKE_SCOPED_PACKAGES = {"core", "mem", "pinning", "security"}

#: scalar attributes whose assignment can move a core's wake condition
#: (``_vp_candidates`` is the counter that gates the specialized VP walk
#: — it replaced the old ``_vp_frontier`` dict in checkpoint format 4)
WAKE_SCALAR_ATTRS = {"mcv_safe", "pinned", "vp_cycle", "parked",
                     "_vp_candidates"}

#: container attributes whose membership feeds the quiet probe / VP walk
WAKE_CONTAINER_ATTRS = {
    "unresolved_branches", "unknown_addr_stores",
    "unknown_addr_memops", "unretired_loads", "serializing",
    "_output_roots", "_live_lq", "_pinned_counts",
}

#: wake-relevant bits of the struct-of-arrays ``ColumnState.flags``
#: column: a read-modify-write store of one of these constants into a
#: subscripted column (``flags[slot] |= FLAG_VP_CAND``) moves the same
#: wake condition the scalar attribute spellings above do
WAKE_FLAG_CONSTANTS = {"FLAG_PINNED", "FLAG_MCV_SAFE", "FLAG_VP_CAND",
                       "FLAG_PARKED"}

#: method calls that mutate a container
CONTAINER_MUTATORS = {"add", "discard", "remove", "pop", "clear",
                      "insert", "append", "appendleft", "update",
                      "setdefault", "popleft"}

#: receiver attribute -> methods that mutate pin/CST/CPT/LSQ state
WAKE_OBJECT_METHODS = {
    "cpt": {"insert", "remove"},
    "l1_cst": {"try_pin", "cancel", "clear"},
    "dir_cst": {"try_pin", "cancel", "clear"},
    "lq": {"allocate", "release_head", "squash_younger_or_equal"},
    "sq": {"allocate", "release_head", "squash_younger_or_equal"},
}

#: function names covered by convention, not by re-arming:
#: ``__init__`` runs during construction (before any tick can sleep);
#: ``tick``/``tick_reference`` are the per-cycle entry points (the
#: engine's per-core closures, ``PinnedLoadsController.tick``, the
#: reference step) — any state they move is observed by the very cycle
#: executing them, and the engine's ``tick`` owns the flag's
#: clear/handoff itself.
WAKE_EXEMPT_ROOTS = {"__init__", "tick", "tick_reference"}

WAKE_FLAG = "_wake_pending"


def _attr_of(node: ast.AST) -> Optional[str]:
    """Final attribute name of an attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _assigns_wake_flag_true(fn: FunctionNode) -> bool:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            if any(_attr_of(t) == WAKE_FLAG for t in node.targets) \
                    and isinstance(node.value, ast.Constant) \
                    and node.value.value is True:
                return True
    return False


class _MutationSite:
    __slots__ = ("file", "node", "what")

    def __init__(self, file: SourceFile, node: ast.AST, what: str) -> None:
        self.file = file
        self.node = node
        self.what = what


def _container_target(node: ast.AST) -> Optional[str]:
    """Wake-registered container an expression refers to, if any."""
    if isinstance(node, ast.Attribute) \
            and node.attr in WAKE_CONTAINER_ATTRS:
        return node.attr
    return None


def _wake_flag_in(value: ast.AST) -> Optional[str]:
    """Wake-relevant FLAG_* constant referenced by an expression."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Name) and sub.id in WAKE_FLAG_CONSTANTS:
            return sub.id
    return None


def _collect_sites(file: SourceFile) -> List[_MutationSite]:
    sites: List[_MutationSite] = []
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                attr = _attr_of(target)
                if attr in WAKE_SCALAR_ATTRS:
                    sites.append(_MutationSite(
                        file, node, f"assignment to .{attr}"))
                elif isinstance(target, ast.Subscript):
                    container = _container_target(target.value)
                    if container is not None:
                        sites.append(_MutationSite(
                            file, node,
                            f"item assignment into .{container}"))
                    elif isinstance(node, ast.AugAssign):
                        # flags[slot] |= FLAG_X / &= ~FLAG_X: the
                        # struct-of-arrays spelling of the scalar
                        # attribute stores above
                        flag = _wake_flag_in(node.value)
                        if flag is not None:
                            sites.append(_MutationSite(
                                file, node,
                                f"flag-column store of {flag}"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    container = _container_target(target.value)
                    if container is not None:
                        sites.append(_MutationSite(
                            file, node, f"deletion from .{container}"))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            container = _container_target(receiver)
            if container is not None and method in CONTAINER_MUTATORS:
                sites.append(_MutationSite(
                    file, node, f".{container}.{method}(...)"))
                continue
            recv_attr = _attr_of(receiver)
            if recv_attr in WAKE_OBJECT_METHODS \
                    and method in WAKE_OBJECT_METHODS[recv_attr]:
                sites.append(_MutationSite(
                    file, node, f".{recv_attr}.{method}(...)"))
    return sites


class WakeupContractPass(AnalysisPass):
    name = "wakeup-contract"
    description = ("every mutation of wake-relevant state (VP frontier, "
                   "taint roots, pin/CST/CPT, LQ/SQ) must re-arm "
                   "Core._wake_pending or run under a caller that does")
    rules = {
        "wakeup-rearm": "wake-relevant mutations must (transitively) "
                        "re-arm Core._wake_pending",
    }

    def run(self, ctx: PassContext) -> List[Finding]:
        scoped = [f for f in ctx.files
                  if f.package in WAKE_SCOPED_PACKAGES
                  and f.tree is not None]
        if not scoped:
            return []
        # the call graph spans *all* analyzed files so that callers
        # outside the scoped packages (e.g. sim/engine.py driving the
        # stage methods) still count as coverage evidence
        graph = CallGraph(f for f in ctx.files if f.tree is not None)
        rearming: Set[str] = {
            name for name, nodes in graph.functions.items()
            if any(_assigns_wake_flag_true(fn) for fn in nodes)}
        covered = graph.covered_names(rearming, WAKE_EXEMPT_ROOTS)
        findings: List[Finding] = []
        for file in scoped:
            for site in _collect_sites(file):
                owner = graph.owner_of(site.node)
                if owner is None:
                    continue  # module level: import time, nothing sleeps
                if owner.name in covered:
                    continue
                findings.append(self.finding(
                    file, site.node, "wakeup-rearm",
                    f"{site.what} in {owner.name}() moves wake-relevant "
                    f"state, but {owner.name} neither re-arms "
                    f"Core._wake_pending nor runs only under callers "
                    f"that do; a skipped wakeup silently breaks "
                    f"run_reference parity"))
        return findings
