"""event-discipline: time moves only through the EventQueue.

Two invariants keep chaos runs bit-reproducible and checkpointable:

* ``direct-cycle-write`` — simulated time (``EventQueue.now``,
  ``System.cycles``, ``Core.cycle``) is advanced by the run loops and
  the queue itself, nowhere else.  Any other assignment teleports a
  component through time relative to the event heap — the failure mode
  the deadlock watchdog can only catch long after the fact.
* ``unscheduled-chaos-mutation`` — every fault the chaos engine injects
  (forced evictions, write-buffer spikes, crash/stall/alloc faults)
  must fire from an ``EventQueue``-scheduled callback or a registered
  memory-system hook, never synchronously from arbitrary code.  A
  mutation outside the event stream has no deterministic position in
  the cycle-accurate interleaving (and never lands in a checkpoint's
  pending-event heap), so the same seed stops reproducing the same run.

Coverage for the chaos rule mirrors the wakeup pass: a function is
disciplined if its bound-method name is handed to ``schedule``/
``schedule_after`` anywhere in the chaos package, if it is one of the
registered hooks (``message_jitter``/``nack_delay`` are *invoked by*
the memory system inside the event stream), or if every caller is
disciplined (``install`` and ``__init__`` run before cycle zero).
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.verify.passes.base import (AnalysisPass, Finding, PassContext,
                                      SourceFile, dotted)
from repro.verify.passes.callgraph import CallGraph

#: attributes that *are* simulated time
CYCLE_ATTRS = {"now", "cycles", "cycle"}

#: the queue itself owns .now
CYCLE_OWNER_SUFFIX = "common/events.py"

#: functions allowed to write time: the run loops (the engine's run
#: methods and per-core ``tick`` closures, the reference loop) assign the
#: cycle they are executing, __init__ establishes cycle zero
CYCLE_WRITER_FUNCS = {"__init__", "run", "run_reference", "tick",
                      "tick_reference", "_run_single", "_run_multi"}

CYCLE_SCOPED_PACKAGES = {"core", "mem", "pinning", "security", "sim",
                         "chaos", "common"}

SCHEDULE_CALLS = {"schedule", "schedule_after"}

#: hooks the memory system invokes from inside the event stream
CHAOS_HOOKS = {"message_jitter", "nack_delay"}

#: chaos functions that run before cycle zero
CHAOS_SETUP_FUNCS = {"install", "__init__"}

#: attribute chains through these names reach live system state
SYSTEM_CHAIN_NAMES = {"system", "mem", "network", "cores", "write_buffer",
                      "l1s", "slices", "ports", "events"}

#: method calls that mutate live system state
SYSTEM_MUTATOR_CALLS = {"_evict_l1", "invalidate", "send",
                        "on_line_evicted", "bump"}


def _attr_chain_names(node: ast.AST) -> Set[str]:
    """Attribute names along a target chain (the root local variable is
    deliberately excluded: a *local* dict that happens to be called
    ``cores`` is not live system state)."""
    names: Set[str] = set()
    while True:
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return names


class EventDisciplinePass(AnalysisPass):
    name = "event-discipline"
    description = ("simulated time advances only through the run loops "
                   "and EventQueue; chaos faults fire only from "
                   "scheduled events or registered hooks")
    rules = {
        "direct-cycle-write": "only the run loops and the EventQueue "
                              "may assign simulated time",
        "unscheduled-chaos-mutation": "chaos fault injection must run "
                                      "from EventQueue-scheduled "
                                      "callbacks or registered hooks",
    }

    def run(self, ctx: PassContext) -> List[Finding]:
        findings: List[Finding] = []
        chaos_files = []
        cycle_files = []
        for file in ctx.files:
            if file.tree is None:
                continue
            if file.package in CYCLE_SCOPED_PACKAGES:
                cycle_files.append(file)
            if file.package == "chaos":
                chaos_files.append(file)
        for file in cycle_files:
            findings.extend(self._check_cycle_writes(file))
        if chaos_files:
            findings.extend(self._check_chaos(chaos_files))
        return findings

    # -- direct cycle manipulation ----------------------------------------

    def _check_cycle_writes(self, file: SourceFile) -> List[Finding]:
        if file.canonical.endswith(CYCLE_OWNER_SUFFIX):
            return []
        findings: List[Finding] = []
        graph = CallGraph([file])
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr in CYCLE_ATTRS):
                    continue
                owner = graph.owner_of(node)
                if owner is not None \
                        and owner.name in CYCLE_WRITER_FUNCS:
                    continue
                where = owner.name + "()" if owner is not None \
                    else "module level"
                findings.append(self.finding(
                    file, node, "direct-cycle-write",
                    f"assignment to .{target.attr} in {where} "
                    f"manipulates simulated time outside the run "
                    f"loops; schedule an event instead"))
        return findings

    # -- chaos mutations must be event-scheduled ----------------------------

    def _check_chaos(self, files: List[SourceFile]) -> List[Finding]:
        graph = CallGraph(files)
        scheduled: Set[str] = set()
        for file in files:
            assert file.tree is not None
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in SCHEDULE_CALLS:
                    for arg in list(node.args) \
                            + [kw.value for kw in node.keywords]:
                        if isinstance(arg, ast.Attribute):
                            scheduled.add(arg.attr)
                        elif isinstance(arg, ast.Name):
                            scheduled.add(arg.id)
        disciplined = graph.covered_names(
            scheduled | CHAOS_HOOKS, CHAOS_SETUP_FUNCS)
        findings: List[Finding] = []
        for file in files:
            for node, what in self._mutation_sites(file):
                owner = graph.owner_of(node)
                if owner is None or owner.name in disciplined:
                    continue
                findings.append(self.finding(
                    file, node, "unscheduled-chaos-mutation",
                    f"{what} in {owner.name}() mutates live system "
                    f"state, but {owner.name} is never scheduled on "
                    f"the EventQueue (nor reached only from scheduled "
                    f"callbacks/hooks); the fault has no deterministic "
                    f"position in the run"))
        return findings

    @staticmethod
    def _mutation_sites(file: SourceFile):
        sites = []
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and _attr_chain_names(target) \
                            & SYSTEM_CHAIN_NAMES:
                        sites.append(
                            (node,
                             f"assignment to "
                             f"{ast.unparse(target)}"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in SYSTEM_MUTATOR_CALLS:
                sites.append((node, f"{node.func.attr}(...) call"))
        return sites
