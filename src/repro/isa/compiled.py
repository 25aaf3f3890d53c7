"""Trace precompilation: flat opcode bytes per ``Trace``.

The specialized run loops (``repro.sim.engine``) touch the trace on
every dispatch, issue, retire and quiet probe.  Going through the
per-uop object model costs an object index, an attribute load, and —
for ``is_load``/``is_store`` — a property *call* per touch.  A
``CompiledTrace`` decodes the op classes once into byte strings indexed
by the program-order position (the integer handle the core's cursor
already is):

* ``opcodes``   — one byte per uop (``OP_*`` codes below);
* ``is_load`` / ``is_store`` — byte flags.

Everything else the engine needs per uop (the ``MicroOp`` itself, its
cache line and dependency tuples) is boxed from the trace at each
engine build, so the memo below holds only these few bytes per uop
for as long as the trace lives.  The arrays are derived and immutable,
so they are *not* checkpoint state: the engine that reads them is
dropped from the pickled ``System`` graph and rebuilt after a restore.
"""

from __future__ import annotations

import weakref
from typing import Dict

from repro.isa.trace import Trace
from repro.isa.uops import OpClass

#: Stable opcode bytes; order mirrors the ``OpClass`` declaration.
OP_INT_ALU = 0
OP_FP_ALU = 1
OP_BRANCH = 2
OP_LOAD = 3
OP_STORE = 4
OP_FENCE = 5
OP_ATOMIC = 6
OP_BARRIER = 7

OP_CODES: Dict[OpClass, int] = {
    OpClass.INT_ALU: OP_INT_ALU,
    OpClass.FP_ALU: OP_FP_ALU,
    OpClass.BRANCH: OP_BRANCH,
    OpClass.LOAD: OP_LOAD,
    OpClass.STORE: OP_STORE,
    OpClass.FENCE: OP_FENCE,
    OpClass.ATOMIC: OP_ATOMIC,
    OpClass.BARRIER: OP_BARRIER,
}


class CompiledTrace:
    """Opcode/load/store bytes of one immutable ``Trace``."""

    __slots__ = ("opcodes", "is_load", "is_store")

    def __init__(self, trace: Trace) -> None:
        # bytes (not bytearray): immutable and the fastest indexed read
        self.opcodes = bytes(OP_CODES[uop.opclass] for uop in trace)
        self.is_load = bytes(code == OP_LOAD for code in self.opcodes)
        self.is_store = bytes(code == OP_STORE for code in self.opcodes)


#: Per-trace memo: traces are immutable, so the decode is shared by
#: every system bound to the same workload (a figure's scheme row).
#: Weak keys keep the cache from pinning dead workloads.
_COMPILED: "weakref.WeakKeyDictionary[Trace, CompiledTrace]" = \
    weakref.WeakKeyDictionary()


def compile_trace(trace: Trace) -> CompiledTrace:
    compiled = _COMPILED.get(trace)
    if compiled is None:
        compiled = CompiledTrace(trace)
        _COMPILED[trace] = compiled
    return compiled
