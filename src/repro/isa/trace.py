"""Trace containers: per-thread uop sequences plus workload metadata."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence

from repro.isa.uops import MicroOp, OpClass


#: op classes a transient (wrong-path) uop may have: wrong-path work is
#: loads and the arithmetic feeding their addresses — never stores,
#: branches, or serializing ops, which would perturb architectural state
TRANSIENT_CLASSES = frozenset({OpClass.LOAD, OpClass.INT_ALU,
                               OpClass.FP_ALU})


class Trace:
    """An immutable per-thread instruction sequence.

    The core keeps a cursor into the trace; a squash simply rewinds the
    cursor, so the same ``Trace`` serves replay for free.

    **Transient uops.**  A uop with ``guard=g`` exists only on the wrong
    path of the mispredicted branch at index ``g``: it dispatches and
    executes normally until the guard resolves, after which every replay
    dispatches its precomputed architectural *NOP twin* (an INT_ALU uop
    with the same index and deps but no address) instead.  The twins are
    built here, once, so dispatch-time substitution is a dict lookup and
    squash-and-replay still re-dispatches stable uop objects.
    """

    # __weakref__ so derived views (repro.isa.compiled) can memoize per
    # trace without keeping it alive
    __slots__ = ("_uops", "name", "twins", "has_transient",
                 "probe_indices", "__weakref__")

    def __init__(self, uops: Sequence[MicroOp], name: str = "trace") -> None:
        self._uops: List[MicroOp] = list(uops)
        self.name = name
        for position, uop in enumerate(self._uops):
            if uop.index != position:
                raise ValueError(
                    f"uop at position {position} has index {uop.index}")
        self.twins: Dict[int, MicroOp] = {}
        self.probe_indices = tuple(
            uop.index for uop in self._uops if uop.probe)
        for uop in self._uops:
            if uop.guard is None:
                # architectural uops must not consume wrong-path values
                for dep in uop.deps + uop.data_deps:
                    if self._uops[dep].guard is not None:
                        raise ValueError(
                            f"architectural uop {uop.index} depends on "
                            f"transient uop {dep}")
                continue
            if uop.opclass not in TRANSIENT_CLASSES:
                raise ValueError(
                    f"transient uop {uop.index} has op class "
                    f"{uop.opclass}; only loads and ALU ops may be "
                    f"transient")
            g = self._uops[uop.guard]
            if not (g.is_branch and g.mispredicted):
                raise ValueError(
                    f"uop {uop.index} guarded by {uop.guard}, which is "
                    f"not a mispredicted branch")
            for dep in uop.deps:
                dep_guard = self._uops[dep].guard
                if dep_guard is not None and dep_guard != uop.guard:
                    raise ValueError(
                        f"transient uop {uop.index} (guard {uop.guard}) "
                        f"depends on uop {dep} under a different guard "
                        f"{dep_guard}")
            self.twins[uop.index] = MicroOp(uop.index, OpClass.INT_ALU,
                                            deps=uop.deps)
        self.has_transient = bool(self.twins)

    def __len__(self) -> int:
        return len(self._uops)

    def __getitem__(self, index: int) -> MicroOp:
        return self._uops[index]

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._uops)

    def count(self, opclass: OpClass) -> int:
        return sum(1 for uop in self._uops if uop.opclass is opclass)

    def mix(self) -> Dict[str, float]:
        """Fraction of the trace in each op class (diagnostics/tests)."""
        total = max(len(self._uops), 1)
        return {cls.value: self.count(cls) / total for cls in OpClass}

    def footprint_lines(self) -> int:
        """Number of distinct cache lines the trace touches."""
        lines = {uop.addr >> 6 for uop in self._uops if uop.addr is not None}
        return len(lines)


class Workload:
    """A named set of per-thread traces that run together on one system."""

    __slots__ = ("traces", "name", "_fingerprint")

    def __init__(self, traces: Sequence[Trace],
                 name: str = "workload") -> None:
        if not traces:
            raise ValueError("workload needs at least one trace")
        self.traces: List[Trace] = list(traces)
        self.name = name
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content hash of the actual instruction streams (not the name).

        Two workloads that share a name but differ in any uop (different
        instruction count, seed, profile...) get different fingerprints,
        so experiment caches keyed on it can never alias them.  Computed
        once and memoized; traces are immutable after construction."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for trace in self.traces:
                digest.update(b"T")
                for uop in trace:
                    record = (uop.index, uop.opclass.value, uop.deps,
                              uop.data_deps, uop.addr, uop.mispredicted,
                              uop.barrier_id)
                    if uop.guard is not None or uop.probe:
                        # appended only when set so every pre-existing
                        # trace keeps its fingerprint (and cache keys)
                        record = record + (uop.guard, uop.probe)
                    digest.update(repr(record).encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def num_threads(self) -> int:
        return len(self.traces)

    @property
    def total_instructions(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def __repr__(self) -> str:
        return (f"Workload({self.name!r}, threads={self.num_threads}, "
                f"instructions={self.total_instructions})")
