"""Delay-On-Miss: speculative loads may only execute if they hit in L1."""

from __future__ import annotations

from repro.core.rob import ROBEntry
from repro.security.scheme import DefenseScheme


class DelayOnMissScheme(DefenseScheme):
    """Pre-VP loads probe the L1: a hit proceeds (it leaves no new cache
    state), a miss stalls the load until its VP (Sakalis et al. / Li et al.,
    paper Table 2).  Applications with poor L1 hit rates therefore pay the
    full VP wait — the behaviour the paper highlights for bwaves/fotonik3d.
    """

    __slots__ = ()

    name = "dom"

    def __init__(self, core) -> None:
        super().__init__(core)
        # leakage-oracle mutant (DEFENSE_MUTATIONS): pre-VP misses stop
        # being delayed, so the attack campaign's self-test can assert
        # the oracle flips DOM's verdict to "leaks"
        self.mutated = core.config.defense_mutation == "dom-leaky-miss"

    def may_issue_pre_vp(self, entry: ROBEntry) -> bool:
        if self.mutated:
            return True
        core = self.core
        return core.mem.l1_hit(core.core_id, entry.line)
