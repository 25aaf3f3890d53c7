"""Speculative Taint Tracking: stall loads whose addresses are tainted."""

from __future__ import annotations

from repro.core.rob import ROBEntry
from repro.security.scheme import DefenseScheme


class STTScheme(DefenseScheme):
    """Pre-VP loads execute freely unless their address operands are derived
    from transiently-read data (a pre-VP load's output).  Untainting happens
    when the producing load reaches its VP — which is exactly the event
    Pinned Loads accelerates (paper §3.1)."""

    __slots__ = ()

    name = "stt"

    def __init__(self, core) -> None:
        super().__init__(core)
        # leakage-oracle mutant (DEFENSE_MUTATIONS): taint queries are
        # ignored, so the attack campaign's self-test can assert the
        # oracle flips STT's verdict to "leaks"
        self.mutated = core.config.defense_mutation == "stt-blind-taint"

    def may_issue_pre_vp(self, entry: ROBEntry) -> bool:
        if self.mutated:
            return True
        return not self.core.taint.addr_tainted(entry)
