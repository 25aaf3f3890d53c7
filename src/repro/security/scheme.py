"""Defense-scheme interface.

A defense scheme answers one question for the pipeline: *may this pre-VP
load issue to the memory system right now?*  Loads at or past their VP
always issue unprotected; Pinned Loads never changes a scheme's answer, it
only moves the VP earlier (paper §4).
"""

from __future__ import annotations

import enum

from repro.core.rob import ROBEntry


class IssueMode(enum.Enum):
    """How a pre-VP load may execute right now."""

    STALL = "stall"          # not at all (Fence; DOM on a miss; STT taint)
    NORMAL = "normal"        # unprotected (post-VP, or the scheme allows)
    INVISIBLE = "invisible"  # without changing cache state; must validate
    #                          at the VP (invisible-speculation schemes)


class DefenseScheme:
    """Base class; the default is fully permissive (no protection)."""

    __slots__ = ("core", "mutated")

    name = "base"
    #: If False, the core skips VP bookkeeping for issue decisions entirely
    #: (the Unsafe baseline issues loads whenever their operands are ready).
    gates_issue = True

    def __init__(self, core) -> None:
        self.core = core
        #: Weakened by its test-only ``DEFENSE_MUTATIONS`` entry: every
        #: pre-VP load may issue (the engine then runs the unsafe loop).
        self.mutated = False

    def may_issue_pre_vp(self, entry: ROBEntry) -> bool:
        """May this load, which has NOT reached its VP, execute now?"""
        raise NotImplementedError

    def pre_vp_issue_mode(self, entry: ROBEntry) -> IssueMode:
        """Richer form of ``may_issue_pre_vp``; schemes that execute loads
        invisibly override this to return ``IssueMode.INVISIBLE``."""
        return (IssueMode.NORMAL if self.may_issue_pre_vp(entry)
                else IssueMode.STALL)

    def on_load_vp(self, entry: ROBEntry) -> None:
        """Hook invoked once when a load reaches its VP (for bookkeeping)."""
