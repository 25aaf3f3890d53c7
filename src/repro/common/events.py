"""A minimal discrete-event kernel.

The simulator is cycle-stepped (each core ticks every cycle), but memory
responses, write-buffer retries, and protocol completions are scheduled as
events on this queue and delivered at the top of the owning cycle.

``schedule``/``schedule_after`` accept trailing positional arguments that
are passed through to the callback.  Hot paths use this instead of
wrapping the call in a lambda: binding arguments into the heap entry
avoids one closure allocation per scheduled event (see
``docs/performance.md``).

The queue doubles as the wakeup source for ``System.run``'s idle-cycle
fast-forward: pending events bound how far the loop may skip (the head
of the heap), so a state transition is allowed to be "invisible" to the
engine's quiet probe (``repro.sim.engine``) exactly when it is
scheduled here.  Do NOT add
no-op "wakeup" events to widen that contract — every schedule consumes
a tie-breaking sequence number, so an extra event perturbs the FIFO
order of same-cycle deliveries and changes simulated behaviour.  Cores
signal tick-time wakeups with the ``Core._wake_pending`` flag instead.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Callable, List, Tuple


class EventQueue:
    """Time-ordered callback queue with stable FIFO ordering for ties.

    The tie-breaking sequence number is a plain integer (not an
    ``itertools.count``) so a mid-run queue — callbacks, bound arguments,
    and the counter itself — pickles into a simulation checkpoint
    (``repro.sim.checkpoint``) and resumes with identical ordering.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0

    def schedule(self, when: int, callback: Callable[..., None],
                 *args) -> None:
        """Run ``callback(*args)`` at cycle ``when`` (not in the past)."""
        if when < self.now:
            raise ValueError(f"cannot schedule at {when}, now is {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, callback, args))

    def schedule_after(self, delay: int, callback: Callable[..., None],
                       *args) -> None:
        self.schedule(self.now + delay, callback, *args)

    def run_until(self, cycle: int) -> None:
        """Advance time to ``cycle`` and fire every event due by then."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            when, _, callback, args = heappop(heap)
            self.now = when
            callback(*args)
        self.now = cycle

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def next_time(self):
        """Cycle of the earliest pending event, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None

    def pending_summary(self, limit: int = 16) -> List[Tuple[int, str]]:
        """The earliest pending events as ``(cycle, callback name)`` pairs
        — diagnostic output for deadlock dumps, not simulation state."""
        entries = heapq.nsmallest(limit, self._heap)
        summary = []
        for when, _, callback, _args in entries:
            target = getattr(callback, "func", callback)   # unwrap partials
            name = getattr(target, "__qualname__", None) or repr(target)
            summary.append((when, name))
        return summary
