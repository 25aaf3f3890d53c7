"""Order-tracking helpers for Visibility-Point condition checks.

The VP conditions are all of the form "no *older* instruction with property
P remains" (unresolved branch, unknown-address store, unretired load...).
``LazyMinSet`` tracks the minimum program-order index of a dynamic set with
O(log n) inserts and amortized O(log n) removals via lazy heap deletion, so
per-cycle VP checks stay cheap even with a 192-entry ROB.

The VP *frontier* — the set of loads whose VP could be marked this cycle
(address generated, VP not yet reached, still in flight) — used to be a
side dict of candidate entries.  With the column layout a candidate is
one flag bit (``FLAG_VP_CAND``) plus a live counter on the core
(``Core._vp_candidates``), and the walk is a load-queue ring scan that
skips non-candidates on a single flags read; see the engine's
``_make_update_vps`` (``repro.sim.engine``).
"""

from __future__ import annotations

import heapq
from typing import Optional, Set


class LazyMinSet:
    """A set of integers supporting fast ``min()`` under add/discard."""

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap: list = []
        self._live: Set[int] = set()

    def add(self, value: int) -> None:
        if value not in self._live:
            self._live.add(value)
            heapq.heappush(self._heap, value)

    def discard(self, value: int) -> None:
        self._live.discard(value)

    def __contains__(self, value: int) -> bool:
        return value in self._live

    def __len__(self) -> int:
        return len(self._live)

    def min(self) -> Optional[int]:
        """Smallest live value, or ``None`` when empty."""
        heap = self._heap
        live = self._live
        while heap and heap[0] not in live:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def none_below(self, index: int) -> bool:
        """True iff no live value is strictly smaller than ``index``."""
        smallest = self.min()
        return smallest is None or smallest >= index

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()
