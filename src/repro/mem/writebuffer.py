"""Per-core FIFO write buffer.

TSO forbids store→store reordering, so retired stores drain to the coherent
memory system strictly in order (paper §2).  The buffer's *free capacity* is
also a pinning precondition: a load may only be pinned if every
yet-to-complete older store fits in the buffer (paper §5.1.2, Figure 4's
deadlock).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional


class WriteBufferEntry:
    __slots__ = ("line", "draining")

    def __init__(self, line: int) -> None:
        self.line = line
        self.draining = False


class WriteBuffer:
    """A bounded FIFO of retired-but-unperformed stores (line granularity).

    ``backpressure`` is a chaos-injection hook (``repro.chaos``): while
    set, the buffer *reports* itself full — store retire stalls and the
    pinning precondition window shrinks — without changing its actual
    occupancy or the drain path, so a bounded spike only perturbs timing.
    """

    __slots__ = ("capacity", "_entries", "_line_counts", "backpressure")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[WriteBufferEntry] = deque()
        #: refcount per line, so ``contains_line`` (on the load-issue
        #: path, called several times per cycle) is one dict probe
        self._line_counts: Dict[int, int] = {}
        self.backpressure = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return self.backpressure or len(self._entries) >= self.capacity

    def push(self, line: int) -> WriteBufferEntry:
        """Deposit a retiring store.  Caller must check ``full`` first.
        Only real occupancy overflows; chaos backpressure gates retire
        upstream but never corrupts the buffer itself."""
        if len(self._entries) >= self.capacity:
            raise OverflowError("write buffer full")
        entry = WriteBufferEntry(line)
        self._entries.append(entry)
        counts = self._line_counts
        counts[line] = counts.get(line, 0) + 1
        return entry

    def head(self) -> Optional[WriteBufferEntry]:
        return self._entries[0] if self._entries else None

    def contains_line(self, line: int) -> bool:
        """Is a retired-but-unperformed store to ``line`` buffered?  Used
        for store-to-load forwarding from the write buffer."""
        return line in self._line_counts

    def pop(self) -> WriteBufferEntry:
        """Remove the head entry once its write has performed."""
        entry = self._entries.popleft()
        counts = self._line_counts
        remaining = counts[entry.line] - 1
        if remaining:
            counts[entry.line] = remaining
        else:
            del counts[entry.line]
        return entry

    @property
    def empty(self) -> bool:
        return not self._entries
