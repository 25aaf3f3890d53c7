"""Set-associative cache arrays and MSHRs.

``CacheArray`` is used both for private L1 data caches and for the LLC
slices (whose tag array doubles as the directory — the hierarchy is
inclusive, as in the paper's MESI configuration).
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Callable, Dict, List, Optional

from repro.common.params import CacheParams

#: read-only stand-in for a set no fill has created yet
_NO_LINES = MappingProxyType({})


class LineState(enum.Enum):
    """MESI stable states for a private-cache line."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"

    @property
    def writable(self) -> bool:
        return self is not LineState.SHARED


class CacheArray:
    """A physically-indexed, set-associative array with LRU replacement.

    ``_sets`` maps a set index to that set's ``{line: state}`` dict and
    holds only the sets ``fill`` has created: a run touches a few percent
    of a modelled LLC's sets, and a set never filled reads as an empty
    one.  Each set dict iterates from LRU to MRU — plain dicts keep
    insertion order, and "recently used" is re-insertion at the end
    (``pop`` + assign).
    """

    __slots__ = ("params", "num_sets", "ways", "_sets", "_mask")

    def __init__(self, params: CacheParams) -> None:
        params.validate()
        self.params = params
        self.num_sets = params.sets
        self.ways = params.ways
        self._mask = self.num_sets - 1      # sets is a power of two
        self._sets: Dict[int, Dict[int, object]] = {}

    def set_of(self, line: int) -> int:
        return line & self._mask

    def lookup(self, line: int, touch: bool = True) -> Optional[LineState]:
        """State of ``line`` if resident (``None`` on miss).  Called on
        every load/store/probe, so the set index is computed inline."""
        lines = self._sets.get(line & self._mask, _NO_LINES)
        state = lines.get(line)
        if state is not None and touch:
            lines[line] = lines.pop(line)
        return state

    def set_state(self, line: int, state: LineState) -> None:
        """Overwrite a resident line's state; the line becomes MRU."""
        lines = self._sets.get(line & self._mask, _NO_LINES)
        if line not in lines:
            raise KeyError(f"line {line:#x} not resident")
        del lines[line]
        lines[line] = state

    def fill(self, line: int, state: LineState) -> None:
        """Insert ``line`` as MRU; the caller must already have made room."""
        index = line & self._mask
        lines = self._sets.get(index)
        if lines is None:
            lines = self._sets[index] = {}
        elif len(lines) >= self.ways:
            raise ValueError("set full; evict first")
        lines[line] = state

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns whether it was resident."""
        lines = self._sets.get(line & self._mask, _NO_LINES)
        if line in lines:
            del lines[line]
            return True
        return False

    def needs_victim(self, line: int) -> bool:
        lines = self._sets.get(line & self._mask, _NO_LINES)
        return line not in lines and len(lines) >= self.ways

    def pick_victim(self, line: int,
                    evictable: Optional[Callable[[int], bool]] = None,
                    ) -> Optional[int]:
        """The LRU line of ``line``'s set for which ``evictable`` holds.

        Pinned Loads' eviction-denial rule (paper §5.1.3): skipped
        (pinned) lines are promoted to MRU, "as if the line had been
        accessed".  Returns ``None`` when every resident line is pinned.
        """
        lines = self._sets.get(line & self._mask, _NO_LINES)
        skipped = []
        victim = None
        for resident in lines:
            if evictable is None or evictable(resident):
                victim = resident
                break
            skipped.append(resident)
        for resident in skipped:
            lines[resident] = lines.pop(resident)
        return victim

    def resident_lines(self, set_index: int):
        return self._sets.get(set_index, _NO_LINES).keys()

    def sample_resident_line(self, rng,
                             evictable: Optional[Callable[[int], bool]] = None,
                             ) -> Optional[int]:
        """A uniformly random resident line passing ``evictable``, or
        ``None`` if nothing qualifies.  Used by the chaos engine
        (``repro.chaos``) to pick forced-eviction victims; candidates are
        sorted so the draw depends only on ``rng``'s seed, never on dict
        iteration order."""
        candidates = sorted(line for lines in self._sets.values()
                            for line in lines
                            if evictable is None or evictable(line))
        return rng.choice(candidates) if candidates else None

    def occupancy(self) -> int:
        return sum(map(len, self._sets.values()))

    # -- checkpoint shape ----------------------------------------------
    #
    # Only the non-empty sets are serialized, as ``(set_index, [(line,
    # state), ...])`` rows in set-index order.  The item order of each
    # row is the set's LRU->MRU order, so a restored array replays
    # identical victim choices.

    def __getstate__(self):
        return {"params": self.params,
                "occupied": [(index, list(lines.items()))
                             for index, lines in sorted(self._sets.items())
                             if lines]}

    def __setstate__(self, state) -> None:
        params = state["params"]
        self.params = params
        self.num_sets = params.sets
        self.ways = params.ways
        self._mask = self.num_sets - 1
        self._sets = {index: dict(items)
                      for index, items in state["occupied"]}


class MSHR:
    """A miss-status holding register: one outstanding line fill.

    Secondary misses to the same line merge their completion callbacks; the
    Early Pinning design also parks a Pinned bit here (paper §6.1.2), which
    we model by letting the pinning controller observe outstanding lines.
    """

    __slots__ = ("line", "callbacks", "issued_cycle")

    def __init__(self, line: int, issued_cycle: int) -> None:
        self.line = line
        self.issued_cycle = issued_cycle
        self.callbacks: List[Callable[[int], None]] = []


class MSHRFile:
    """The set of outstanding fills for one L1 cache."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, MSHR] = {}

    def outstanding(self, line: int) -> Optional[MSHR]:
        return self._entries.get(line)

    def allocate(self, line: int, cycle: int) -> MSHR:
        if line in self._entries:
            raise ValueError(f"MSHR for line {line:#x} already allocated")
        entry = MSHR(line, cycle)
        self._entries[line] = entry
        return entry

    def retire(self, line: int) -> MSHR:
        return self._entries.pop(line)

    def __len__(self) -> int:
        return len(self._entries)

    def lines(self):
        return self._entries.keys()
