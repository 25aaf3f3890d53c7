"""Statistics containers and aggregate math used by the evaluation."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Mapping


class StatSet:
    """A named bag of integer counters with dict-like access.

    Counters spring into existence at zero, so simulator code can write
    ``stats.bump("mcv_squashes")`` without registration boilerplate.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    def bump(self, name: str, amount: float = 1) -> None:
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        self._counters[name] = value

    def get(self, name: str) -> float:
        return self._counters.get(name, 0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def merge(self, other: "StatSet") -> None:
        for name, value in other._counters.items():
            self._counters[name] += value

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counters)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}"
                          for k, v in sorted(self._counters.items()))
        return f"StatSet({inner})"


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports all suite aggregates this way."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def overhead_pct(normalized_cpi: float) -> float:
    """Execution overhead (%) implied by a CPI normalized to Unsafe."""
    return (normalized_cpi - 1.0) * 100.0


def normalized(cycles: Mapping[str, float],
               baseline_key: str) -> Dict[str, float]:
    """Normalize a dict of cycle counts to one baseline entry."""
    base = cycles[baseline_key]
    if base <= 0:
        raise ValueError("baseline cycle count must be positive")
    return {key: value / base for key, value in cycles.items()}
