"""Bounded admission queue: priorities, backpressure, graceful refusal.

The queue is the service's only growth point, so it is the one place
where load sheds: past ``capacity`` pending jobs, ``push`` raises
``QueueFullError`` with a ``retry_after_s`` hint instead of queueing —
an explicit, structured rejection the client can honor, rather than an
unbounded backlog that turns into an OOM three hours later.

Ordering is ``(priority, seq)``: lower priority values run first
(interactive ``repro submit`` requests use ``PRIORITY_INTERACTIVE=0``
and overtake bulk campaign cells at ``PRIORITY_BULK=10``), and FIFO
within a priority class, so equal-priority jobs can never starve each
other.  A job id can only be queued once (``push`` of a queued id is a
no-op returning ``False``), which keeps idempotent resubmission cheap.

The retry-after hint is backpressure-proportional: the caller supplies
an estimate of seconds-per-job drain rate (the supervisor feeds it a
decayed average of recent job durations), and the hint scales with the
backlog in front of the hypothetical next slot.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, List, Optional, Set, Tuple

from repro.common.errors import QueueFullError

#: Fallback seconds-per-job guess before any job has completed.
DEFAULT_JOB_SECONDS = 2.0


class AdmissionQueue:
    """Thread-safe bounded priority queue of job ids (see module docs)."""

    def __init__(self, capacity: int = 64,
                 job_seconds: Optional[Callable[[], float]] = None
                 ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._job_seconds = job_seconds
        self._heap: List[Tuple[int, int, str]] = []
        self._queued: Set[str] = set()
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._queued

    def retry_after_s(self, backlog: Optional[int] = None) -> float:
        """Estimated seconds until a queue slot frees up."""
        per_job = DEFAULT_JOB_SECONDS if self._job_seconds is None \
            else max(self._job_seconds(), 0.05)
        if backlog is None:
            with self._lock:
                backlog = len(self._heap)
        return round(max(1, backlog) * per_job, 3)

    def push(self, job_id: str, priority: int) -> bool:
        """Admit ``job_id`` at ``priority``; ``False`` if already queued.

        Raises ``QueueFullError`` (with the retry-after hint) when the
        queue is at capacity — the caller translates that into an HTTP
        429 plus ``Retry-After`` header.
        """
        with self._lock:
            if job_id in self._queued:
                return False
            if len(self._heap) >= self.capacity:
                raise QueueFullError(
                    f"admission queue at capacity "
                    f"({len(self._heap)}/{self.capacity})",
                    retry_after_s=self.retry_after_s(len(self._heap)))
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, job_id))
            self._queued.add(job_id)
            self._not_empty.notify()
            return True

    def _pop_locked(self) -> str:
        _priority, _seq, job_id = heapq.heappop(self._heap)
        self._queued.discard(job_id)
        return job_id

    def pop(self, timeout_s: Optional[float] = None) -> Optional[str]:
        """Highest-priority job id, blocking up to ``timeout_s``;
        ``None`` on timeout (or immediately when ``timeout_s=0``)."""
        with self._not_empty:
            if not self._heap and timeout_s != 0:
                self._not_empty.wait(timeout_s)
            return self._pop_locked() if self._heap else None

    def pop_batch(self, limit: int) -> List[str]:
        """Up to ``limit`` job ids, non-blocking, priority order."""
        batch: List[str] = []
        with self._lock:
            while self._heap and len(batch) < limit:
                batch.append(self._pop_locked())
        return batch

    def wake_all(self) -> None:
        """Release every blocked ``pop`` (service shutdown/drain)."""
        with self._not_empty:
            self._not_empty.notify_all()

    def snapshot(self) -> List[Tuple[int, str]]:
        """(priority, job_id) pairs in drain order, for ``/stats``."""
        with self._lock:
            return [(priority, job_id) for priority, _seq, job_id
                    in sorted(self._heap)]
