"""Admission queue: priority order, dedup, and backpressure."""

import threading

import pytest

from repro.common.errors import QueueFullError
from repro.service.queue import AdmissionQueue


def test_priority_order_with_fifo_within_class():
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk-1", 10)
    queue.push("bulk-2", 10)
    queue.push("interactive", 0)
    queue.push("default", 5)
    order = [queue.pop(timeout_s=0) for _ in range(4)]
    assert order == ["interactive", "default", "bulk-1", "bulk-2"]


def test_push_deduplicates_queued_ids():
    queue = AdmissionQueue(capacity=8)
    assert queue.push("job", 5) is True
    assert queue.push("job", 0) is False  # already queued, even if
    assert len(queue) == 1                # resubmitted more urgently
    assert "job" in queue
    assert queue.pop(timeout_s=0) == "job"
    assert "job" not in queue
    # once popped, the id is admissible again (retry after failure)
    assert queue.push("job", 5) is True


def test_capacity_rejects_with_retry_after():
    queue = AdmissionQueue(capacity=2, job_seconds=lambda: 1.5)
    queue.push("a", 5)
    queue.push("b", 5)
    with pytest.raises(QueueFullError) as excinfo:
        queue.push("c", 5)
    err = excinfo.value
    assert err.http_status == 429
    assert err.code == "queue-full"
    # the hint scales with the backlog in front of the next slot
    assert err.retry_after_s == pytest.approx(2 * 1.5)
    assert "queue-full" in str(err.to_doc())
    # a slot freeing up makes the same push admissible
    queue.pop(timeout_s=0)
    assert queue.push("c", 5) is True


def test_pop_timeout_returns_none():
    queue = AdmissionQueue(capacity=2)
    assert queue.pop(timeout_s=0) is None
    assert queue.pop(timeout_s=0.01) is None


def test_pop_batch_drains_in_priority_order():
    queue = AdmissionQueue(capacity=8)
    for job_id, priority in (("c", 10), ("a", 0), ("b", 5)):
        queue.push(job_id, priority)
    assert queue.pop_batch(2) == ["a", "b"]
    assert queue.pop_batch(2) == ["c"]
    assert queue.pop_batch(2) == []


def test_snapshot_lists_drain_order():
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk", 10)
    queue.push("urgent", 0)
    assert queue.snapshot() == [(0, "urgent"), (10, "bulk")]


def test_wake_all_releases_blocked_pop():
    queue = AdmissionQueue(capacity=2)
    results = []

    def blocked_pop():
        results.append(queue.pop(timeout_s=5.0))

    thread = threading.Thread(target=blocked_pop)
    thread.start()
    queue.wake_all()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert results == [None]
