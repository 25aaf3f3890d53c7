"""Parallel experiment execution and the persistent result store.

Sweeps are embarrassingly parallel: every (config, workload) cell is an
independent, deterministic simulation.  This module provides

* ``cache_key`` — a content-addressed identity for one experiment:
  sha256 over the canonical config dict, the workload *content*
  fingerprint (not its name), and the cache format version;
* ``ResultStore`` — an on-disk, content-addressed store of ``SimResult``
  JSON documents, shared between processes and across runs, with a
  per-entry integrity checksum (corrupt entries are quarantined, not
  silently re-simulated forever);
* ``Executor`` — fans a batch of cells over a process pool and runs
  each cell once: a cell that raises, deadlocks, or loses its pool
  worker becomes a ``TaskFailure`` and the rest of the batch completes.

Determinism: simulations are pure functions of (config, workload), so
results are bit-identical whatever ``jobs`` is — the executor only
changes *when* each cell is computed, never *what* it computes.  The
test suite asserts this (``tests/test_executor.py``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.common.errors import DeadlockError
from repro.common.params import SystemConfig
from repro.isa.trace import Workload
from repro.sim.results import SimResult

_log = logging.getLogger(__name__)

#: Bump when the on-disk payload or the simulator's observable behaviour
#: changes; old entries become unreachable (different keys) not corrupt.
#: v2: entries carry an integrity ``checksum`` over the result document.
CACHE_FORMAT_VERSION = 2

# canonical config JSON is memoized per config object: sweeps reuse a
# handful of configs across hundreds of workload cells
_config_json_memo: Dict[int, Tuple[SystemConfig, str]] = {}


def _config_json(config: SystemConfig) -> str:
    # pure identity memo: the id() key is validated with an `is` check
    # and never ordered, persisted, or exposed, so address reuse across
    # runs cannot change any result
    memo = _config_json_memo.get(id(config))  # repro: allow-id-ordering
    if memo is not None and memo[0] is config:
        return memo[1]
    text = json.dumps(config.to_dict(), sort_keys=True)
    _config_json_memo[id(config)] = (config, text)  # repro: allow-id-ordering
    return text


def cache_key(config: SystemConfig, workload: Workload) -> str:
    """Content-addressed identity of one experiment.

    Keyed on what the simulation *consumes* — the full config and the
    actual trace content — never on the workload's display name, so two
    same-named workloads with different traces can never alias (and two
    identically-generated workloads always share a cache entry).
    """
    h = hashlib.sha256()
    h.update(f"repro-cache-v{CACHE_FORMAT_VERSION}\n".encode())
    h.update(_config_json(config).encode())
    h.update(b"\n")
    h.update(workload.fingerprint.encode())
    return h.hexdigest()


def _result_checksum(result_doc: Dict) -> str:
    """Integrity checksum over the canonical result document."""
    text = json.dumps(result_doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class ResultStore:
    """Persistent content-addressed store of simulation results.

    Layout: ``<root>/v<FORMAT>/<key[:2]>/<key>.json`` — two-level fanout
    keeps directories small on big sweeps.  Writes go through a temp
    file + ``os.replace`` so concurrent writers (pool workers, parallel
    CI jobs) can only ever produce complete entries.

    Every entry carries a sha256 checksum of its result document.  A
    corrupt entry (unparseable, wrong format marker, checksum mismatch,
    undecodable result) behaves like a miss, and the damaged file is
    moved — once — to ``<root>/quarantine/`` for postmortems instead of
    being re-read and re-rejected on every future lookup.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self._dir = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, key[:2], f"{key}.json")

    @contextmanager
    def _write_lock(self):
        """Advisory ``flock`` serializing mutations to this store.

        Readers never lock (atomic renames guarantee they only ever see
        complete entries), but two *processes* sharing one
        ``REPRO_CACHE_DIR`` can otherwise interleave a ``put`` with a
        concurrent ``_quarantine`` of the same key: writer A replaces a
        fresh entry at the exact moment writer B, holding a stale
        corrupt read, renames that fresh file into ``quarantine/``.
        Holding the store lock across the read-verdict-to-rename window
        closes that race.  Falls back to lock-free (pure atomic-rename
        discipline, still crash-safe) where ``fcntl`` is unavailable.
        """
        if fcntl is None:
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, ".lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _read_entry(self, key: str
                    ) -> Tuple[Optional[SimResult], Optional[str]]:
        """Read + validate ``key``'s entry: ``(result, corrupt_reason)``.
        ``(None, None)`` is a plain miss (no file)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            return None, None
        except ValueError:
            return None, "unparseable JSON"
        if not isinstance(payload, dict) \
                or payload.get("format") != CACHE_FORMAT_VERSION:
            return None, "format marker mismatch"
        if payload.get("checksum") != _result_checksum(
                payload.get("result", {})):
            return None, "checksum mismatch"
        try:
            return SimResult.from_dict(payload["result"]), None
        except Exception as err:  # noqa: BLE001 - corrupt data boundary
            return None, f"undecodable result ({type(err).__name__})"

    def _quarantine(self, key: str, reason: str) -> None:
        """Move ``key``'s damaged file into ``<root>/quarantine/``.

        Runs under the store write lock and *re-validates* first: with
        two processes sharing a store, the corrupt bytes this process
        read may have been atomically replaced by a concurrent writer's
        good entry between read and rename — quarantining that would
        evict a valid result.  Re-checking under the lock (which every
        ``put`` also holds across its rename) makes the rename hit only
        entries that are still corrupt.
        """
        with self._write_lock():
            _result, still_corrupt = self._read_entry(key)
            if still_corrupt is None:
                return  # replaced by a good entry (or already gone)
            src = self._path(key)
            quarantine_dir = os.path.join(self.root, "quarantine")
            dst = os.path.join(quarantine_dir, os.path.basename(src))
            try:
                os.makedirs(quarantine_dir, exist_ok=True)
                os.replace(src, dst)
            except OSError:
                return
        _log.warning("result store: quarantined corrupt entry %s -> %s "
                     "(%s)", src, dst, reason)

    def get(self, key: str) -> Optional[SimResult]:
        """Load the stored result for ``key``; ``None`` when absent or
        corrupt.  Corrupt entries are quarantined (see class docs)."""
        result, corrupt_reason = self._read_entry(key)
        if corrupt_reason is not None:
            self._quarantine(key, corrupt_reason)
        return result

    def put(self, key: str, result: SimResult) -> None:
        directory = os.path.dirname(self._path(key))
        os.makedirs(directory, exist_ok=True)
        doc = result.to_dict()
        payload = {"format": CACHE_FORMAT_VERSION, "key": key,
                   "result": doc, "checksum": _result_checksum(doc)}
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            with self._write_lock():
                os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class Task:
    """One sweep cell: run ``workload`` under ``config``."""

    __slots__ = ("label", "config", "workload")

    def __init__(self, label: str, config: SystemConfig,
                 workload: Workload) -> None:
        self.label = label
        self.config = config
        self.workload = workload


class TaskFailure:
    """An isolated task failure: the batch continues without it.

    ``kind`` is ``"error"`` (the simulation raised) or ``"interrupted"``
    (its pool worker died first); ``dump`` carries the structured
    deadlock diagnostic (``System.diagnostic_dump``) when the failure
    was a ``DeadlockError``.
    """

    __slots__ = ("label", "kind", "message", "dump")

    def __init__(self, label: str, kind: str, message: str,
                 dump: Optional[Dict] = None) -> None:
        self.label = label
        self.kind = kind          # "error" | "interrupted"
        self.message = message
        self.dump = dump

    def __repr__(self) -> str:
        return f"TaskFailure({self.label!r}, {self.kind}: {self.message})"


class ExecutorOutcome:
    """Results and failures of one ``Executor.run_tasks`` batch."""

    __slots__ = ("results", "failures", "stats")

    def __init__(self, results: Dict[str, SimResult],
                 failures: List[TaskFailure],
                 stats: Dict[str, int]) -> None:
        self.results = results
        self.failures = failures
        self.stats = stats

    def result(self, label: str) -> SimResult:
        for failure in self.failures:
            if failure.label == label:
                raise RuntimeError(
                    f"task {label!r} failed ({failure.kind}): "
                    f"{failure.message}")
        return self.results[label]


def _run_task(label: str, config: SystemConfig, workload: Workload,
              ) -> Tuple[str, str, object, Optional[Dict]]:
    """Worker entry point (also the serial path, for identical
    semantics at ``jobs=1``).  Never raises: any exception is reported
    as ``(label, "error", message, dump)`` so one bad cell cannot take
    down the batch or the pool; ``dump`` is the deadlock diagnostic
    when the cell deadlocked, else ``None``."""
    # deferred import: repro.sim.runner imports this module
    from repro.sim.runner import run_simulation
    try:
        return (label, "ok", run_simulation(config, workload), None)
    except DeadlockError as err:
        return (label, "error", f"DeadlockError: {err}", err.dump)
    except Exception as err:  # noqa: BLE001 - isolation boundary
        return (label, "error", f"{type(err).__name__}: {err}", None)


class Executor:
    """Fans batches of sweep tasks over a process pool, one attempt per
    cell.

    * deduplicates by ``cache_key`` — a batch naming the same
      experiment twice simulates it once;
    * consults/feeds an ``ExperimentCache`` (in-process memo + optional
      persistent ``ResultStore``) before and after simulating;
    * isolates failures: a cell that raises, deadlocks, or loses its
      pool worker yields a ``TaskFailure``, never an exception out of
      ``run_tasks``;
    * is deterministic: the returned mapping depends only on the tasks,
      never on ``jobs`` or completion order.

    Nothing is retried and nothing is timed out.  A stuck simulation
    ends in simulated time, at the deadlock detector
    (``SystemConfig.deadlock_cycles``); a cell the batch left cold is
    simulated again by the figure callers' serial pass (``Sweep``).
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run_tasks(self, tasks: Iterable[Task],
                  cache: Optional["ExperimentCache"] = None,
                  ) -> ExecutorOutcome:
        """Run every task once; each label ends as a result or a
        ``TaskFailure``."""
        tasks = list(tasks)
        stats = {"tasks": len(tasks), "cache_hits": 0, "simulated": 0,
                 "deduplicated": 0, "failed": 0}
        results: Dict[str, SimResult] = {}
        failures: List[TaskFailure] = []
        # resolve cache hits and deduplicate identical experiments
        pending: Dict[str, Task] = {}       # key -> representative task
        by_key: Dict[str, List[Task]] = {}  # key -> every task wanting it
        for task in tasks:
            key = cache_key(task.config, task.workload)
            by_key.setdefault(key, []).append(task)
            if key in pending:
                stats["deduplicated"] += 1
                continue
            hit = cache.peek(task.config, task.workload) \
                if cache is not None else None
            if hit is not None:
                stats["cache_hits"] += 1
                for waiting in by_key[key]:
                    results[waiting.label] = hit
                continue
            pending[key] = task
        for key, (_label, status, payload, dump) in self._execute(pending):
            if status == "ok":
                stats["simulated"] += 1
                if cache is not None:
                    task = pending[key]
                    cache.insert(task.config, task.workload, payload)
                for waiting in by_key[key]:
                    results[waiting.label] = payload
            else:
                stats["failed"] += 1
                for waiting in by_key[key]:
                    failures.append(TaskFailure(
                        waiting.label, status, payload, dump))
        return ExecutorOutcome(results, failures, stats)

    def _execute(self, pending: Dict[str, Task]):
        """Yield (key, worker outcome) for every pending task.

        ``_run_task`` is looked up by its module-level name at call
        time, so a wrapper installed over it before the batch starts
        also runs in the (forked) pool workers.  A pool worker's death
        surfaces as an ``interrupted`` outcome: ``concurrent.futures``
        fails *every* unfinished future when a worker dies, so cells
        that shared the pool with the lost one are interrupted too.
        """
        if not pending:
            return
        if self.jobs == 1:
            for key, task in pending.items():
                yield key, _run_task(task.label, task.config,
                                     task.workload)
            return
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {key: pool.submit(_run_task, task.label,
                                        task.config, task.workload)
                       for key, task in pending.items()}
            for key, future in futures.items():
                label = pending[key].label
                try:
                    yield key, future.result()
                except BrokenExecutor:
                    yield key, (label, "interrupted",
                                "worker process died before the task "
                                "completed", None)
                except Exception as err:  # noqa: BLE001 - isolation
                    yield key, (label, "error",
                                f"{type(err).__name__}: {err}", None)
