"""Parallel executor, persistent result store, and hot-loop parity.

The contracts under test:

* results are bit-identical at any ``--jobs`` level and across disk
  round-trips (cold vs warm);
* the cache key is experiment *content* — config + trace fingerprint —
  so same-named workloads with different traces can never alias, and
  any config or trace change invalidates;
* a raising or deadlocked worker is isolated to a ``TaskFailure``;
* ``System.run`` (with fast-forward) matches the never-skip run of the
  same config (``sanitize=True``), deadlocks included.
"""

import json
import os

import pytest

from repro.common.params import (COMPREHENSIVE, ChaosConfig, DefenseKind,
                                 PinningMode, SystemConfig)
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim.executor import (CACHE_FORMAT_VERSION, Executor,
                                ResultStore, Task, cache_key)
from repro.sim.results import SimResult
from repro.sim.runner import ExperimentCache, run_simulation
from repro.sim.sweep import Sweep
from repro.sim.system import BarrierManager, System
from repro.workloads import spec17_workload
from tests.parity import SCHEMES, assert_matches_never_skip, never_skip

BASE = SystemConfig()
FENCE_EP = BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                             PinningMode.EARLY)


def small_workload(name="mcf_r", instructions=300, seed=1):
    return spec17_workload(name, instructions=instructions, seed=seed)


def alu_workload(name, addr):
    """A tiny hand-built workload: one load at ``addr`` plus ALU ops."""
    uops = [MicroOp(0, OpClass.LOAD, addr=addr),
            MicroOp(1, OpClass.INT_ALU, deps=(0,)),
            MicroOp(2, OpClass.INT_ALU, deps=(1,))]
    return Workload([Trace(uops, name=f"{name}-t0")], name=name)


class TestFingerprint:
    def test_same_name_different_content_differ(self):
        a = alu_workload("app", addr=0x1000)
        b = alu_workload("app", addr=0x2000)
        assert a.name == b.name
        assert a.fingerprint != b.fingerprint

    def test_identical_content_matches(self):
        # names differ but content is equal -> fingerprints equal
        assert alu_workload("x", 0x40).fingerprint \
            == alu_workload("y", 0x40).fingerprint

    def test_generated_workloads_reproducible(self):
        assert small_workload(seed=1).fingerprint \
            == small_workload(seed=1).fingerprint
        assert small_workload(seed=1).fingerprint \
            != small_workload(seed=2).fingerprint


class TestCacheKey:
    def test_config_change_invalidates(self):
        wl = small_workload()
        assert cache_key(BASE, wl) != cache_key(FENCE_EP, wl)

    def test_trace_change_invalidates(self):
        assert cache_key(BASE, small_workload(seed=1)) \
            != cache_key(BASE, small_workload(seed=2))

    def test_name_does_not_participate(self):
        assert cache_key(BASE, alu_workload("a", 0x40)) \
            == cache_key(BASE, alu_workload("b", 0x40))


class TestRoundTrips:
    def test_system_config_round_trip(self):
        for config in (BASE, FENCE_EP,
                       BASE.with_defense(DefenseKind.STT, COMPREHENSIVE,
                                         PinningMode.LATE)):
            rebuilt = SystemConfig.from_dict(
                json.loads(json.dumps(config.to_dict())))
            assert rebuilt == config

    def test_sim_result_round_trip(self):
        result = run_simulation(BASE, small_workload())
        rebuilt = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt.cycles == result.cycles
        assert rebuilt.config == result.config
        assert rebuilt.core_stats == result.core_stats
        assert rebuilt.pinning_stats == result.pinning_stats

    def test_result_store_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        wl = small_workload()
        result = run_simulation(BASE, wl)
        key = cache_key(BASE, wl)
        assert store.get(key) is None
        store.put(key, result)
        assert key in store
        loaded = store.get(key)
        assert loaded.cycles == result.cycles
        assert loaded.core_stats == result.core_stats

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        wl = small_workload()
        key = cache_key(BASE, wl)
        store.put(key, run_simulation(BASE, wl))
        path = os.path.join(str(tmp_path), f"v{CACHE_FORMAT_VERSION}",
                            key[:2], f"{key}.json")
        with open(path, "w") as fh:
            fh.write("{ truncated")
        assert store.get(key) is None


class TestExperimentCacheContent:
    def test_same_name_different_content_not_aliased(self):
        """The regression this PR fixes: the memo used to key on the
        workload *name*, conflating same-named workloads."""
        cache = ExperimentCache()
        a = cache.run(BASE, alu_workload("app", addr=0x1000))
        b = cache.run(BASE, alu_workload("app", addr=0x40_0000))
        assert a is not b

    def test_store_backed_cache_survives_memo_clear(self, tmp_path):
        cache = ExperimentCache(cache_dir=str(tmp_path))
        wl = small_workload()
        a = cache.run(BASE, wl)
        cache.clear()
        b = cache.run(BASE, wl)
        assert cache.simulations == 1   # second run came from disk
        assert b.cycles == a.cycles


def _batch_tasks():
    workloads = [small_workload("mcf_r"), small_workload("leela_r")]
    configs = [BASE, FENCE_EP]
    return [Task(f"{w.name}:{i}", c, w)
            for w in workloads for i, c in enumerate(configs)]


def _assert_same_results(a, b):
    assert sorted(a) == sorted(b)
    for label in a:
        assert a[label].cycles == b[label].cycles, label
        assert a[label].core_stats == b[label].core_stats, label
        assert a[label].mem_stats == b[label].mem_stats, label
        assert a[label].pinning_stats == b[label].pinning_stats, label


class TestExecutorDeterminism:
    def test_serial_vs_parallel_bit_identical(self):
        tasks = _batch_tasks()
        serial = Executor(jobs=1).run_tasks(tasks)
        parallel = Executor(jobs=4).run_tasks(tasks)
        assert not serial.failures and not parallel.failures
        _assert_same_results(serial.results, parallel.results)

    def test_duplicate_tasks_deduplicated(self):
        wl = small_workload()
        tasks = [Task("a", BASE, wl), Task("b", BASE, wl)]
        outcome = Executor(jobs=1).run_tasks(tasks, cache=ExperimentCache())
        assert outcome.stats["simulated"] == 1
        assert outcome.stats["deduplicated"] == 1
        assert outcome.results["a"].cycles == outcome.results["b"].cycles


class TestPersistentReuse:
    def test_cold_then_warm_zero_resimulations(self, tmp_path):
        tasks = _batch_tasks()
        store = ResultStore(str(tmp_path))
        cold = Executor(jobs=2).run_tasks(
            tasks, cache=ExperimentCache(store=store))
        assert not cold.failures
        assert cold.stats["simulated"] == len(tasks)
        warm_cache = ExperimentCache(store=store)   # fresh process memo
        warm = Executor(jobs=2).run_tasks(tasks, cache=warm_cache)
        assert not warm.failures
        assert warm.stats["simulated"] == 0
        assert warm_cache.store_hits == len(tasks)
        _assert_same_results(cold.results, warm.results)

    def test_config_change_misses_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        wl = small_workload()
        Executor(jobs=1).run_tasks([Task("a", BASE, wl)],
                                   cache=ExperimentCache(store=store))
        changed = Executor(jobs=1).run_tasks(
            [Task("a", FENCE_EP, wl)], cache=ExperimentCache(store=store))
        assert changed.stats["simulated"] == 1

    def test_trace_change_misses_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        Executor(jobs=1).run_tasks(
            [Task("a", BASE, small_workload(seed=1))],
            cache=ExperimentCache(store=store))
        changed = Executor(jobs=1).run_tasks(
            [Task("a", BASE, small_workload(seed=2))],
            cache=ExperimentCache(store=store))
        assert changed.stats["simulated"] == 1


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_task_isolated(self, jobs):
        bad = Task("bad", SystemConfig(num_cores=2), small_workload())
        good = Task("good", BASE, small_workload())
        outcome = Executor(jobs=jobs).run_tasks([bad, good])
        assert [f.label for f in outcome.failures] == ["bad"]
        assert outcome.failures[0].kind == "error"
        assert "ConfigError" in outcome.failures[0].message
        assert "good" in outcome.results
        with pytest.raises(RuntimeError):
            outcome.result("bad")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadlocked_task_times_out(self, jobs):
        # thread 0 waits on a barrier thread 1 never reaches; with the
        # deadlock detector effectively disabled the simulation spins
        # ~forever, so only the per-task timeout can reclaim it.  Run
        # sanitized: sanitized runs never fast-forward (every invariant
        # check sees every cycle), so the spin is real and cannot be
        # short-circuited into a max_cycles DeadlockError.
        t0 = Trace([MicroOp(0, OpClass.BARRIER, barrier_id=0)], "t0")
        t1 = Trace([MicroOp(0, OpClass.INT_ALU)], "t1")
        hung = Workload([t0, t1], name="hung")
        import dataclasses
        config = dataclasses.replace(
            SystemConfig(num_cores=2).with_defense(
                DefenseKind.FENCE, COMPREHENSIVE, PinningMode.EARLY),
            deadlock_cycles=10**9, sanitize=True)
        tasks = [Task("hung", config, hung, timeout_s=1),
                 Task("good", BASE, small_workload())]
        outcome = Executor(jobs=jobs).run_tasks(tasks)
        assert [f.label for f in outcome.failures] == ["hung"]
        assert outcome.failures[0].kind == "timeout"
        assert "good" in outcome.results


class TestSweepWithExecutor:
    def test_grid_matches_serial_sweep(self):
        from repro.sim.runner import scheme_grid
        cells = {k: v for k, v in scheme_grid().items()
                 if k in ("fence-comp", "fence-ep")}
        workloads = {"mcf": small_workload("mcf_r")}
        serial = Sweep(BASE, workloads).grid(cells)
        parallel = Sweep(BASE, workloads,
                         executor=Executor(jobs=2)).grid(cells)
        assert serial == parallel


class TestOptimizedRunLoop:
    @pytest.mark.parametrize("label", sorted(SCHEMES))
    def test_run_matches_reference(self, label):
        """Every scheme's fast-forwarded run has the counters of its
        never-skip run."""
        assert_matches_never_skip(SCHEMES[label],
                                  small_workload(instructions=400), label)


class TestFastForwardDeadlock:
    def test_deadlock_cycle_matches_reference(self):
        """A quiet deadlock (all cores frozen, no events) fast-forwards
        straight to the detector — at the exact cycle the never-skip
        run, which ticks every cycle, raises."""
        import dataclasses
        from repro.common.errors import DeadlockError
        config = dataclasses.replace(SystemConfig(num_cores=2),
                                     deadlock_cycles=3000)
        with pytest.raises(DeadlockError) as opt:
            System(config, _hung_workload()).run()
        with pytest.raises(DeadlockError) as ref:
            System(never_skip(config), _hung_workload()).run()
        assert opt.value.cycle == ref.value.cycle == 3004


class TestBarrierMemoryBound:
    def test_released_barrier_drops_arrival_set(self):
        barriers = BarrierManager(num_cores=2)
        for barrier_id in range(100):
            barriers.arrive(barrier_id, 0)
            barriers.arrive(barrier_id, 1)
            assert barriers.released(barrier_id)
        # arrival sets are dropped at release: memory is bounded by the
        # number of distinct barriers, not total arrivals
        assert barriers._arrived == {}

    def test_late_arrival_after_release_is_noop(self):
        barriers = BarrierManager(num_cores=1)
        barriers.arrive(7, 0)
        assert barriers.released(7)
        barriers.arrive(7, 0)   # replayed arrival must not resurrect it
        assert barriers._arrived == {}


def _hung_workload():
    # thread 0 parks at a barrier thread 1 never reaches
    t0 = Trace([MicroOp(0, OpClass.BARRIER, barrier_id=0)], "t0")
    t1 = Trace([MicroOp(0, OpClass.INT_ALU)], "t1")
    return Workload([t0, t1], name="hung")


def _quiet_chaos(**fields):
    """A ChaosConfig that injects no timing faults — only the executor
    process faults (crash/stall) named in ``fields``.  Serial runs of
    the same config are therefore the bit-exact ground truth: process
    faults only fire inside pool worker processes."""
    return ChaosConfig(msg_jitter=0, msg_jitter_prob=0.0, nack_prob=0.0,
                       evict_interval=0, **fields)


class TestAlarmLifecycle:
    def test_timeout_then_success_back_to_back(self):
        """Regression for the SIGALRM lifecycle: after a task times out,
        the next task in the same process must run cleanly — no pending
        alarm may survive a task, and the previous handler must be back
        in place."""
        import dataclasses
        import signal
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        before = signal.getsignal(signal.SIGALRM)
        config = dataclasses.replace(
            SystemConfig(num_cores=2).with_defense(
                DefenseKind.FENCE, COMPREHENSIVE, PinningMode.EARLY),
            # sanitized runs never fast-forward, so the spin is real
            deadlock_cycles=10**9, sanitize=True)
        tasks = [Task("hung", config, _hung_workload(), timeout_s=1),
                 Task("good", BASE, small_workload(), timeout_s=30)]
        outcome = Executor(jobs=1).run_tasks(tasks)
        assert [f.label for f in outcome.failures] == ["hung"]
        assert outcome.failures[0].kind == "timeout"
        # the second task ran with its own alarm and finished correctly
        assert outcome.results["good"].to_dict() \
            == run_simulation(BASE, small_workload()).to_dict()
        assert signal.alarm(0) == 0   # nothing pending leaked out
        assert signal.getsignal(signal.SIGALRM) == before


class TestWorkerCrashIsolation:
    def test_sigkilled_worker_retried_and_sibling_survives(self):
        """SIGKILL one pool worker mid-batch: the batch still returns
        every result — the killed task is retried from cycle zero on a
        rebuilt pool, its result equals the serial one, and nothing
        raises."""
        import dataclasses
        crash = dataclasses.replace(
            BASE, chaos=_quiet_chaos(crash_at_cycle=400, crash_attempts=1))
        tasks = [Task("crashy", crash, small_workload()),
                 Task("solid", BASE, small_workload("leela_r"))]
        executor = Executor(jobs=2, retries=1)
        outcome = executor.run_tasks(tasks)
        assert not outcome.failures
        assert set(outcome.results) == {"crashy", "solid"}
        assert outcome.stats["pool_rebuilds"] >= 1
        assert outcome.stats["retries"] >= 1
        serial = run_simulation(crash, small_workload())
        assert outcome.results["crashy"].to_dict() == serial.to_dict()
        assert outcome.results["solid"].to_dict() \
            == run_simulation(BASE, small_workload("leela_r")).to_dict()

    def test_exhausted_crash_budget_is_a_task_failure(self):
        """A worker that dies on every attempt ends as a TaskFailure of
        kind 'interrupted' — run_tasks never raises."""
        import dataclasses
        crash = dataclasses.replace(
            BASE, chaos=_quiet_chaos(crash_at_cycle=400, crash_attempts=99))
        outcome = Executor(jobs=2, retries=1,
                           pool_failure_limit=99).run_tasks(
            [Task("doomed", crash, small_workload())])
        assert outcome.results == {}
        assert [f.label for f in outcome.failures] == ["doomed"]
        assert outcome.failures[0].kind == "interrupted"
        assert outcome.failures[0].attempts >= 2

    def test_unhealthy_pool_degrades_to_serial(self):
        """When the pool keeps dying, the executor falls back to serial
        in-process execution and the whole batch still completes.
        (Process-fault injection is gated to pool workers, so the
        repeat-crasher runs clean serially — exactly the 'poisoned
        environment' the fallback exists for.)"""
        import dataclasses
        crash = dataclasses.replace(
            BASE, chaos=_quiet_chaos(crash_at_cycle=400, crash_attempts=99))
        tasks = [Task("doomed", crash, small_workload()),
                 Task("solid", BASE, small_workload("leela_r"))]
        outcome = Executor(jobs=2, retries=2,
                           pool_failure_limit=1).run_tasks(tasks)
        assert not outcome.failures
        assert set(outcome.results) == {"doomed", "solid"}
        assert outcome.stats["degraded_serial"] == 1
        assert outcome.results["doomed"].to_dict() \
            == run_simulation(crash, small_workload()).to_dict()


class TestTimeoutRetry:
    def test_timed_out_task_retries_and_matches_serial(self):
        """Acceptance: a task that times out (injected wall-clock stall)
        is retried from cycle zero and produces a result bit-identical
        to an unfaulted serial run."""
        import dataclasses
        stall = dataclasses.replace(
            BASE, chaos=_quiet_chaos(stall_at_cycle=400, stall_seconds=30.0,
                                     stall_attempts=1))
        task = Task("stall", stall, small_workload(), timeout_s=2)
        outcome = Executor(jobs=2, retries=1).run_tasks([task])
        assert not outcome.failures
        assert outcome.stats["retries"] == 1
        serial = run_simulation(stall, small_workload())
        assert outcome.results["stall"].to_dict() == serial.to_dict()


class TestResultStoreQuarantine:
    def _populated_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        workload = small_workload()
        key = cache_key(BASE, workload)
        result = run_simulation(BASE, workload)
        store.put(key, result)
        return store, key, result

    def test_unparseable_entry_quarantined_once(self, tmp_path, caplog):
        import logging
        store, key, _ = self._populated_store(tmp_path)
        path = store._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ truncated")
        with caplog.at_level(logging.WARNING, logger="repro.sim.executor"):
            assert store.get(key) is None
        assert any("quarantin" in record.message.lower()
                   for record in caplog.records)
        quarantine = os.path.join(str(tmp_path), "quarantine")
        assert len(os.listdir(quarantine)) == 1
        assert not os.path.exists(path)
        # second read: plain miss, nothing new quarantined
        assert store.get(key) is None
        assert len(os.listdir(quarantine)) == 1

    def test_checksum_mismatch_quarantined(self, tmp_path):
        """Valid JSON with a silently flipped stat must not be served:
        the checksum catches it and the file is quarantined."""
        store, key, result = self._populated_store(tmp_path)
        path = store._path(key)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["result"]["cycles"] += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert store.get(key) is None
        quarantine = os.path.join(str(tmp_path), "quarantine")
        assert len(os.listdir(quarantine)) == 1
        # the slot is reusable after quarantine
        store.put(key, result)
        assert store.get(key).to_dict() == result.to_dict()


class TestWorkerMemoryCeiling:
    """``Executor(worker_memory_mb=...)``: RLIMIT_AS in pool workers
    turns a runaway allocation into a retryable 'oom' failure instead of
    inviting the kernel OOM killer to shoot the host."""

    def _needs_rlimit(self):
        import resource
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("platform has no RLIMIT_AS")

    def test_oom_is_retried_and_recovers(self):
        """The chaos alloc fault (16 GiB ballast) trips the 2 GiB worker
        ceiling on attempt 1; attempt 2 runs clean from cycle zero (the
        fault is attempt-gated) and its result equals the serial one."""
        import dataclasses
        self._needs_rlimit()
        hog = dataclasses.replace(
            BASE, chaos=_quiet_chaos(alloc_at_cycle=400, alloc_mb=16384,
                                     alloc_attempts=1))
        outcome = Executor(jobs=2, retries=1,
                           worker_memory_mb=2048).run_tasks(
            [Task("hog", hog, small_workload())])
        assert not outcome.failures
        assert outcome.stats["retries"] == 1
        # process faults never fire serially, so this is ground truth
        serial = run_simulation(hog, small_workload())
        assert outcome.results["hog"].to_dict() == serial.to_dict()

    def test_persistent_hog_fails_as_oom(self):
        self._needs_rlimit()
        import dataclasses
        hog = dataclasses.replace(
            BASE, chaos=_quiet_chaos(alloc_at_cycle=400, alloc_mb=16384,
                                     alloc_attempts=99))
        outcome = Executor(jobs=2, retries=1,
                           worker_memory_mb=2048).run_tasks(
            [Task("hog", hog, small_workload())])
        assert outcome.results == {}
        assert [f.label for f in outcome.failures] == ["hog"]
        assert outcome.failures[0].kind == "oom"
        assert outcome.failures[0].attempts == 2
        assert "RLIMIT_AS" in outcome.failures[0].message

    def test_ceiling_off_by_default(self):
        """Without a ceiling a modest allocation sails through — the
        limit is strictly opt-in."""
        import dataclasses
        modest = dataclasses.replace(
            BASE, chaos=_quiet_chaos(alloc_at_cycle=400, alloc_mb=64,
                                     alloc_attempts=1))
        outcome = Executor(jobs=2).run_tasks(
            [Task("modest", modest, small_workload())])
        assert not outcome.failures
        assert outcome.stats["retries"] == 0

    def test_rejects_nonsense_ceiling(self):
        with pytest.raises(ValueError):
            Executor(jobs=2, worker_memory_mb=0)
