"""Parallel executor, persistent result store, and hot-loop parity.

The contracts under test:

* results are bit-identical at any ``--jobs`` level and across disk
  round-trips (cold vs warm);
* the cache key is experiment *content* — config + trace fingerprint —
  so same-named workloads with different traces can never alias, and
  any config or trace change invalidates;
* each cell runs once: a raising or deadlocked cell fails as an
  ``error`` (a deadlock ends in simulated time, its dump attached), a
  cell whose pool worker dies fails as ``interrupted``, and the rest of
  the batch completes;
* ``System.run`` (with fast-forward) matches the never-skip run of the
  same config (``sanitize=True``), deadlocks included.
"""

import json
import os
import signal

import pytest

from repro.common.params import (COMPREHENSIVE, DefenseKind, PinningMode,
                                 SystemConfig)
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim import executor
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
        """A cell that raises and a cell that deadlocks each fail on
        their own.  The deadlock ends in simulated time, at the default
        ``deadlock_cycles`` detector, with its diagnostic dump
        attached; no wall-clock budget is involved."""
        bad = Task("bad", SystemConfig(num_cores=2), small_workload())
        hung = Task("hung", SystemConfig(num_cores=2).with_defense(
            DefenseKind.FENCE, COMPREHENSIVE, PinningMode.EARLY),
            _hung_workload())
        good = Task("good", BASE, small_workload())
        outcome = Executor(jobs=jobs).run_tasks([bad, hung, good])
        assert [f.label for f in outcome.failures] == ["bad", "hung"]
        bad_failure, hung_failure = outcome.failures
        assert bad_failure.kind == "error"
        assert "ConfigError" in bad_failure.message
        assert hung_failure.kind == "error"
        assert hung_failure.message.startswith("DeadlockError")
        assert hung_failure.dump["cycle"] \
            > SystemConfig().deadlock_cycles
        assert "good" in outcome.results
        with pytest.raises(RuntimeError):
            outcome.result("bad")


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


_real_run_task = executor._run_task


def _dying_run_task(label, *args):
    """``_run_task``, except that a cell labelled ``doomed...`` kills
    its own pool worker, as the kernel OOM killer would."""
    if label.startswith("doomed"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_run_task(label, *args)


class TestDeadWorker:
    """A pool worker that dies under a cell: the cell fails as
    ``interrupted`` and ``run_tasks`` still returns.  Swapping
    ``executor._run_task`` reaches the forked pool workers (only
    ``jobs=2`` runs here: a serial swap would kill the test process)."""

    def test_dead_worker_is_an_interrupted_failure(self, monkeypatch):
        monkeypatch.setattr(executor, "_run_task", _dying_run_task)
        tasks = [Task("doomed", BASE, small_workload()),
                 Task("solid", BASE, small_workload("leela_r"))]
        outcome = Executor(jobs=2).run_tasks(tasks)
        failures = {f.label: f for f in outcome.failures}
        assert failures["doomed"].kind == "interrupted"
        # a sibling sharing the broken pool may be interrupted too, but
        # every label ends as exactly one of a result or a failure
        assert not set(failures) & set(outcome.results)
        assert set(failures) | set(outcome.results) == {"doomed", "solid"}

    def test_sweep_recovers_a_lost_cell(self, monkeypatch):
        """Why no retry layer is needed: ``Sweep`` simulates a cell its
        batch left cold on the serial pass, so a grid whose every
        pooled cell (``doomed:<scheme>``) died equals the serial grid."""
        from repro.sim.runner import scheme_grid
        cells = {k: v for k, v in scheme_grid().items()
                 if k in ("fence-comp", "fence-ep")}
        workloads = {"doomed": small_workload("mcf_r")}
        serial = Sweep(BASE, workloads).grid(cells)
        monkeypatch.setattr(executor, "_run_task", _dying_run_task)
        sweep = Sweep(BASE, workloads, executor=Executor(jobs=2))
        assert sweep.grid(cells) == serial
        # the pool delivered nothing: the baseline and both cells were
        # simulated on the serial pass
        assert sweep.cache.simulations == 1 + len(cells)


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
