"""End-to-end pipeline behaviour on small hand-built traces."""

from repro.common.params import CoreParams, SystemConfig
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.sim.runner import run_simulation

BASE = SystemConfig(core=CoreParams(), l1_prefetch=False)


def run_trace(uops, config=BASE, warm=False):
    workload = Workload([Trace(uops)], name="hand")
    return run_simulation(config, workload, warm=warm)


def alu(i, deps=()):
    return MicroOp(i, OpClass.INT_ALU, deps=deps)


def load(i, addr, deps=()):
    return MicroOp(i, OpClass.LOAD, addr=addr, deps=deps)


def store(i, addr, deps=()):
    return MicroOp(i, OpClass.STORE, addr=addr, deps=deps)


def branch(i, deps=(), mispredicted=False):
    return MicroOp(i, OpClass.BRANCH, deps=deps, mispredicted=mispredicted)


class TestBasicExecution:
    def test_all_instructions_retire(self):
        result = run_trace([alu(i) for i in range(20)])
        assert result.core_stats[0].get("retired", 0) == 20

    def test_independent_alus_retire_at_full_width(self):
        result = run_trace([alu(i) for i in range(64)])
        # 8-wide machine: 64 independent 1-cycle ALUs need only a few cycles
        assert result.cycles < 64

    def test_dependence_chain_serializes(self):
        chain = [alu(0)] + [alu(i, deps=(i - 1,)) for i in range(1, 32)]
        result = run_trace(chain)
        assert result.cycles >= 32   # one per cycle at best

    def test_fp_latency_longer_than_int(self):
        ints = run_trace([alu(0)] + [alu(i, deps=(i - 1,))
                                     for i in range(1, 16)])
        fps = run_trace([MicroOp(0, OpClass.FP_ALU)]
                        + [MicroOp(i, OpClass.FP_ALU, deps=(i - 1,))
                           for i in range(1, 16)])
        assert fps.cycles > ints.cycles

    def test_load_value_feeds_consumer(self):
        result = run_trace([load(0, 0x40), alu(1, deps=(0,))])
        assert result.core_stats[0].get("retired", 0) == 2

    def test_loads_count_in_memory_stats(self):
        result = run_trace([load(i, 0x40 * i) for i in range(4)])
        assert result.mem_stats.get("loads", 0) == 4


class TestBranches:
    def test_correct_predictions_cost_nothing_extra(self):
        no_branch = run_trace([alu(i) for i in range(32)])
        with_branch = run_trace(
            [branch(i) if i % 4 == 0 else alu(i) for i in range(32)])
        assert with_branch.core_stats[0].get("squashes_branch", 0) == 0
        assert with_branch.cycles <= no_branch.cycles + 16

    def test_mispredict_squashes_and_replays(self):
        uops = [alu(0), branch(1, deps=(0,), mispredicted=True)] \
            + [alu(i) for i in range(2, 10)]
        result = run_trace(uops)
        stats = result.core_stats[0]
        assert stats.get("squashes_branch", 0) == 1
        assert stats.get("squashed_uops", 0) >= 1
        assert stats.get("retired", 0) == 10    # everything still retires

    def test_mispredict_costs_redirect_penalty(self):
        clean = run_trace([alu(i) for i in range(10)])
        dirty = run_trace([branch(0, mispredicted=True)]
                          + [alu(i) for i in range(1, 10)])
        assert dirty.cycles >= clean.cycles + BASE.core.branch_resolve_latency

    def test_replayed_branch_predicts_correctly(self):
        # two mispredicts would double-squash if the predictor never learned
        uops = [branch(0, mispredicted=True), branch(1, mispredicted=True)] \
            + [alu(i) for i in range(2, 6)]
        result = run_trace(uops)
        assert result.core_stats[0].get("squashes_branch", 0) == 2
        assert result.core_stats[0].get("retired", 0) == 6


class TestStoresAndForwarding:
    def test_store_drains_through_write_buffer(self):
        result = run_trace([store(0, 0x40), alu(1)])
        assert result.core_stats[0].get("stores_performed", 0) == 1
        assert result.mem_stats.get("stores", 0) == 1

    def test_store_to_load_forwarding(self):
        result = run_trace([store(0, 0x40), load(1, 0x40)])
        assert result.core_stats[0].get("loads_forwarded", 0) == 1
        # never reached the cache
        assert result.mem_stats.get("loads", 0) == 0

    def test_alias_squash_when_store_address_resolves_late(self):
        # the store's address depends on a long FP chain; the younger load
        # to the same (warm, L1-resident) line performs early — reading a
        # stale value — and must be squashed when the store resolves
        fp_chain = [MicroOp(1, OpClass.FP_ALU, deps=(0,))] \
            + [MicroOp(i, OpClass.FP_ALU, deps=(i - 1,))
               for i in range(2, 9)]
        uops = [load(0, 0x40)] + fp_chain \
            + [store(9, 0x40, deps=(8,)), load(10, 0x40)]
        result = run_trace(uops, warm=True)
        assert result.core_stats[0].get("squashes_alias", 0) == 1
        assert result.core_stats[0].get("retired", 0) == 11

    def test_fence_orders_write_buffer(self):
        uops = [store(0, 0x40), MicroOp(1, OpClass.FENCE), alu(2)]
        result = run_trace(uops)
        assert result.core_stats[0].get("retired", 0) == 3
        assert result.core_stats[0].get("stores_performed", 0) == 1


class TestMCVSquash:
    def _two_core_config(self):
        return SystemConfig(num_cores=2, l1_prefetch=False)

    def test_remote_store_squashes_performed_speculative_load(self):
        """Core 1 performs a young load early (Unsafe), core 0 then writes
        the line: TSO demands the load be squashed and replayed."""
        shared = 0x1000
        slow = [MicroOp(0, OpClass.FP_ALU)] \
            + [MicroOp(i, OpClass.FP_ALU, deps=(i - 1,))
               for i in range(1, 12)]
        reader = Trace(
            [load(0, 0x40)]                    # older load, will be slow...
            + slow_shift(slow, 1)
            + [load(13, shared, deps=(12,)), load(14, shared)])
        # simpler: build reader below instead
        writer = Trace([alu(0), store(1, shared)])
        workload = Workload([writer, reader], name="mcv")
        result = run_simulation(self._two_core_config(), workload,
                                warm=True)
        stats = result.core_stats[1]
        assert stats.get("retired", 0) == len(reader)

    def test_mcv_squash_counted_under_unsafe(self):
        """Statistical check: the unsafe multicore machine does squash on
        invalidations (write-heavy shared traffic forces some)."""
        shared = 0x2000
        reader_uops = []
        index = 0
        for _ in range(40):
            reader_uops.append(MicroOp(index, OpClass.FP_ALU,
                                       deps=(index - 1,) if index else ()))
            index += 1
            reader_uops.append(load(index, shared + 0x40, deps=(index - 1,)))
            index += 1
            reader_uops.append(load(index, shared))
            index += 1
        writer_uops = []
        for i in range(40):
            writer_uops.append(store(i, shared))
        workload = Workload([Trace(writer_uops), Trace(reader_uops)],
                            name="mcv2")
        result = run_simulation(self._two_core_config(), workload, warm=True)
        squashes = result.squash_summary()
        assert squashes["mcv_inval"] >= 1
        assert result.core_stats[1].get("retired", 0) == len(reader_uops)


def slow_shift(uops, offset):
    """Re-index a uop list to start at ``offset`` (deps shifted too)."""
    shifted = []
    for uop in uops:
        shifted.append(MicroOp(uop.index + offset, uop.opclass,
                               deps=tuple(d + offset for d in uop.deps),
                               addr=uop.addr,
                               mispredicted=uop.mispredicted,
                               barrier_id=uop.barrier_id))
    return shifted


class TestBarriersAndAtomics:
    def test_barrier_synchronizes_cores(self):
        fast = Trace([alu(0), MicroOp(1, OpClass.BARRIER, barrier_id=0),
                      alu(2)])
        slow_chain = [MicroOp(0, OpClass.FP_ALU)] \
            + [MicroOp(i, OpClass.FP_ALU, deps=(i - 1,))
               for i in range(1, 30)]
        slow = Trace(slow_chain
                     + [MicroOp(30, OpClass.BARRIER, barrier_id=0), alu(31)])
        workload = Workload([fast, slow], name="barrier")
        config = SystemConfig(num_cores=2, l1_prefetch=False)
        result = run_simulation(config, workload, warm=False)
        # the fast core must have waited for the slow one
        assert result.cycles >= 30

    def test_atomics_serialize_and_complete(self):
        lock = 0x3000
        t0 = Trace([MicroOp(0, OpClass.ATOMIC, addr=lock), alu(1)])
        t1 = Trace([MicroOp(0, OpClass.ATOMIC, addr=lock), alu(1)])
        workload = Workload([t0, t1], name="locks")
        config = SystemConfig(num_cores=2, l1_prefetch=False)
        result = run_simulation(config, workload, warm=True)
        assert result.core_stats[0].get("atomics_issued", 0) == 1
        assert result.core_stats[1].get("atomics_issued", 0) == 1
        assert result.instructions == 4


class TestStructuralLimits:
    def test_rob_capacity_limits_window(self):
        tiny = SystemConfig(core=CoreParams(rob_entries=16),
                            l1_prefetch=False)
        big = SystemConfig(core=CoreParams(rob_entries=192),
                           l1_prefetch=False)
        # many independent misses: a bigger window overlaps more of them
        uops = [load(i, 0x40 * 64 * i) for i in range(24)]
        slow = run_simulation(tiny, Workload([Trace(uops)], name="w"),
                              warm=False)
        fast = run_simulation(big, Workload([Trace(uops)], name="w"),
                              warm=False)
        assert fast.cycles < slow.cycles

    def test_deterministic_cycles(self):
        uops = [load(i, 0x40 * i) if i % 3 == 0 else alu(i)
                for i in range(50)]
        first = run_trace(uops)
        second = run_trace(uops)
        assert first.cycles == second.cycles
