"""Trace-generator edge cases and boundary behaviour."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.uops import OpClass
from repro.workloads import WorkloadProfile, build_trace, build_workload


class TestTinyTraces:
    def test_single_instruction(self):
        trace = build_trace(WorkloadProfile(name="t"), instructions=1)
        assert len(trace) >= 1

    def test_zero_memory_fraction_profile(self):
        profile = WorkloadProfile(name="alu", load_frac=0.01,
                                  store_frac=0.01, branch_frac=0.01)
        trace = build_trace(profile, instructions=500)
        assert trace.count(OpClass.INT_ALU) + trace.count(OpClass.FP_ALU) \
            > 400

    def test_all_hot_accesses_have_small_footprint(self):
        profile = WorkloadProfile(name="hot", warm_frac=0.0,
                                  stream_frac=0.0, hot_lines=32)
        trace = build_trace(profile, instructions=2000)
        assert trace.footprint_lines() <= 32

    def test_pure_streaming_never_repeats(self):
        profile = WorkloadProfile(name="stream", warm_frac=0.0,
                                  stream_frac=1.0, load_frac=0.5,
                                  store_frac=0.0, branch_frac=0.01,
                                  dependent_load_frac=0.0)
        trace = build_trace(profile, instructions=500)
        loads = [u.addr for u in trace if u.is_load]
        assert len(loads) == len(set(loads))


class TestBarrierEdgeCases:
    def test_zero_barriers(self):
        profile = WorkloadProfile(name="nb", barriers=0)
        workload = build_workload(profile, num_threads=2,
                                  instructions_per_thread=200)
        for trace in workload.traces:
            assert trace.count(OpClass.BARRIER) == 0

    def test_many_barriers_still_consistent(self):
        profile = WorkloadProfile(name="mb", barriers=10)
        workload = build_workload(profile, num_threads=3,
                                  instructions_per_thread=100)
        counts = {trace.count(OpClass.BARRIER)
                  for trace in workload.traces}
        assert len(counts) == 1

    def test_barrier_ids_ascend(self):
        profile = WorkloadProfile(name="ids", barriers=4)
        trace = build_workload(profile, num_threads=2,
                               instructions_per_thread=400).traces[0]
        ids = [u.barrier_id for u in trace
               if u.opclass is OpClass.BARRIER]
        assert ids == sorted(ids) == list(range(len(ids)))


class TestCriticalSections:
    def test_lock_sections_balance(self):
        profile = WorkloadProfile(name="locks", lock_frac=0.05,
                                  cs_length=4)
        trace = build_workload(profile, num_threads=2,
                               instructions_per_thread=1000).traces[0]
        atomics = trace.count(OpClass.ATOMIC)
        lock_stores = sum(1 for u in trace
                          if u.is_store and u.addr is not None
                          and u.addr >= 0x5000_0000)
        # releases may be one short if the trace ends inside a section
        assert atomics - 1 <= lock_stores <= atomics

    def test_locks_only_in_multithreaded_builds(self):
        profile = WorkloadProfile(name="locks", lock_frac=0.5)
        trace = build_trace(profile, num_threads=1, instructions=500)
        assert trace.count(OpClass.ATOMIC) == 0


class TestDependenceStructure:
    def test_deps_always_older(self):
        profile = WorkloadProfile(name="deps", dependent_load_frac=0.5)
        trace = build_trace(profile, instructions=2000)
        for uop in trace:
            for dep in uop.deps + uop.data_deps:
                assert dep < uop.index

    def test_store_data_deps_present(self):
        profile = WorkloadProfile(name="st")
        trace = build_trace(profile, instructions=2000)
        stores = [u for u in trace if u.is_store and u.addr < 0x5000_0000]
        assert any(s.data_deps for s in stores)

    @settings(max_examples=20, deadline=None)
    @given(instructions=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=1000))
    def test_arbitrary_sizes_build_valid_traces(self, instructions, seed):
        profile = WorkloadProfile(name="any", barriers=2, lock_frac=0.01)
        workload = build_workload(profile, num_threads=2, seed=seed,
                                  instructions_per_thread=instructions)
        for trace in workload.traces:
            assert len(trace) >= instructions
