"""System-level property-based tests.

Hypothesis drives randomized batch sequences, patterns and trace
round-trips through the full stack, checking the invariants every
component promised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extrae.trace import Trace
from repro.memsim.analytic import AnalyticEngine
from repro.memsim.cache import CacheConfig
from repro.memsim.datasource import LatencyModel
from repro.memsim.hierarchy import HierarchyConfig, PreciseEngine
from repro.memsim.patterns import (
    MemOp,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
)
from repro.simproc.calibration import MachineCalibration
from repro.simproc.isa import KernelBatch
from repro.simproc.machine import Machine
from repro.simproc.pebs import PebsConfig, PebsSampler


def small_hierarchy():
    return HierarchyConfig(
        levels=(
            CacheConfig("L1D", 1024, 64, 2),
            CacheConfig("L2", 4096, 64, 4),
            CacheConfig("L3", 16 * 1024, 64, 4),
        ),
        latency=LatencyModel(jitter=0.0),
        enable_prefetch=False,
        tlb=None,
    )


@st.composite
def random_pattern(draw):
    kind = draw(st.sampled_from(["seq", "strided", "random"]))
    start = draw(st.integers(0, 1 << 20)) * 8
    count = draw(st.integers(1, 2000))
    op = draw(st.sampled_from([MemOp.LOAD, MemOp.STORE]))
    if kind == "seq":
        direction = draw(st.sampled_from([1, -1]))
        return SequentialPattern(start, count, 8, direction, op)
    if kind == "strided":
        stride = draw(st.sampled_from([8, 64, 256]))
        return StridedPattern(start, count, stride, 8, op)
    nbytes = draw(st.sampled_from([1 << 12, 1 << 16, 1 << 20]))
    return RandomPattern(start, nbytes, count, 8, op, seed=draw(st.integers(0, 99)))


@st.composite
def random_batch(draw):
    patterns = tuple(
        draw(random_pattern()) for _ in range(draw(st.integers(1, 3)))
    )
    accesses = sum(p.count for p in patterns)
    instructions = accesses + draw(st.integers(0, 10_000))
    return KernelBatch(
        label=draw(st.sampled_from(["a", "b", "c"])),
        patterns=patterns,
        instructions=instructions,
        branches=draw(st.integers(0, accesses)),
        mlp=draw(st.floats(0.5, 16.0)),
    )


class TestMachineInvariants:
    @given(st.lists(random_batch(), min_size=1, max_size=6),
           st.sampled_from(["precise", "analytic"]))
    @settings(max_examples=30, deadline=None)
    def test_counters_monotone_and_consistent(self, batches, engine_kind):
        engine = (
            PreciseEngine(small_hierarchy())
            if engine_kind == "precise"
            else AnalyticEngine(small_hierarchy(), rng=np.random.default_rng(0))
        )
        machine = Machine(engine=engine, calibration=MachineCalibration(1e9))
        prev = machine.counters.copy()
        t_prev = machine.time_ns
        for batch in batches:
            ex = machine.execute(batch)
            machine.counters.validate_monotone_since(prev)
            assert machine.time_ns >= t_prev
            # Miss hierarchy: L1 >= L2 >= L3 cumulative.
            c = machine.counters
            assert c.l1d_misses >= c.l2_misses >= c.l3_misses >= 0
            # Load/store accounting exact.
            d = c.delta(prev)
            assert d.loads == batch.loads
            assert d.stores == batch.stores
            assert d.instructions == batch.instructions
            # The batch can never run faster than the pipeline allows.
            assert ex.cycles >= batch.instructions / 4.0 - 1e-6
            prev = c.copy()
            t_prev = machine.time_ns

    @given(st.lists(random_batch(), min_size=1, max_size=4),
           st.integers(10, 5000))
    @settings(max_examples=20, deadline=None)
    def test_sample_count_tracks_period(self, batches, period):
        pebs = PebsSampler(
            {MemOp.LOAD: PebsConfig(period, 0.0),
             MemOp.STORE: PebsConfig(period, 0.0)},
            np.random.default_rng(0),
        )
        machine = Machine(
            engine=AnalyticEngine(small_hierarchy(), rng=np.random.default_rng(1)),
            sampler=pebs,
        )
        total = 0
        for batch in batches:
            machine.execute(batch)
            total += batch.memory_accesses
        assert machine.samples_emitted == total // period \
            or abs(machine.samples_emitted - total // period) <= len(batches) * 2

    @given(st.lists(random_batch(), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_sample_addresses_belong_to_patterns(self, batches):
        pebs = PebsSampler(
            {MemOp.LOAD: PebsConfig(97, 0.0), MemOp.STORE: PebsConfig(97, 0.0)},
            np.random.default_rng(0),
        )
        machine = Machine(
            engine=AnalyticEngine(small_hierarchy(), rng=np.random.default_rng(1)),
            sampler=pebs,
        )
        for batch in batches:
            ex = machine.execute(batch)
            bounds = []
            for p in batch.patterns:
                loc = p.locality()
                bounds.append((loc.lo, loc.hi))
            for block in ex.samples:
                for addr in block.addresses:
                    assert any(lo <= int(addr) < hi for lo, hi in bounds)


class TestTraceRoundTripProperty:
    @given(st.integers(0, 2**31), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_any_seed(self, tmp_path_factory, seed, iterations):
        from repro.pipeline import Session, SessionConfig
        from repro.extrae.tracer import TracerConfig
        from repro.workloads.stream import StreamConfig, StreamWorkload

        config = SessionConfig(
            seed=seed,
            tracer=TracerConfig(load_period=777, store_period=777),
        )
        trace = Session(config).run(
            StreamWorkload(StreamConfig(n=1 << 13, iterations=iterations))
        )
        path = tmp_path_factory.mktemp("rt") / "t.bsctrace"
        loaded = Trace.load(trace.save(path))
        a, b = trace.sample_table(), loaded.sample_table()
        assert a.n == b.n
        np.testing.assert_array_equal(a.address, b.address)
        np.testing.assert_array_equal(a.source, b.source)
        assert len(loaded.events) == len(trace.events)
