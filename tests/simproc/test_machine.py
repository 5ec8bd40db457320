"""Tests for the simulated machine and its cost model."""

import numpy as np
import pytest

from repro.memsim.cache import CacheConfig
from repro.memsim.datasource import DataSource, LatencyModel
from repro.memsim.hierarchy import HierarchyConfig, PreciseEngine
from repro.memsim.analytic import AnalyticEngine
from repro.memsim.patterns import MemOp, SequentialPattern
from repro.simproc.calibration import MachineCalibration
from repro.simproc.isa import KernelBatch
from repro.simproc.machine import Machine
from repro.simproc.multiplex import MultiplexSchedule
from repro.simproc.pebs import PebsConfig, PebsSampler


def flat_config():
    """No prefetch/TLB/jitter: the cost model becomes hand-checkable."""
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


def make_machine(pebs=None, mpx=None, engine=None):
    return Machine(
        engine=engine or PreciseEngine(flat_config()),
        calibration=MachineCalibration(frequency_hz=1e9, issue_width=4.0),
        sampler=pebs,
        multiplex=mpx,
    )


def batch(n_loads=1000, instructions=None, mlp=1.0, label="k"):
    return KernelBatch(
        label,
        (SequentialPattern(0, n_loads, 8),),
        instructions=instructions if instructions is not None else 4 * n_loads,
        branches=n_loads // 10,
        mlp=mlp,
    )


class TestCostModel:
    def test_memory_bound_cycles(self):
        m = make_machine()
        # 1000 loads over 125 lines, all cold -> 125 DRAM fetches.
        ex = m.execute(batch(mlp=1.0))
        lat = LatencyModel(jitter=0.0)
        expect_mem = 125 * lat.latency(DataSource.DRAM)
        assert ex.mem_cycles == pytest.approx(expect_mem)
        assert ex.cycles == pytest.approx(max(1000.0, expect_mem))

    def test_mlp_divides_memory_cycles(self):
        m1 = make_machine()
        m8 = make_machine()
        e1 = m1.execute(batch(mlp=1.0))
        e8 = m8.execute(batch(mlp=8.0))
        assert e8.mem_cycles == pytest.approx(e1.mem_cycles / 8.0)

    def test_core_bound_when_memory_cheap(self):
        m = make_machine()
        m.execute(batch(n_loads=64))  # warm 512 B into L1
        ex = m.execute(batch(n_loads=64, instructions=10_000))
        assert ex.cycles == pytest.approx(10_000 / 4.0)
        assert ex.core_cycles > ex.mem_cycles

    def test_counters_accumulate(self):
        m = make_machine()
        m.execute(batch())
        m.execute(batch())
        c = m.counters
        assert c.instructions == 8000
        assert c.loads == 2000
        assert c.stores == 0
        assert c.branches == 200
        assert c.l1d_misses == 125 + 125

    def test_l1_miss_counter_matches_engine(self):
        m = make_machine()
        ex = m.execute(batch())
        assert ex.after.l1d_misses - ex.before.l1d_misses == 125
        assert ex.after.l3_misses - ex.before.l3_misses == 125

    def test_time_advances_monotonically(self):
        m = make_machine()
        t0 = m.time_ns
        ex1 = m.execute(batch())
        t1 = m.time_ns
        assert t1 > t0
        assert ex1.t0_ns == pytest.approx(t0)
        assert ex1.t1_ns == pytest.approx(t1)

    def test_mips_property(self):
        m = make_machine()
        ex = m.execute(batch(n_loads=64, instructions=10_000))
        # 2500 cycles at 1 GHz = 2.5 us -> 4000 MIPS.
        assert ex.mips == pytest.approx(4000.0, rel=0.05)

    def test_idle_advances_clock_only(self):
        m = make_machine()
        m.idle(1000.0)
        assert m.time_ns == pytest.approx(1000.0)
        assert m.counters.instructions == 0
        with pytest.raises(ValueError):
            m.idle(-1.0)

    def test_run_sequence(self):
        m = make_machine()
        exs = m.run([batch(label="a"), batch(label="b")])
        assert [e.batch.label for e in exs] == ["a", "b"]
        assert m.batches_executed == 2


class TestSampling:
    def test_samples_emitted_with_expected_rate(self):
        pebs = PebsSampler({MemOp.LOAD: PebsConfig(period=100, randomization=0.0)})
        m = make_machine(pebs=pebs)
        ex = m.execute(batch(n_loads=1000))
        assert len(ex.samples) == 1
        assert ex.samples[0].n == 9
        assert m.samples_emitted == 9

    def test_sample_addresses_match_pattern(self):
        pebs = PebsSampler({MemOp.LOAD: PebsConfig(period=100, randomization=0.0)})
        m = make_machine(pebs=pebs)
        ex = m.execute(batch(n_loads=1000))
        block = ex.samples[0]
        np.testing.assert_array_equal(block.addresses, block.offsets * 8)

    def test_sample_times_within_batch(self):
        pebs = PebsSampler({MemOp.LOAD: PebsConfig(period=50, randomization=0.0)})
        m = make_machine(pebs=pebs)
        ex = m.execute(batch(n_loads=1000))
        t = ex.samples[0].times_ns
        assert (t >= ex.t0_ns).all() and (t <= ex.t1_ns).all()
        assert (np.diff(t) > 0).all()

    def test_sample_counters_interpolate(self):
        pebs = PebsSampler({MemOp.LOAD: PebsConfig(period=100, randomization=0.0)})
        m = make_machine(pebs=pebs)
        ex = m.execute(batch(n_loads=1000))
        instr = ex.samples[0].counters["instructions"]
        assert (instr >= ex.before.instructions).all()
        assert (instr <= ex.after.instructions).all()
        assert (np.diff(instr) > 0).all()

    def test_no_pebs_no_samples(self):
        m = make_machine()
        ex = m.execute(batch())
        assert ex.samples == []

    def test_latency_threshold_drops_cheap_loads(self):
        pebs = PebsSampler(
            {MemOp.LOAD: PebsConfig(period=10, randomization=0.0,
                                    latency_threshold_cycles=100.0)}
        )
        m = make_machine(pebs=pebs)
        ex = m.execute(batch(n_loads=1000))
        kept = ex.samples[0] if ex.samples else None
        # Only DRAM-sourced samples (210 cycles) survive the threshold.
        if kept is not None:
            assert (kept.sources == int(DataSource.DRAM)).all()
        assert m.samples_dropped_latency > 0

    def test_multiplexing_drops_inactive_windows(self):
        pebs = PebsSampler(
            {
                MemOp.LOAD: PebsConfig(period=20, randomization=0.0),
                MemOp.STORE: PebsConfig(period=20, randomization=0.0),
            }
        )
        mpx = MultiplexSchedule.loads_and_stores(quantum_ns=50.0)
        m = make_machine(pebs=pebs, mpx=mpx)
        big = KernelBatch(
            "k",
            (
                SequentialPattern(0, 20_000, 8, op=MemOp.LOAD),
                SequentialPattern(1 << 22, 20_000, 8, op=MemOp.STORE),
            ),
            instructions=200_000,
            mlp=1.0,
        )
        ex = m.execute(big)
        assert m.samples_dropped_mpx > 0
        # Surviving samples sit in their group's active windows.
        for block in ex.samples:
            mask = mpx.active_mask(block.op, block.times_ns)
            assert mask.all()
        # Both ops still produce samples within the single run.
        ops = {block.op for block in ex.samples}
        assert ops == {MemOp.LOAD, MemOp.STORE}

    def test_analytic_engine_integration(self):
        pebs = PebsSampler({MemOp.LOAD: PebsConfig(period=100, randomization=0.0)})
        eng = AnalyticEngine(flat_config(), rng=np.random.default_rng(0))
        m = make_machine(pebs=pebs, engine=eng)
        ex = m.execute(batch(n_loads=10_000))
        assert ex.samples[0].n == 99
        assert m.counters.l1d_misses == 1250
