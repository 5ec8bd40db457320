"""End-to-end folding accuracy against a known ground truth.

Constructs a synthetic workload whose per-iteration MIPS profile is
known *by construction* (alternating compute-bound and memory-bound
sections of controlled width), runs it through the full stack
(machine → PEBS → trace → folding), and checks the reconstructed
curves against the analytic expectation.  This pins down the whole
measurement chain, not just the curve fit.
"""

import numpy as np
import pytest

from repro.extrae.tracer import Tracer, TracerConfig
from repro.folding.report import fold_trace
from repro.memsim.cache import CacheConfig
from repro.memsim.datasource import DataSource, LatencyModel
from repro.memsim.hierarchy import HierarchyConfig, PreciseEngine
from repro.memsim.patterns import MemOp, SequentialPattern
from repro.simproc.calibration import MachineCalibration
from repro.simproc.isa import KernelBatch
from repro.simproc.machine import Machine
from repro.vmem.allocator import Allocator
from repro.vmem.binimage import BinaryImage
from repro.vmem.layout import AddressSpace

#: iteration layout: (label, compute_bound?, weight of instruction budget)
SECTIONS = (("fast", True, 1.0), ("slow", False, 1.0), ("fast2", True, 2.0))

FREQ = 1e9
ISSUE = 4.0
LAT = LatencyModel(jitter=0.0)


def known_profile():
    """Expected MIPS per section and expected relative durations."""
    # Compute-bound: IPC = issue width -> 4000 MIPS at 1 GHz.
    fast_mips = ISSUE * FREQ / 1e6
    # Memory-bound section: DRAM-fetch cost dominates (computed below
    # per batch in the workload; MIPS ends much lower).
    return fast_mips


@pytest.fixture(scope="module")
def folded_run():
    rng = np.random.default_rng(5)
    cfg = HierarchyConfig(
        levels=(
            CacheConfig("L1D", 1024, 64, 2),
            CacheConfig("L2", 4096, 64, 4),
            CacheConfig("L3", 16 * 1024, 64, 4),
        ),
        latency=LAT,
        enable_prefetch=False,
        tlb=None,
    )
    tracer_cfg = TracerConfig(load_period=400, store_period=400,
                              randomization=0.05, multiplex=False)
    space = AddressSpace(rng)
    machine = Machine(
        engine=PreciseEngine(cfg),
        calibration=MachineCalibration(frequency_hz=FREQ, issue_width=ISSUE),
        sampler=tracer_cfg.build_pebs(rng),
        multiplex=tracer_cfg.build_multiplex(),
    )
    tracer = Tracer(machine, Allocator(space), BinaryImage(space), tracer_cfg)

    from repro.vmem.callstack import CallStack

    big = tracer.allocator.malloc(2 << 20, CallStack.single("m", "m.c", 1))
    n_iters = 8
    for it in range(n_iters):
        tracer.iteration("loop")
        offset = 0
        for label, compute_bound, weight in SECTIONS:
            # Chunk each section into 4 batches for time resolution.
            for k in range(4):
                if compute_bound:
                    # Many loads over a tiny resident footprint (byte
                    # stride over 8 KiB): the section is compute-bound
                    # but still emits plenty of PEBS samples, and its
                    # duration is comparable to the memory section's so
                    # the kernel smoothing cannot wash it out.
                    pattern = SequentialPattern(big, 8192, 1)
                    instr = int(800_000 * weight)
                else:
                    # Stream fresh cache lines every iteration chunk.
                    base = big + (offset % (2 << 20)) // 2
                    pattern = SequentialPattern(base + (it % 2) * (1 << 20),
                                                8192, 8)
                    offset += 8192 * 8
                    instr = int(40_000 * weight)
                tracer.execute(
                    KernelBatch(label, (pattern,), instructions=instr,
                                branches=instr // 10, mlp=1.0)
                )
    tracer.marker("execution_phase_end")
    trace = tracer.finalize()
    return fold_trace(trace, bandwidth=0.01)


class TestGroundTruthReconstruction:
    def test_fast_sections_hit_pipeline_peak(self, folded_run):
        mips = folded_run.counters.mips()
        sigma = folded_run.counters.sigma
        # Identify the fast windows from the known section durations.
        # fast: 10k cycles/batch x 4; slow: dominated by DRAM fetches.
        # Locate via the folded label track instead of hand math:
        labels = folded_run.samples.table.label_id
        lbl_names = {i: folded_run.trace.label(i)
                     for i in np.unique(labels)}
        fast_ids = [i for i, n in lbl_names.items() if n.startswith("fast")]
        fast_sigma = folded_run.samples.sigma[np.isin(labels, fast_ids)]
        lo, hi = np.quantile(fast_sigma, [0.3, 0.45])
        window = (sigma >= lo) & (sigma <= hi)
        peak = ISSUE * FREQ / 1e6
        assert mips[window].max() > 0.8 * peak

    def test_slow_section_matches_cost_model(self, folded_run):
        """The memory-bound section's MIPS must equal the cost model's
        closed-form prediction."""
        labels = folded_run.samples.table.label_id
        slow_id = next(
            i for i in np.unique(labels)
            if folded_run.trace.label(int(i)) == "slow"
        )
        slow_sigma = folded_run.samples.sigma[labels == slow_id]
        lo, hi = np.quantile(slow_sigma, [0.25, 0.75])
        sigma = folded_run.counters.sigma
        window = (sigma >= lo) & (sigma <= hi)
        mips = folded_run.counters.mips()[window]
        # Per slow batch: 8192 loads = 1024 cold lines -> DRAM; cost =
        # max(instr/issue, 1024 * 210) = 215040 cycles for 40k instr.
        expect = 40_000 / (1024 * LAT.latency(DataSource.DRAM)) * (FREQ / 1e6)
        assert mips.mean() == pytest.approx(expect, rel=0.25)

    def test_durations_follow_weights(self, folded_run):
        """fast2 has twice fast's instruction budget -> twice its time
        (both compute-bound)."""
        labels = folded_run.samples.table.label_id
        spans = {}
        for i in np.unique(labels):
            name = folded_run.trace.label(int(i))
            s = folded_run.samples.sigma[labels == i]
            spans[name] = float(np.quantile(s, 0.95) - np.quantile(s, 0.05))
        assert spans["fast2"] == pytest.approx(2 * spans["fast"], rel=0.35)

    def test_cumulative_instructions_linear_in_each_section(self, folded_run):
        """Within a constant-rate section the cumulative instruction
        curve is a straight line: check the slow section's linearity."""
        c = folded_run.counters["instructions"]
        labels = folded_run.samples.table.label_id
        slow_id = next(
            i for i in np.unique(labels)
            if folded_run.trace.label(int(i)) == "slow"
        )
        slow_sigma = folded_run.samples.sigma[labels == slow_id]
        lo, hi = np.quantile(slow_sigma, [0.2, 0.8])
        window = (c.sigma >= lo) & (c.sigma <= hi)
        y = c.cumulative[window]
        x = c.sigma[window]
        slope, intercept = np.polyfit(x, y, 1)
        residual = y - (slope * x + intercept)
        assert np.abs(residual).max() < 0.01  # of the total cumulative range

    def test_counter_conservation(self, folded_run):
        """∫rate dσ x duration = per-instance total, for every counter."""
        c = folded_run.counters
        for name in ("instructions", "l1d_misses", "branches"):
            curve = c[name]
            integral = np.trapezoid(curve.rate, curve.sigma) * c.duration_ns
            # The synthetic profile has step changes; boundary smoothing
            # costs a few percent more than on smooth workloads.
            assert integral == pytest.approx(curve.total_mean, rel=0.10), name
