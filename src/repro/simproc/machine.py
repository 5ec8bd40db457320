"""The simulated machine: executes kernel batches, advances the clock,
maintains counters and emits PEBS samples.

Cost model
----------
For a batch with ``I`` instructions and line-fetch counts ``f_L2``
(lines brought into L1 from L2), ``f_L3`` (from L3) and ``f_DRAM``
(from memory), the batch takes

``cycles = max(I / issue_width,
(f_L2·lat_L2 + f_L3·lat_L3 + f_DRAM·lat_DRAM + tlb·walk) / MLP)``

— an in-order bound with a memory term whose overlap is the batch's
memory-level parallelism.  For the streaming HPCG kernels the memory
term dominates, which is what pins MIPS around the paper's 1500 and
makes effective bandwidth scale with per-kernel MLP (see
:mod:`repro.simproc.calibration`).

Samples
-------
Each pattern's sampled offsets get concrete addresses from the pattern,
sources/latencies from the memory engine, timestamps by interpolation
across the batch interval, and cumulative counter readings interpolated
from the batch's deltas (workloads emit several batches per kernel call,
so interpolation spans are short).  The multiplex schedule then drops
samples whose event group was not programmed at their timestamp, and the
PEBS latency threshold filters cheap loads.  A sample record
(:class:`SampleBlock`, :data:`SAMPLE_COUNTERS`) is the sample schema of
:mod:`repro.extrae.schema`, re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS, DataSource, MemOp, SampleBlock
from repro.memsim.engines import make_engine
from repro.memsim.hierarchy import PatternResult, PreciseEngine
from repro.simproc.calibration import MachineCalibration
from repro.simproc.counters import CounterSet
from repro.simproc.isa import KernelBatch
from repro.simproc.multiplex import MultiplexSchedule
from repro.simproc.noise import NoiseModel
from repro.simproc.sampler import Sampler

__all__ = ["BatchExecution", "Machine", "SampleBlock"]


@dataclass
class BatchExecution:
    """Everything that happened while executing one batch."""

    batch: KernelBatch
    t0_ns: float
    t1_ns: float
    cycles: float
    core_cycles: float
    mem_cycles: float
    before: CounterSet
    after: CounterSet
    samples: list[SampleBlock] = field(default_factory=list)

    @property
    def duration_ns(self) -> float:
        return self.t1_ns - self.t0_ns

    @property
    def mips(self) -> float:
        """Achieved instruction rate over the batch, in MIPS."""
        dur_s = self.duration_ns * 1e-9
        return (self.batch.instructions / dur_s) / 1e6 if dur_s > 0 else 0.0


def _per_kind(kinds: list[list], mask_of, values: np.ndarray) -> np.ndarray:
    """``mask_of(op, values[first:end])`` for each kind's slice, joined."""
    if len(kinds) == 1:
        return mask_of(kinds[0][0], values)
    return np.concatenate([mask_of(op, values[a:b]) for op, a, b in kinds])


class Machine:
    """One simulated core.

    Parameters
    ----------
    engine:
        Memory engine instance, or one of the engine names
        ``"precise"`` / ``"vectorized"`` / ``"analytic"``; defaults to
        a cold Haswell-like precise hierarchy.
    calibration:
        Clock/pipeline constants.
    sampler:
        Sampling backend (any :class:`~repro.simproc.sampler.Sampler`),
        or ``None`` to run without sampling.
    multiplex:
        Event-group rotation; ``None`` keeps every sample.
    """

    def __init__(
        self,
        engine=None,
        calibration: MachineCalibration | None = None,
        sampler: Sampler | None = None,
        multiplex: MultiplexSchedule | None = None,
        noise: "NoiseModel | None" = None,
        noise_rng=None,
    ) -> None:
        if engine is None:
            engine = PreciseEngine()
        elif isinstance(engine, str):
            engine = make_engine(engine)
        self.engine = engine
        self.calibration = calibration or MachineCalibration()
        self.sampler = sampler
        self.multiplex = multiplex
        self.noise = noise
        self._noise_rng = noise_rng or np.random.default_rng(0)
        self.counters = CounterSet()
        self.batches_executed = 0
        self.samples_emitted = 0
        self.samples_dropped_mpx = 0
        self.samples_dropped_latency = 0
        self.noise_ns_injected = 0.0

    # ------------------------------------------------------------------
    @property
    def time_ns(self) -> float:
        """Wall-clock position of the machine."""
        return self.calibration.cycles_to_ns(self.counters.cycles)

    def execute(self, batch: KernelBatch) -> BatchExecution:
        """Run *batch* to completion; returns its execution record.

        Per pattern, in order: the sampler's :meth:`~Sampler.take` and
        the engine's ``run_pattern``.  Both advance state the next
        pattern reads (the countdowns, the residency model, the
        generators), so they cannot be batched without changing every
        trace.  Once per batch: the sample assembly
        (:meth:`_assemble`), which yields one :class:`SampleBlock` per
        pattern with surviving samples, in pattern order.
        """
        before = self.counters.copy()
        latency = self.engine.config.latency

        sampled: list[tuple] = []
        totals = {"L1D": 0, "L2": 0, "L3": 0}
        dram_lines = 0
        writebacks = 0
        tlb_misses = 0
        for pattern in batch.patterns:
            offsets = (
                self.sampler.take(pattern.op, pattern.count)
                if self.sampler is not None
                else np.empty(0, dtype=np.int64)
            )
            result: PatternResult = self.engine.run_pattern(pattern, offsets)
            if offsets.size:
                sampled.append((pattern, offsets, result))
            for name in totals:
                totals[name] += result.level_misses.get(name, 0)
            dram_lines += result.dram_lines
            writebacks += result.writeback_lines
            tlb_misses += result.tlb_misses

        # --- cost model -------------------------------------------------
        from_l2 = max(totals["L1D"] - totals["L2"], 0)
        from_l3 = max(totals["L2"] - totals["L3"], 0)
        from_dram = totals["L3"]
        core_cycles = batch.instructions / self.calibration.issue_width
        mem_cycles = (
            from_l2 * latency.latency(DataSource.L2)
            + from_l3 * latency.latency(DataSource.L3)
            + from_dram * latency.latency(DataSource.DRAM)
            + tlb_misses * self.calibration.tlb_walk_cycles
        ) / batch.mlp
        batch_cycles = max(core_cycles, mem_cycles)

        # --- advance architectural state ---------------------------------
        t0 = self.time_ns
        c = self.counters
        c.instructions += batch.instructions
        c.cycles += batch_cycles
        c.loads += batch.loads
        c.stores += batch.stores
        c.branches += batch.branches
        c.l1d_misses += totals["L1D"]
        c.l2_misses += totals["L2"]
        c.l3_misses += totals["L3"]
        c.dram_lines += dram_lines
        c.dram_writebacks += writebacks
        c.tlb_misses += tlb_misses
        c.flops += batch.flops
        t1 = self.time_ns
        after = c.copy()

        execution = BatchExecution(
            batch=batch,
            t0_ns=t0,
            t1_ns=t1,
            cycles=batch_cycles,
            core_cycles=core_cycles,
            mem_cycles=mem_cycles,
            before=before,
            after=after,
        )
        if sampled:
            execution.samples = self._assemble(sampled, execution)

        if self.noise is not None:
            stall = self.noise.stall_after(execution.duration_ns, self._noise_rng)
            if stall > 0:
                self.idle(stall)
                self.noise_ns_injected += stall

        self.batches_executed += 1
        return execution

    def _assemble(
        self, sampled: list[tuple], execution: BatchExecution
    ) -> list[SampleBlock]:
        """The sample blocks of one batch, assembled in one pass.

        *sampled* holds ``(pattern, offsets, result)`` for every pattern
        the sampler drew from, in execution order.  Their offsets,
        sources and latencies are concatenated, each operation kind's
        patterns adjacent so the per-kind hooks (classification,
        multiplex window, latency filter) each see one slice.  The
        fractions, timestamps, keep-masks and the nine interpolated
        counters are computed once over the concatenation, then split
        back per pattern.  Everything here is elementwise, so the blocks
        are bit-identical to assembling each pattern on its own.
        Keep-masks are fused *before* any per-sample payload is built:
        addresses and counters are only computed for samples that
        survive multiplexing and the latency threshold.
        """
        sampler = self.sampler
        order = sorted(range(len(sampled)), key=lambda k: sampled[k][0].op)
        runs = [sampled[k] for k in order]
        sizes = [offsets.size for _, offsets, _ in runs]
        # (op, first, end) of each kind's contiguous samples
        kinds: list[list] = []
        end = 0
        for (pattern, _, _), n in zip(runs, sizes):
            if kinds and kinds[-1][0] == pattern.op:
                kinds[-1][2] += n
            else:
                kinds.append([pattern.op, end, end + n])
            end += n

        offsets = np.concatenate([offsets for _, offsets, _ in runs])
        counts = np.array([max(p.count, 1) for p, _, _ in runs], dtype=np.float64)
        frac = (offsets.astype(np.float64) + 0.5) / np.repeat(counts, sizes)
        t0 = execution.t0_ns
        times = t0 + frac * (execution.t1_ns - t0)
        sources = np.concatenate([r.sample_sources for _, _, r in runs])
        latencies = np.concatenate([r.sample_latencies for _, _, r in runs])
        addresses = None
        if sampler.post_classifies:
            # Backends that rewrite samples (SPE's remote-access
            # classification) need addresses before filtering; the
            # default path computes them only for survivors.
            addresses = np.concatenate([p.addresses_at(o) for p, o, _ in runs])
            rewritten = [
                sampler.classify(op, addresses[a:b], sources[a:b], latencies[a:b])
                for op, a, b in kinds
            ]
            sources = np.concatenate([src for src, _ in rewritten])
            latencies = np.concatenate([lat for _, lat in rewritten])

        keep = _per_kind(kinds, sampler.latency_filter, latencies)
        dropped = keep.size - np.count_nonzero(keep)
        if self.multiplex is not None:
            active = _per_kind(kinds, self.multiplex.active_mask, times)
            n_active = np.count_nonzero(active)
            self.samples_dropped_mpx += int(active.size - n_active)
            keep = keep & active
            dropped = n_active - np.count_nonzero(keep)
        self.samples_dropped_latency += int(dropped)

        ends = list(accumulate(sizes))
        if not keep.all():
            ends = np.cumsum(keep)[np.array(ends) - 1].tolist()
            offsets = offsets[keep]
            frac = frac[keep]
            times = times[keep]
            sources = sources[keep]
            latencies = latencies[keep]
            if addresses is not None:
                addresses = addresses[keep]
        before, after = execution.before, execution.after
        before_vec = np.array(
            [getattr(before, name) for name in SAMPLE_COUNTERS], dtype=np.float64
        )
        delta_vec = np.array(
            [getattr(after, name) - getattr(before, name) for name in SAMPLE_COUNTERS],
            dtype=np.float64,
        )
        # All nine counters interpolate in one 2-D broadcast; each row
        # of the C-ordered result is one counter's column.
        interp = before_vec[:, None] + delta_vec[:, None] * frac[None, :]

        blocks: list[SampleBlock | None] = [None] * len(sampled)
        lo = 0
        for k, (pattern, _, _), hi in zip(order, runs, ends):
            if hi == lo:
                continue
            block_offsets = offsets[lo:hi]
            blocks[k] = SampleBlock(
                op=pattern.op,
                label=execution.batch.label,
                offsets=block_offsets,
                addresses=(
                    addresses[lo:hi]
                    if addresses is not None
                    else pattern.addresses_at(block_offsets)
                ),
                sources=sources[lo:hi],
                latencies=latencies[lo:hi],
                times_ns=times[lo:hi],
                counters={
                    name: interp[i, lo:hi] for i, name in enumerate(SAMPLE_COUNTERS)
                },
            )
            self.samples_emitted += hi - lo
            lo = hi
        return [block for block in blocks if block is not None]

    def run(self, batches) -> list[BatchExecution]:
        """Execute a sequence of batches, in order."""
        return [self.execute(b) for b in batches]

    def idle(self, duration_ns: float) -> None:
        """Advance the clock without retiring instructions (e.g. MPI wait)."""
        if duration_ns < 0:
            raise ValueError(f"cannot idle a negative duration: {duration_ns}")
        self.counters.cycles += self.calibration.ns_to_cycles(duration_ns)
