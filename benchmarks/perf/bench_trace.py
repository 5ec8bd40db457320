"""``trace`` scenario: trace acquisition and I/O.

On a ~1M-sample STREAM run, the acquisition and storage fast path
against the seed implementation, which is kept verbatim below and
installed by monkeypatching, so both paths run the same machine and
RNG stream:

* **end to end** — ``run_workload`` with columnar recording, in-place
  consolidation and a v2 ``ZIP_STORED`` save, vs the scalar
  PEBS loop, per-counter interpolation, per-block Python buffering with
  a global concatenate + argsort, and the v1 deflated-npz save; gated
  at ``MIN_E2E_SPEEDUP``.  The two traces' content digests must be
  equal (always checked): the speedup only counts if the bits match;
* **save** — v1 npz vs v2 ``none`` saves of one trace (recorded);
* **load + query** — ``Trace.load`` + one column read + one time-window
  count, the eager v1 loader vs lazy v2; gated at ``MIN_LOAD_SPEEDUP``,
  results checked equal, tracemalloc peaks recorded;
* **indexed queries** — per-label rows, time windows and region
  intervals through :class:`TraceIndex` vs the boolean-mask and
  linear-scan equivalents (recorded; results checked equal).
"""

from __future__ import annotations

import json
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.extrae.index import TraceIndex
from repro.extrae.storage import SIDECAR_MEMBER
from repro.extrae.trace import _SAMPLE_COLUMNS, SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.extrae.events import EventKind
from repro.memsim.hierarchy import PatternResult
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS, BatchExecution, SampleBlock
from repro.simproc.machine import Machine
from repro.simproc.pebs import PebsSampler
from repro.workloads.stream import StreamConfig, StreamWorkload

STREAM_N = 1_500_000
ITERATIONS = 12
PERIOD = 25  # dense sampling to reach ~1M memory samples
#: pairs of the seconds-long end-to-end and save ratios
SLOW_PAIRS = 3
PAIRS = 8
MIN_E2E_SPEEDUP = 4
MIN_LOAD_SPEEDUP = 3


def make_trace():
    return run_workload(
        StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
        SessionConfig(
            seed=7,
            tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD),
        ),
    )


# --- the seed implementation, verbatim ---------------------------------------
# (except that the machine's sampler is read as ``Machine.sampler``, the
# name its seed ``pebs`` alias stood for)


def legacy_take(self, op, n_ops):
    cfg = self.configs.get(op)
    if cfg is None or n_ops <= 0:
        return np.empty(0, dtype=np.int64)
    offsets = []
    pos = self._countdown[op]
    while pos < n_ops:
        offsets.append(int(pos))
        pos += self._gap(cfg)
    self._countdown[op] = pos - n_ops
    self.samples_taken[op] += len(offsets)
    return np.asarray(offsets, dtype=np.int64)


def legacy_attach_samples(self, execution, pattern_runs, t0, t1, before, delta):
    """Seed sample-block construction: per-pattern per-counter loops,
    full blocks built then mask-selected."""
    for pattern, offsets, result in pattern_runs:
        if offsets.size == 0:
            continue
        frac = (offsets.astype(np.float64) + 0.5) / max(pattern.count, 1)
        times = t0 + frac * (t1 - t0)
        counters = {
            name: getattr(before, name) + getattr(delta, name) * frac
            for name in SAMPLE_COUNTERS
        }
        block = SampleBlock(
            op=pattern.op,
            label=execution.batch.label,
            offsets=offsets,
            addresses=pattern.addresses_at(offsets),
            sources=result.sample_sources,
            latencies=result.sample_latencies,
            times_ns=times,
            counters=counters,
        )
        keep = np.ones(block.n, dtype=bool)
        if self.multiplex is not None:
            active = self.multiplex.active_mask(pattern.op, times)
            self.samples_dropped_mpx += int((~active).sum())
            keep &= active
        if self.sampler is not None:
            passed = self.sampler.latency_filter(pattern.op, block.latencies)
            self.samples_dropped_latency += int((keep & ~passed).sum())
            keep &= passed
        block = block.select(keep)
        if block.n:
            execution.samples.append(block)
            self.samples_emitted += block.n


def make_legacy_execute(fast_execute):
    """The seed ``Machine.execute``: identical control flow, with the
    sample-block section replaced by :func:`legacy_attach_samples`."""
    from repro.memsim.datasource import DataSource

    def execute(self, batch):
        before = self.counters.copy()
        latency = self.engine.config.latency
        pattern_runs = []
        totals = {"L1D": 0, "L2": 0, "L3": 0}
        dram_lines = writebacks = tlb_misses = 0
        for pattern in batch.patterns:
            offsets = (
                self.sampler.take(pattern.op, pattern.count)
                if self.sampler is not None
                else np.empty(0, dtype=np.int64)
            )
            result: PatternResult = self.engine.run_pattern(pattern, offsets)
            pattern_runs.append((pattern, offsets, result))
            for name in totals:
                totals[name] += result.level_misses.get(name, 0)
            dram_lines += result.dram_lines
            writebacks += result.writeback_lines
            tlb_misses += result.tlb_misses

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
        delta = after.delta(before)

        execution = BatchExecution(
            batch=batch, t0_ns=t0, t1_ns=t1, cycles=batch_cycles,
            core_cycles=core_cycles, mem_cycles=mem_cycles,
            before=before, after=after,
        )
        legacy_attach_samples(
            self, execution, pattern_runs, t0, t1, before, delta
        )
        if self.noise is not None:
            stall = self.noise.stall_after(execution.duration_ns, self._noise_rng)
            if stall > 0:
                self.idle(stall)
                self.noise_ns_injected += stall
        self.batches_executed += 1
        return execution

    return execute


def legacy_save_v1(trace, path):
    """The seed ``Trace.save``: the v1 npz-in-deflated-zip container,
    which this build only reads."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        with zf.open("samples.npz", "w") as f:
            np.savez(f, **trace.sample_table().columns())
        zf.writestr(SIDECAR_MEMBER, json.dumps(trace._sidecar(schema=1)))
    return path


def legacy_add_samples(self, block, callstack):
    self.__dict__.setdefault("_legacy_blocks", []).append(
        (block, self.callstack_id(callstack))
    )
    self._table = None
    self._digest = None
    self._index = None


def legacy_sample_table(self):
    if self._table is not None:
        return self._table
    blocks = self.__dict__.get("_legacy_blocks", [])
    if not blocks:
        self._table = SampleTable.empty()
        return self._table
    cols = {k: [] for k in _SAMPLE_COLUMNS}
    for block, cs_id in blocks:
        n = block.n
        cols["time_ns"].append(block.times_ns)
        cols["address"].append(block.addresses)
        cols["op"].append(np.full(n, int(block.op), dtype=np.int8))
        cols["source"].append(block.sources.astype(np.int8))
        cols["latency"].append(block.latencies.astype(np.float32))
        cols["callstack_id"].append(np.full(n, cs_id, dtype=np.int32))
        cols["label_id"].append(np.full(n, self.label_id(block.label), dtype=np.int32))
        for name in SAMPLE_COUNTERS:
            cols[name].append(block.counters[name])
    merged = {k: np.concatenate(v).astype(_SAMPLE_COLUMNS[k]) for k, v in cols.items()}
    order = np.argsort(merged["time_ns"], kind="stable")
    self._table = SampleTable({k: v[order] for k, v in merged.items()})
    return self._table


@contextmanager
def seed_implementation():
    """Swap in the seed acquisition path (machine, PEBS and trace)."""
    saved = (
        Machine.execute,
        PebsSampler.take,
        Trace.add_samples,
        Trace.sample_table,
    )
    Machine.execute = make_legacy_execute(saved[0])
    PebsSampler.take = legacy_take
    Trace.add_samples = legacy_add_samples
    Trace.sample_table = legacy_sample_table
    try:
        yield
    finally:
        (Machine.execute, PebsSampler.take,
         Trace.add_samples, Trace.sample_table) = saved


# --- the scenario -------------------------------------------------------------


def load_query(path, t_mid):
    """Load + one column read + one half-trace window count."""
    loaded = Trace.load(path)
    col = loaded.sample_table().time_ns
    sl = loaded.index().samples.time_slice(0.0, t_mid)
    return col.size, sl.stop - sl.start


def indexed_queries(trace, edges):
    index = TraceIndex(trace)
    n_labels = len(trace.labels)
    rows = [index.samples.rows_for_label(i).size for i in range(n_labels)]
    windows = [
        index.samples.time_slice(a, b) for a, b in zip(edges, edges[1:])
    ]
    intervals = {
        name: index.events.region_intervals(name)
        for name in index.events.region_names
    }
    return rows, [sl.stop - sl.start for sl in windows], intervals


def scanned_queries(trace, edges):
    table = trace.sample_table()
    t, labels = table.time_ns, table.label_id
    rows = [np.nonzero(labels == i)[0].size for i in range(len(trace.labels))]
    windows = [
        int(np.count_nonzero((t >= a) & (t < b)))
        for a, b in zip(edges, edges[1:])
    ]
    names = sorted(
        {
            ev.name
            for ev in trace.events
            if ev.kind in (EventKind.REGION_ENTER, EventKind.REGION_EXIT)
        }
    )
    intervals = {}
    for name in names:
        stack, matched = [], []
        for ev in trace.events:
            if ev.name != name:
                continue
            if ev.kind == EventKind.REGION_ENTER:
                stack.append(ev.time_ns)
            elif ev.kind == EventKind.REGION_EXIT:
                matched.append((stack.pop(), ev.time_ns))
        intervals[name] = sorted(matched)
    return rows, windows, intervals


def measure(bench) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def legacy_run():
            with seed_implementation():
                trace = make_trace()
                legacy_save_v1(trace, tmp / "legacy.bsctrace")
            return trace

        def fast_run():
            trace = make_trace()
            trace.save(tmp / "fast.bsctrace", version=2, compression="none")
            return trace

        legacy, trace = bench.time_ratio(
            "end_to_end", legacy_run, fast_run, pairs=SLOW_PAIRS,
            floor=MIN_E2E_SPEEDUP,
        )
        bench.check("digests_equal", legacy.digest() == trace.digest())
        del legacy

        v1, v2 = bench.time_ratio(
            "save", lambda: legacy_save_v1(trace, tmp / "v1.bsctrace"),
            lambda: trace.save(tmp / "v2.bsctrace", version=2,
                               compression="none"),
            pairs=SLOW_PAIRS,
        )
        t_mid = trace.duration_ns() / 2
        v1_result, v2_result = bench.time_ratio(
            "load_query", lambda: load_query(v1, t_mid),
            lambda: load_query(v2, t_mid), pairs=PAIRS,
            floor=MIN_LOAD_SPEEDUP,
        )
        bench.check("load_query_results_equal", v1_result == v2_result)
        # The eager v1 loader inflates and materializes the whole table;
        # the lazy v2 path memory-maps columns, which tracemalloc does
        # not see (pages are the OS's, not the allocator's).
        _, v1_peak = bench.probe(lambda: load_query(v1, t_mid))
        _, v2_peak = bench.probe(lambda: load_query(v2, t_mid))
        bench.memory_ratio("load_query_peak", v1_peak, v2_peak)
        file_bytes = {"v1": v1.stat().st_size, "v2": v2.stat().st_size}

    edges = np.linspace(0.0, float(trace.sample_table().time_ns[-1]), 101)
    scanned, indexed = bench.time_ratio(
        "indexed_queries", lambda: scanned_queries(trace, edges),
        lambda: indexed_queries(trace, edges), pairs=PAIRS,
    )
    bench.check("indexed_results_equal", scanned == indexed)
    return {
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {PERIOD} -> "
                    f"{trace.n_samples} memory samples",
        "n_samples": trace.n_samples,
        "file_bytes": file_bytes,
        "labels": len(trace.labels),
        "windows": len(edges) - 1,
        "regions": len(indexed[2]),
    }
