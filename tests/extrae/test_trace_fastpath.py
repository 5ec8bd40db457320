"""Columnar recording + in-place consolidation ≡ the seed path.

The acquisition fast path must be bit-identical to what it replaced:
per-block Python buffering with a global ``concatenate`` + stable
``argsort`` on every consolidation.  The reference implementation here
*is* that seed code, installed via monkeypatching, so each digest
comparison runs the identical machine/RNG stream through both
consolidation strategies.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.extrae.trace import _SAMPLE_COLUMNS, SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.memsim.patterns import MemOp
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS, SampleBlock
from repro.vmem.callstack import CallStack, Frame
from repro.workloads import (
    HpcgConfig,
    HpcgWorkload,
    RandomAccessWorkload,
    StreamWorkload,
)
from repro.workloads.randomaccess import RandomAccessConfig
from repro.workloads.stream import StreamConfig

ENGINES = ("precise", "vectorized", "analytic")
WORKLOADS = ("stream", "gups", "hpcg")


def make_workload(name):
    if name == "stream":
        return StreamWorkload(StreamConfig(n=1 << 14, iterations=3))
    if name == "gups":
        return RandomAccessWorkload(
            RandomAccessConfig(
                table_bytes=1 << 22, updates_per_iteration=1 << 13, iterations=3
            )
        )
    return HpcgWorkload(HpcgConfig(nx=8, ny=8, nz=8, nlevels=2, n_iterations=2))


def run_trace(engine, workload, seed=3):
    config = SessionConfig(
        seed=seed,
        engine=engine,
        tracer=TracerConfig(
            load_period=200, store_period=200, randomization=0.1, multiplex=True
        ),
    )
    return run_workload(make_workload(workload), config)


# --- the seed implementation, verbatim ---------------------------------------


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
        cols["label_id"].append(
            np.full(n, self.label_id(block.label), dtype=np.int32)
        )
        for name in SAMPLE_COUNTERS:
            cols[name].append(block.counters[name])
    merged = {
        k: np.concatenate(v).astype(_SAMPLE_COLUMNS[k]) for k, v in cols.items()
    }
    order = np.argsort(merged["time_ns"], kind="stable")
    self._table = SampleTable({k: v[order] for k, v in merged.items()})
    return self._table


class TestDigestEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_digest_matches_legacy_consolidation(
        self, engine, workload, monkeypatch
    ):
        fast = run_trace(engine, workload)
        fast_digest = fast.digest()
        with monkeypatch.context() as m:
            m.setattr(Trace, "add_samples", legacy_add_samples)
            m.setattr(Trace, "sample_table", legacy_sample_table)
            legacy = run_trace(engine, workload)
            legacy_digest = legacy.digest()
            legacy_table = legacy.sample_table()
        assert fast_digest == legacy_digest
        fast_table = fast.sample_table()
        for name in _SAMPLE_COLUMNS:
            np.testing.assert_array_equal(
                fast_table.column(name), legacy_table.column(name)
            )


# --- overlapping chunks, consolidated between appends ------------------------


def make_block(times, seed=0, op=MemOp.LOAD, label="k"):
    rng = np.random.default_rng(seed)
    n = len(times)
    return SampleBlock(
        op=op,
        label=label,
        offsets=np.arange(n, dtype=np.int64),
        addresses=rng.integers(1 << 20, 1 << 30, n, dtype=np.uint64),
        sources=np.full(n, 5, dtype=np.int64),
        latencies=rng.uniform(10.0, 300.0, n),
        times_ns=np.asarray(times, dtype=np.float64),
        counters={c: rng.uniform(0.0, 1e6, n) for c in SAMPLE_COUNTERS},
    )


STACK = CallStack((Frame("f", "f.c", 1),))


def reference_table(blocks, trace):
    """Seed consolidation of *blocks* (concatenate + stable argsort)."""
    ref = Trace()
    ref.__dict__["_legacy_blocks"] = [
        (b, trace.callstack_id(STACK)) for b in blocks
    ]
    for b in blocks:
        ref.label_id(b.label)
    return legacy_sample_table(ref)


class TestIncrementalMerge:
    # Chunks that overlap in time (and tie exactly at t=20) force the
    # stable two-run merge; consolidating between appends exercises it
    # repeatedly against the same global-argsort reference.
    BLOCKS = [
        ([10.0, 20.0, 30.0], 1),
        ([5.0, 20.0, 25.0], 2),
        ([20.0, 40.0], 3),
    ]

    def build(self, consolidate_every_append):
        trace = Trace()
        blocks = [make_block(t, seed=s) for t, s in self.BLOCKS]
        for b in blocks:
            trace.add_samples(b, STACK)
            if consolidate_every_append:
                trace.sample_table()
        return trace, blocks

    @pytest.mark.parametrize("eager", [True, False])
    def test_matches_global_argsort(self, eager):
        trace, blocks = self.build(consolidate_every_append=eager)
        got = trace.sample_table()
        want = reference_table(blocks, trace)
        for name in _SAMPLE_COLUMNS:
            np.testing.assert_array_equal(got.column(name), want.column(name))

    def test_stable_tie_breaking(self):
        trace, _ = self.build(consolidate_every_append=True)
        table = trace.sample_table()
        ties = np.nonzero(table.time_ns == 20.0)[0]
        # Ties keep append order: block 0's sample, then 1's, then 2's.
        assert list(table.instructions[ties]) == [
            float(make_block(t, seed=s).counters["instructions"][i])
            for i, (t, s) in zip((1, 1, 0), self.BLOCKS)
        ]

    def test_in_order_chunks_match_too(self):
        trace = Trace()
        blocks = [make_block([1.0, 2.0], seed=7), make_block([2.0, 9.0], seed=8)]
        for b in blocks:
            trace.add_samples(b, STACK)
            trace.sample_table()  # fast in-place append branch
        want = reference_table(blocks, trace)
        got = trace.sample_table()
        for name in _SAMPLE_COLUMNS:
            np.testing.assert_array_equal(got.column(name), want.column(name))


# --- satellite: no forced consolidation --------------------------------------


class TestLazyScalars:
    def test_duration_ns_does_not_consolidate(self):
        trace = Trace()
        trace.add_samples(make_block([10.0, 20.0], seed=1), STACK)
        trace.add_samples(make_block([5.0, 30.0], seed=2), STACK)
        assert trace.duration_ns() == 30.0
        assert trace._table is None  # still unconsolidated
        assert len(trace._buf) - trace._sorted_rows == 4
        assert float(trace.sample_table().time_ns.max()) == 30.0

    def test_n_samples_does_not_consolidate(self):
        trace = Trace()
        trace.add_samples(make_block([10.0, 20.0, 30.0], seed=1), STACK)
        assert trace.n_samples == 3
        assert trace._table is None

    def test_repeated_digest_is_cached(self):
        trace = Trace()
        trace.add_samples(make_block([1.0, 2.0], seed=1), STACK)
        assert trace.digest() == trace.digest()

    def test_pickle_round_trip_preserves_digest(self):
        trace = run_trace("analytic", "stream")
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.digest() == trace.digest()
        assert clone.n_samples == trace.n_samples

    def test_loaded_and_rebuilt_traces_record_nothing(self, tmp_path):
        base = Trace()
        base.add_samples(make_block([1.0, 5.0], seed=1), STACK)
        rebuilt = Trace.from_parts(
            labels=base.labels,
            callstacks=base.callstacks,
            table=base.sample_table(),
        )
        with Trace.load(base.save(tmp_path / "t.bsctrace")) as loaded:
            for trace in (rebuilt, loaded):
                with pytest.raises(ValueError, match="finished table"):
                    trace.add_samples(make_block([3.0, 9.0], seed=2), STACK)
                assert trace.n_samples == 2
                assert trace.duration_ns() == 5.0
                assert trace.digest() == base.digest()


# --- in-place consolidation: no second copy of the trace ---------------------


def test_consolidation_allocates_index_and_one_column():
    """Sorting ~400k out-of-order recorded rows allocates the argsort
    index and one column at a time, not a second copy of every column."""
    rng = np.random.default_rng(11)
    trace = Trace()
    for seed in range(4):
        times = rng.uniform(0.0, 1e9, 100_000)
        trace.add_samples(make_block(times, seed=seed), STACK)
    n = trace.n_samples
    widest = max(np.dtype(dt).itemsize for dt in _SAMPLE_COLUMNS.values())
    bound = n * (np.dtype(np.intp).itemsize + widest)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = trace.sample_table()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.all(np.diff(table.time_ns) >= 0)
    assert peak <= bound + (64 << 10), (peak, bound)
