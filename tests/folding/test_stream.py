"""Streaming fold: exactness, chunk invariance, cache interop.

The acceptance property of the streaming pipeline: for any chunk size,
any engine and any workload, :func:`repro.folding.stream.stream_fold_trace`
produces curves, totals and degenerate flags bit-identical to the
resident :func:`repro.folding.report.fold_trace` — the chunk boundary
is an implementation detail that must never leak into the numbers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.extrae.events import EventKind, TraceEvent
from repro.extrae.trace import _SAMPLE_COLUMNS, SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.spec import FoldSpec
from repro.folding.stream import (
    StreamedFold,
    fold_digest,
    stream_fold_trace,
    stream_passes,
)
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.vmem.callstack import CallStack, Frame
from repro.workloads import HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload
from tests.conftest import small_hpcg_config


def stream_trace(seed=3, engine="analytic", n=1 << 14, iterations=3, period=64):
    return run_workload(
        StreamWorkload(StreamConfig(n=n, iterations=iterations, blocks=2)),
        SessionConfig(
            seed=seed,
            engine=engine,
            tracer=TracerConfig(load_period=period, store_period=period),
        ),
    )


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


@pytest.fixture(scope="module")
def resident(trace):
    return fold_trace(trace)


def assert_stream_matches_resident(streamed, report):
    """Bit-identity of everything the streamed fold re-derives."""
    assert isinstance(streamed, StreamedFold)
    assert streamed.digest() == fold_digest(report)
    np.testing.assert_array_equal(
        streamed.counters.sigma, report.counters.sigma
    )
    assert streamed.counters.curves.keys() == report.counters.curves.keys()
    for name, curve in streamed.counters.curves.items():
        ref = report.counters.curves[name]
        np.testing.assert_array_equal(curve.cumulative, ref.cumulative)
        np.testing.assert_array_equal(curve.rate, ref.rate)
    assert streamed.n_folded == report.samples.n
    for name in SAMPLE_COUNTERS:
        np.testing.assert_array_equal(
            streamed.totals[name], report.samples.totals[name]
        )
        np.testing.assert_array_equal(
            streamed.degenerate[name], report.samples.degenerate[name]
        )


class TestStreamedEqualsResident:
    @pytest.mark.parametrize("chunk_rows", [7, 997, 1 << 20])
    def test_chunk_boundary_invariance(self, trace, resident, chunk_rows):
        streamed = stream_fold_trace(trace, chunk_rows=chunk_rows)
        assert_stream_matches_resident(streamed, resident)

    def test_binned_regime(self):
        # dense sampling pushes n_kept past BIN_THRESHOLD
        trace = stream_trace(seed=9, period=8)
        report = fold_trace(trace)
        assert report.samples.n > 4096
        for chunk_rows in (311, 1 << 20):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )

    @pytest.mark.parametrize("compression", ["none", "deflate"])
    def test_from_saved_container(self, trace, resident, tmp_path, compression):
        path = tmp_path / f"t-{compression}.bsctrace"
        trace.save(path, version=2, compression=compression)
        streamed = stream_fold_trace(path, chunk_rows=501)
        assert_stream_matches_resident(streamed, resident)

    def test_hpcg_workload(self, hpcg_trace):
        report = fold_trace(hpcg_trace)
        streamed = stream_fold_trace(hpcg_trace, chunk_rows=1009)
        assert_stream_matches_resident(streamed, report)

    def test_parameters_carry_through(self, trace):
        report = fold_trace(trace, grid_points=51, bandwidth=0.05,
                            prune_tolerance=None)
        streamed = stream_fold_trace(trace, grid_points=51, bandwidth=0.05,
                                     prune_tolerance=None, chunk_rows=640)
        assert_stream_matches_resident(streamed, report)

    @pytest.mark.parametrize("period", [64, 8], ids=["raw", "binned"])
    def test_finished_accumulator_refits_any_point(self, period):
        """One pass of the stream serves every fit point, bit for bit."""
        trace = stream_trace(seed=9, period=period)
        acc, addresses, lines = stream_passes(trace, FoldSpec(streaming=True))
        assert (addresses, lines) == (None, None)
        assert acc.prologue.binned == (period == 8)
        for grid_points, bandwidth in ((201, 0.015), (51, 0.05), (151, 0.02)):
            report = fold_trace(trace, grid_points=grid_points, bandwidth=bandwidth)
            assert_stream_matches_resident(
                acc.result(grid_points, bandwidth), report
            )

    def test_snapshot_cadence(self, trace):
        seen = []
        streamed = stream_fold_trace(
            trace, chunk_rows=200, report_every=2, on_snapshot=seen.append
        )
        assert seen, "no snapshots emitted"
        for partial in seen:
            assert partial.sigma.size == 201
            assert set(partial.curves) == set(SAMPLE_COUNTERS)
        # the stream of partials converges on the final curves
        np.testing.assert_array_equal(
            seen[-1].curves["instructions"].cumulative,
            streamed.counters.curves["instructions"].cumulative,
        )


@pytest.mark.slow
class TestEngineWorkloadMatrix:
    """Chunk invariance for every engine × workload, including rows=1."""

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_stream_workload(self, engine):
        trace = stream_trace(seed=11, engine=engine, n=1 << 12)
        report = fold_trace(trace)
        for chunk_rows in (1, 97, 1 << 20):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_hpcg_workload(self, engine):
        trace = run_workload(
            HpcgWorkload(small_hpcg_config(n_iterations=3, nx=8)),
            SessionConfig(
                seed=2,
                engine=engine,
                tracer=TracerConfig(load_period=500, store_period=500),
            ),
        )
        report = fold_trace(trace)
        for chunk_rows in (1, 251):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )


class TestFoldTraceStreamingApi:
    def test_streaming_flag(self, trace, resident):
        streamed = fold_trace(trace, streaming=True, chunk_rows=333)
        assert_stream_matches_resident(streamed, resident)

    def test_streaming_rejects_align(self, trace):
        with pytest.raises(ValueError):
            fold_trace(trace, streaming=True, align_regions=("triad",))

    def test_chunk_rows_requires_streaming(self, trace):
        with pytest.raises(ValueError):
            fold_trace(trace, chunk_rows=128)


class TestCacheSharing:
    def test_resident_entry_serves_streamed(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        report = fold_trace(trace, cache=cache)
        streamed = stream_fold_trace(trace, cache=cache)
        assert_stream_matches_resident(streamed, report)

    def test_streamed_entry_upgraded_by_resident(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        first = stream_fold_trace(trace, cache=cache)
        # a streamed entry cannot serve the full three-direction report:
        # the resident path treats it as a miss and overwrites it
        report = fold_trace(trace, cache=cache)
        assert isinstance(report, FoldedReport)
        assert fold_digest(report) == first.digest()
        # ... after which the streamed path adapts the resident entry
        again = stream_fold_trace(trace, cache=cache)
        assert_stream_matches_resident(again, report)

    def test_summary_is_the_same_from_every_source(self, trace, tmp_path):
        """A streamed fold is a value of (trace, spec): the summary of
        a hit does not describe the run that stored the entry."""
        cold = stream_fold_trace(trace, chunk_rows=4000)
        stream_fold_trace(
            trace, chunk_rows=500, cache=FoldCache(directory=tmp_path / "s")
        )
        stored = stream_fold_trace(
            trace, chunk_rows=4000, cache=FoldCache(directory=tmp_path / "s")
        )
        resident = FoldCache(directory=tmp_path / "r")
        fold_trace(trace, cache=resident)
        adapted = stream_fold_trace(trace, chunk_rows=4000, cache=resident)
        assert cold.summary() == stored.summary() == adapted.summary()

    def test_cached_fold_of_deflated_container_stays_o_chunk(self, tmp_path):
        """Keying the cache hashes a deflated container chunk by chunk,
        so a cached streamed fold peaks near the uncached one."""
        path = tmp_path / "deflated.bsctrace"
        stream_trace(n=1 << 17, period=32).save(path, compression="deflate")
        stream_fold_trace(path, chunk_rows=4096)  # first-call allocations

        def peak(**kwargs) -> int:
            tracemalloc.start()
            try:
                stream_fold_trace(path, chunk_rows=4096, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        uncached = peak()
        cached = peak(cache=FoldCache(directory=tmp_path / "cache"))
        assert cached <= 1.2 * uncached


def synthetic_trace(drift: float) -> Trace:
    """Two-iteration trace whose ``flops`` counter drifts by *drift*.

    All other counters grow normally.  With a zero or tiny-negative
    drift the per-instance raw increment is non-positive — the
    degenerate-clamp case that must flag (not crash, not go negative)
    identically in both fold paths.
    """
    n = 64
    t = np.linspace(100.0, 900.0, n)
    columns = {
        "time_ns": t.astype(np.float64),
        "address": np.arange(n, dtype=np.uint64) * 64,
        "op": np.zeros(n, dtype=np.int8),
        "source": np.ones(n, dtype=np.int8),
        "latency": np.full(n, 12.0, dtype=np.float32),
        "callstack_id": np.zeros(n, dtype=np.int32),
        "label_id": np.zeros(n, dtype=np.int32),
    }
    for name in SAMPLE_COUNTERS:
        columns[name] = np.linspace(0.0, 1e6, n)
    columns["flops"] = np.linspace(0.0, drift, n)
    events = [
        TraceEvent(100.0, EventKind.ITERATION),
        TraceEvent(500.0, EventKind.ITERATION),
        TraceEvent(900.0, EventKind.MARKER, "execution_phase_end"),
    ]
    return Trace.from_parts(
        metadata={"duration_ns": 1000.0},
        events=events,
        labels=["main"],
        callstacks=[CallStack((Frame("main", "main.c", 1),))],
        table=SampleTable({k: columns[k] for k in _SAMPLE_COLUMNS}),
    )


class TestDegenerateClamp:
    @pytest.mark.parametrize("drift", [0.0, -1e-9, -5.0])
    def test_flags_match_resident(self, drift):
        trace = synthetic_trace(drift)
        report = fold_trace(trace, prune_tolerance=None)
        streamed = stream_fold_trace(trace, prune_tolerance=None,
                                     chunk_rows=5)
        assert_stream_matches_resident(streamed, report)
        assert streamed.degenerate["flops"].all()
        assert not streamed.degenerate["instructions"].any()
        # the single clamp site keeps totals non-negative
        assert (streamed.totals["flops"] >= 0.0).all()

    def test_healthy_counter_not_flagged(self):
        trace = synthetic_trace(1e6)
        streamed = stream_fold_trace(trace, prune_tolerance=None)
        assert not streamed.degenerate["flops"].any()
