"""Tests for the high-level session/pipeline API."""

import gc
import weakref

import numpy as np
import pytest

from repro.memsim.analytic import AnalyticEngine
from repro.memsim.hierarchy import PreciseEngine
from repro.memsim.vectorized import VectorizedEngine
from repro.pipeline import Session, SessionConfig, analyze_hpcg, run_workload
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload

from tests.conftest import small_hpcg_config


class TestSessionConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SessionConfig(engine="magic")

    def test_with_seed(self):
        cfg = SessionConfig(seed=1)
        assert cfg.with_seed(9).seed == 9
        assert cfg.seed == 1  # original untouched


class TestSession:
    def test_engine_selection(self):
        assert isinstance(Session(SessionConfig(engine="analytic")).machine.engine,
                          AnalyticEngine)
        assert isinstance(Session(SessionConfig(engine="precise")).machine.engine,
                          PreciseEngine)
        assert isinstance(Session(SessionConfig(engine="vectorized")).machine.engine,
                          VectorizedEngine)

    def test_vectorized_matches_precise_trace(self):
        w = lambda: StreamWorkload(StreamConfig(n=1 << 14, iterations=2))
        tp = Session(SessionConfig(seed=5, engine="precise")).run(w())
        tv = Session(SessionConfig(seed=5, engine="vectorized")).run(w())
        for col in ("time_ns", "address", "source", "latency"):
            np.testing.assert_array_equal(
                tp.sample_table().column(col), tv.sample_table().column(col)
            )

    def test_metadata_seeded(self):
        s = Session(SessionConfig(seed=42))
        assert s.tracer.trace.metadata["seed"] == 42

    def test_same_seed_identical_sessions(self):
        w1 = StreamWorkload(StreamConfig(n=1 << 14, iterations=2))
        w2 = StreamWorkload(StreamConfig(n=1 << 14, iterations=2))
        t1 = Session(SessionConfig(seed=5)).run(w1)
        t2 = Session(SessionConfig(seed=5)).run(w2)
        np.testing.assert_array_equal(
            t1.sample_table().address, t2.sample_table().address
        )

    def test_run_workload_oneshot(self):
        trace = run_workload(StreamWorkload(StreamConfig(n=1 << 14, iterations=2)))
        assert trace.metadata["workload"] == "stream"
        assert trace.n_samples > 0

    def test_finished_trace_freed_without_gc(self):
        """No reference cycle holds a recorded trace: its buffers go
        when its last reference drops, not at the next cyclic GC."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            trace = run_workload(
                StreamWorkload(StreamConfig(n=1 << 12, iterations=2))
            )
            alive = weakref.ref(trace)
            del trace
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_finished_session_freed_without_gc(self):
        """Once the caller keeps only the trace, the session's simulator
        state (machine, engine, allocator) goes with its last reference:
        finalizing detaches the allocation interceptor from the
        allocator, which would otherwise hold it in a cycle."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            session = Session(SessionConfig())
            machine = weakref.ref(session.machine)
            allocator = weakref.ref(session.allocator)
            trace = session.run(StreamWorkload(StreamConfig(n=1 << 12, iterations=2)))
            del session
            assert machine() is None
            assert allocator() is None
            assert trace.n_samples > 0
        finally:
            if enabled:
                gc.enable()


class TestAnalyzeHpcg:
    def test_end_to_end(self):
        trace = run_workload(
            HpcgWorkload(small_hpcg_config(n_iterations=3)),
            SessionConfig(seed=2),
        )
        report, figure = analyze_hpcg(trace)
        assert figure.phases.major_sequence() == ["A", "B", "C", "D", "E"]
        assert report.samples.n > 0

    def test_spec_or_fields(self, hpcg_trace):
        from repro.folding.spec import FoldSpec
        from repro.folding.stream import fold_digest

        by_spec, _ = analyze_hpcg(hpcg_trace, FoldSpec(bandwidth=0.02, grid_points=101))
        by_fields, _ = analyze_hpcg(hpcg_trace, bandwidth=0.02, grid_points=101)
        assert fold_digest(by_spec) == fold_digest(by_fields)
        assert by_spec.counters.sigma.size == 101

    @pytest.mark.parametrize("fields", [{"streaming": True}, {"rep_budget": 2}])
    def test_rejects_non_resident_specs(self, hpcg_trace, fields):
        with pytest.raises(ValueError, match="resident"):
            analyze_hpcg(hpcg_trace, **fields)
