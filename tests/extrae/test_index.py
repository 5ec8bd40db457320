"""TraceIndex equivalence: indexed queries ≡ linear scans / boolean masks."""

import gc
import weakref

import numpy as np
import pytest

from repro.extrae.events import EventKind, TraceEvent
from repro.extrae.index import group_rows
from repro.extrae.trace import Trace
from repro.folding.detect import instances_from_iterations
from repro.memsim.patterns import MemOp
from repro.validate import validate_trace
from repro.vmem.callstack import CallStack, Frame

from tests.extrae.test_trace_fastpath import make_block, run_trace


@pytest.fixture(scope="module")
def traced():
    return run_trace("analytic", "hpcg")


class TestGroupRows:
    @pytest.mark.parametrize(
        "codes",
        [
            [],
            [0],
            [3, 1, 3, 0, 1, 1, 3],
            [-1, 2, -1, 0, 2],
            list(np.random.default_rng(5).integers(-2, 6, 300)),
        ],
    )
    def test_matches_nonzero_masks(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        values, rows = group_rows(codes)
        np.testing.assert_array_equal(values, np.unique(codes))
        for v, r in zip(values, rows):
            np.testing.assert_array_equal(r, np.nonzero(codes == v)[0])


class TestSampleIndex:
    def test_rows_match_boolean_masks(self, traced):
        table = traced.sample_table()
        idx = traced.index().samples
        for label_id in range(len(traced.labels)):
            np.testing.assert_array_equal(
                idx.rows_for_label(label_id),
                np.nonzero(table.label_id == label_id)[0],
            )
        for cs_id in range(traced.n_callstacks):
            np.testing.assert_array_equal(
                idx.rows_for_callstack(cs_id),
                np.nonzero(table.callstack_id == cs_id)[0],
            )
        for op in (int(MemOp.LOAD), int(MemOp.STORE)):
            np.testing.assert_array_equal(
                idx.rows_for_op(op), np.nonzero(table.op == op)[0]
            )
            assert idx.count_for_op(op) == int(np.count_nonzero(table.op == op))

    def test_out_of_range_keys_are_empty(self, traced):
        idx = traced.index().samples
        assert idx.rows_for_label(-1).size == 0
        assert idx.rows_for_label(len(traced.labels) + 5).size == 0
        assert idx.rows_for_callstack(10_000).size == 0
        assert idx.rows_for_op(99).size == 0
        assert idx.count_for_op(99) == 0

    def test_time_slice_matches_window_mask(self, traced):
        table = traced.sample_table()
        idx = traced.index().samples
        t = table.time_ns
        cuts = [
            (0.0, 0.0),
            (0.0, float(t[-1]) + 1.0),
            (float(t[len(t) // 3]), float(t[2 * len(t) // 3])),
            (float(t[-1]), float(t[-1])),  # empty half-open window
        ]
        for t0, t1 in cuts:
            sl = idx.time_slice(t0, t1)
            np.testing.assert_array_equal(
                np.arange(sl.start, sl.stop),
                np.nonzero((t >= t0) & (t < t1))[0],
            )
            win = idx.window(t0, t1)
            assert win.n == sl.stop - sl.start


class TestEventIndex:
    def test_iteration_and_region_queries_match_scan(self, traced):
        events = traced.index().events
        assert events.iteration_times() == [
            ev.time_ns for ev in traced.events if ev.kind == EventKind.ITERATION
        ]
        scanned_names = {
            ev.name
            for ev in traced.events
            if ev.kind in (EventKind.REGION_ENTER, EventKind.REGION_EXIT)
        }
        assert set(events.region_names) == scanned_names
        for name in events.region_names:
            # Trace.region_intervals delegates to the index; cross-check
            # the pairing against a fresh manual stack match.
            stack, want = [], []
            for ev in traced.events:
                if ev.name != name:
                    continue
                if ev.kind == EventKind.REGION_ENTER:
                    stack.append(ev.time_ns)
                elif ev.kind == EventKind.REGION_EXIT:
                    want.append((stack.pop(), ev.time_ns))
            assert traced.region_intervals(name) == sorted(want)

    def test_first_time_named(self, traced):
        events = traced.index().events
        for name in ("execution_phase", "execution_phase_end"):
            want = next(
                (ev.time_ns for ev in traced.events if ev.name == name), None
            )
            assert events.first_time_named(name) == want
        assert events.first_time_named("no-such-marker") is None

    def test_unmatched_exit_message(self):
        trace = Trace()
        trace.add_event(TraceEvent(5.0, EventKind.REGION_EXIT, "r"))
        with pytest.raises(ValueError, match=r"unmatched exit of region 'r' at 5.0"):
            trace.region_intervals("r")

    def test_unmatched_enter_message(self):
        trace = Trace()
        trace.add_event(TraceEvent(5.0, EventKind.REGION_ENTER, "r"))
        with pytest.raises(ValueError, match=r"unmatched enter of region 'r'"):
            trace.region_intervals("r")


class TestInvalidation:
    STACK = CallStack((Frame("f", "f.c", 1),))

    def test_add_event_invalidates(self):
        trace = Trace()
        trace.add_event(TraceEvent(1.0, EventKind.ITERATION, "it"))
        first = trace.index()
        assert first.events.iteration_times() == [1.0]
        trace.add_event(TraceEvent(2.0, EventKind.ITERATION, "it"))
        second = trace.index()
        assert second is not first
        assert second.events.iteration_times() == [1.0, 2.0]

    def test_add_samples_invalidates(self):
        trace = Trace()
        trace.add_samples(make_block([1.0, 2.0], seed=1), self.STACK)
        first = trace.index()
        assert first.samples.rows_for_label(0).size == 2
        trace.add_samples(make_block([3.0], seed=2), self.STACK)
        second = trace.index()
        assert second is not first
        assert second.samples.rows_for_label(0).size == 3

    def test_index_is_cached_between_queries(self):
        trace = Trace()
        trace.add_samples(make_block([1.0], seed=1), self.STACK)
        assert trace.index() is trace.index()


class TestLifetime:
    """The index holds its trace weakly, so a trace that caches its
    index is no reference cycle."""

    def test_indexed_trace_freed_without_gc(self, traced, tmp_path):
        path = traced.save(tmp_path / "t.bsctrace")
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            trace = Trace.load(path)
            instances_from_iterations(trace)
            trace.region_intervals("ComputeSPMV_ref")
            validate_trace(trace)
            index = trace.index()
            # While the trace lives, its index answers sample queries.
            assert index.samples.time_slice(0.0, np.inf) == slice(
                0, trace.n_samples
            )
            alive = weakref.ref(trace)
            del trace
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
