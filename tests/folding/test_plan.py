"""Fold plans and the fast-path equivalence suite.

The acceptance property of the whole folding fast path: every way of
producing a folded report — ``fold_trace`` cold, ``FoldPlan`` reuse at
one or several fit points, a report-cache hit — yields bit-identical
curves.
"""

import numpy as np
import pytest

from repro.extrae.trace import SampleTable
from repro.extrae.tracer import TracerConfig
from repro.folding.detect import FoldInstances
from repro.folding.fold import fold_samples
from repro.folding.model import fold_counters
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.validate import validate_trace
from repro.workloads.stream import StreamConfig, StreamWorkload


def stream_trace(seed=3, engine="analytic", n=1 << 14, iterations=3):
    return run_workload(
        StreamWorkload(StreamConfig(n=n, iterations=iterations, blocks=2)),
        SessionConfig(
            seed=seed,
            engine=engine,
            tracer=TracerConfig(load_period=64, store_period=64),
        ),
    )


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


def assert_reports_identical(a, b):
    """Bit-identity of every folded array the report exposes."""
    np.testing.assert_array_equal(a.counters.sigma, b.counters.sigma)
    assert a.counters.curves.keys() == b.counters.curves.keys()
    for name in a.counters.curves:
        ca, cb = a.counters.curves[name], b.counters.curves[name]
        np.testing.assert_array_equal(ca.cumulative, cb.cumulative)
        np.testing.assert_array_equal(ca.rate, cb.rate)
    np.testing.assert_array_equal(a.samples.sigma, b.samples.sigma)
    np.testing.assert_array_equal(a.addresses.address, b.addresses.address)
    np.testing.assert_array_equal(a.addresses.sigma, b.addresses.sigma)
    np.testing.assert_array_equal(a.lines.line_id, b.lines.line_id)


class TestFoldPlan:
    def test_fold_matches_fold_trace(self, trace):
        plan = FoldPlan.from_trace(trace)
        for bw in (0.01, 0.015, 0.05):
            assert_reports_identical(
                plan.fold(bandwidth=bw), fold_trace(trace, bandwidth=bw)
            )

    def test_grid_points_vary(self, trace):
        plan = FoldPlan.from_trace(trace)
        for gp in (51, 201):
            report = plan.fold(grid_points=gp)
            assert report.counters.sigma.size == gp
            assert_reports_identical(report, fold_trace(trace, grid_points=gp))

    def test_design_cached_per_counter_subset(self, trace):
        plan = FoldPlan.from_trace(trace)
        d1 = plan.design_for(SAMPLE_COUNTERS)
        assert plan.design_for(SAMPLE_COUNTERS) is d1
        sub = SAMPLE_COUNTERS[:3]
        d2 = plan.design_for(sub)
        assert d2 is not d1 and d2.n_targets == 3
        assert plan.design_for(sub) is d2

    def test_counter_subset_fold(self, trace):
        plan = FoldPlan.from_trace(trace)
        counters = plan.fold_counters(counters=SAMPLE_COUNTERS[:2])
        assert set(counters.curves) == set(SAMPLE_COUNTERS[:2])
        full = fold_counters(plan.samples, counters=SAMPLE_COUNTERS[:2])
        for name in counters.curves:
            np.testing.assert_array_equal(
                counters.curves[name].cumulative, full.curves[name].cumulative
            )

    def test_prune_tolerance_none(self, trace):
        plan = FoldPlan.from_trace(trace, prune_tolerance=None)
        assert_reports_identical(
            plan.fold(), fold_trace(trace, prune_tolerance=None)
        )


class TestDegenerateTotals:
    """Regression for the totals/denominator inconsistency: a counter
    that does not advance over an instance must yield zero totals (not
    the raw, possibly negative increment), finite fractions, a flagged
    ``degenerate`` mask, and an all-zero folded rate."""

    def _table(self, times, flat_value=7.5):
        n = times.size
        cols = {
            "time_ns": times.astype(np.float64),
            "address": np.arange(n, dtype=np.uint64),
            "op": np.zeros(n, dtype=np.int8),
            "source": np.ones(n, dtype=np.int8),
            "latency": np.ones(n, dtype=np.float32),
            "callstack_id": np.zeros(n, dtype=np.int32),
            "label_id": np.zeros(n, dtype=np.int32),
        }
        for name in SAMPLE_COUNTERS:
            cols[name] = times.astype(np.float64)  # advancing counters
        cols["flops"] = np.full(n, flat_value)  # flat -> degenerate
        return SampleTable(cols)

    def test_flat_counter_clamped_and_flagged(self):
        table = self._table(np.linspace(5.0, 195.0, 40))
        instances = FoldInstances("iter", ((0.0, 100.0), (100.0, 200.0)))
        folded = fold_samples(table, instances)
        np.testing.assert_array_equal(folded.totals["flops"], 0.0)
        assert folded.degenerate["flops"].all()
        assert not folded.degenerate["instructions"].any()
        assert (folded.totals["instructions"] > 0).all()
        frac = folded.fractions["flops"]
        assert np.isfinite(frac).all()
        assert ((frac >= 0.0) & (frac <= 1.0)).all()

    def test_flat_counter_rate_zero(self):
        table = self._table(np.linspace(5.0, 195.0, 60))
        instances = FoldInstances("iter", ((0.0, 100.0), (100.0, 200.0)))
        folded = fold_samples(table, instances)
        counters = fold_counters(folded, grid_points=41, bandwidth=0.05)
        curve = counters.curves["flops"]
        assert np.isfinite(curve.rate).all()
        np.testing.assert_array_equal(curve.rate, 0.0)
        assert curve.total_mean == 0.0

    def test_totals_never_negative(self, trace):
        folded = fold_samples(
            trace.sample_table(), FoldPlan.from_trace(trace).instances
        )
        for name in SAMPLE_COUNTERS:
            assert (folded.totals[name] >= 0.0).all()
            # flagged instances are exactly the clamped ones
            np.testing.assert_array_equal(
                folded.degenerate[name], folded.totals[name] == 0.0
            )


class TestValidatorOnFastPaths:
    """Every new report-producing path carries a trace that still
    passes the full invariant suite (fold-mass conservation included)."""

    def test_plan_fold(self, trace):
        report = FoldPlan.from_trace(trace).fold()
        validate_trace(report.trace).raise_on_error()

    def test_cache_hit(self, trace, tmp_path):
        from repro.folding.cache import FoldCache

        cache = FoldCache(directory=tmp_path)
        fold_trace(trace, cache=cache)
        hit = fold_trace(trace, cache=cache)
        validate_trace(hit.trace).raise_on_error()


@pytest.mark.slow
class TestFastPathEquivalenceMatrix:
    """Plan-reuse and cache hits are bit-identical to cold folds for
    every engine × workload combination the suite exercises."""

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_engines(self, engine, tmp_path):
        trace = stream_trace(seed=11, engine=engine, n=1 << 12, iterations=3)
        cold = fold_trace(trace)
        assert_reports_identical(cold, FoldPlan.from_trace(trace).fold())
        from repro.folding.cache import FoldCache

        cache = FoldCache(directory=tmp_path)
        fold_trace(trace, cache=cache)
        assert_reports_identical(cold, fold_trace(trace, cache=cache))

    def test_hpcg_workload(self, hpcg_trace, tmp_path):
        from repro.folding.cache import FoldCache

        cold = fold_trace(hpcg_trace)
        plan = FoldPlan.from_trace(hpcg_trace)
        assert_reports_identical(cold, plan.fold())
        cache = FoldCache(directory=tmp_path)
        fold_trace(hpcg_trace, cache=cache)
        assert_reports_identical(cold, fold_trace(hpcg_trace, cache=cache))
        for bandwidth in (0.01, 0.05):
            assert_reports_identical(
                plan.fold(bandwidth=bandwidth),
                fold_trace(hpcg_trace, bandwidth=bandwidth),
            )
