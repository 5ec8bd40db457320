"""Tests for cross-rank aggregation: fold_ranks, merge, imbalance."""

import numpy as np
import pytest

from repro.analysis.ranks import (
    ClusterReport,
    Imbalance,
    build_cluster_report,
    compute_rank_stats,
    fold_ranks,
    rank_imbalance,
)
from repro.extrae.tracer import TracerConfig
from repro.folding.model import FoldedCounters, FoldedCurve, merge_counters
from repro.parallel import RankSet
from repro.pipeline import SessionConfig
from repro.workloads import HpcgConfig, HpcgWorkload


class _HpcgFactory:
    def __call__(self, rank, n_ranks):
        return HpcgWorkload(
            HpcgConfig(nx=8, ny=8, nz=8, nlevels=1, n_iterations=2,
                       rank=rank, npz=n_ranks)
        )


def _session_config(seed=0):
    return SessionConfig(
        seed=seed,
        tracer=TracerConfig(load_period=500, store_period=500),
    )


@pytest.fixture(scope="module")
def rank_results():
    """A 4-rank pooled + spilled HPCG run shared across this module."""
    rank_set = RankSet(4, _session_config(seed=3), max_workers=2)
    results = rank_set.run(_HpcgFactory())
    yield results
    rank_set.cleanup_spill()


@pytest.fixture(scope="module")
def folds(rank_results):
    return fold_ranks(rank_results, grid_points=101, max_workers=2)


# -- merge_counters ---------------------------------------------------------


def _counters(scale, grid_points=5, duration=100.0):
    sigma = np.linspace(0.0, 1.0, grid_points)
    curves = {}
    for name, base in (("instructions", 2.0), ("cycles", 4.0)):
        rate = np.full(grid_points, base * scale)
        curves[name] = FoldedCurve(
            name=name,
            sigma=sigma,
            cumulative=rate * sigma,
            rate=rate,
            total_mean=base * scale,
        )
    return FoldedCounters(curves=curves, duration_ns=duration * scale)


class TestMergeCounters:
    def test_equal_weights_is_plain_mean(self):
        merged = merge_counters([_counters(1.0), _counters(3.0)])
        assert np.allclose(merged["instructions"].rate, 2.0 * 2.0)
        assert merged.duration_ns == pytest.approx(200.0)

    def test_weighted_mean(self):
        merged = merge_counters(
            [_counters(1.0), _counters(3.0)], weights=[3.0, 1.0]
        )
        # 0.75 * 1 + 0.25 * 3 = 1.5
        assert np.allclose(merged["instructions"].rate, 2.0 * 1.5)
        assert np.allclose(merged["cycles"].total_mean, 4.0 * 1.5)
        assert merged.duration_ns == pytest.approx(150.0)

    def test_derived_rates_stay_consistent(self):
        merged = merge_counters([_counters(1.0), _counters(2.0)])
        # instructions/cycles ratio is scale-free here
        assert np.allclose(merged.ipc(), 0.5)

    def test_rejects_mismatched_names(self):
        a = _counters(1.0)
        b = _counters(1.0)
        b.curves.pop("cycles")
        with pytest.raises(ValueError, match="counter names"):
            merge_counters([a, b])

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError, match="grid"):
            merge_counters([_counters(1.0, 5), _counters(1.0, 7)])

    def test_rejects_bad_weights(self):
        pair = [_counters(1.0), _counters(2.0)]
        with pytest.raises(ValueError):
            merge_counters(pair, weights=[1.0])
        with pytest.raises(ValueError):
            merge_counters(pair, weights=[-1.0, 2.0])
        with pytest.raises(ValueError):
            merge_counters(pair, weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            merge_counters([])


# -- imbalance --------------------------------------------------------------


class TestImbalance:
    def test_rank_imbalance_statistics(self):
        im = rank_imbalance([1.0, 2.0, 3.0, 6.0], "x")
        assert im.min == 1.0 and im.max == 6.0
        assert im.median == pytest.approx(2.5)
        assert im.mean == pytest.approx(3.0)
        assert im.imbalance_factor == pytest.approx(2.0)
        assert im.spread == pytest.approx(2.0)

    def test_balanced_factor_is_one(self):
        im = rank_imbalance([5.0, 5.0, 5.0], "x")
        assert im.imbalance_factor == pytest.approx(1.0)
        assert im.spread == pytest.approx(0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_imbalance([], "x")


# -- fold_ranks over a real run ---------------------------------------------


class TestFoldRanks:
    def test_folds_every_rank_in_order(self, rank_results, folds):
        assert [f.rank for f in folds] == [0, 1, 2, 3]
        for f, r in zip(folds, rank_results):
            assert f.digest == r.summary.digest
            assert f.seed == r.summary.seed
            assert f.n_instances > 0
            assert f.counters.sigma.size == 101

    def test_parent_stays_lazy(self, rank_results, folds):
        """Folding spilled ranks never materializes traces here."""
        assert all(not r.trace_loaded for r in rank_results)

    def test_pooled_matches_serial_fold(self, rank_results, folds):
        serial = fold_ranks(rank_results, grid_points=101, max_workers=1)
        for p, s in zip(folds, serial):
            assert p.digest == s.digest
            assert p.n_folded_samples == s.n_folded_samples
            assert np.array_equal(
                p.counters["instructions"].rate,
                s.counters["instructions"].rate,
            )

    def test_rep_budget_folds_fewer_samples(self, rank_results, folds):
        """Representative folds keep the per-rank surface but fold only
        the medoid instances' samples."""
        reps = fold_ranks(rank_results, grid_points=101, max_workers=2,
                          rep_budget=1)
        assert [f.rank for f in reps] == [f.rank for f in folds]
        for rep, exact in zip(reps, folds):
            assert rep.n_instances == exact.n_instances
            assert 0 < rep.n_folded_samples < exact.n_folded_samples
            assert rep.counters.sigma.size == 101
        # the merged cluster report builds unchanged from rep folds
        cluster = build_cluster_report(reps)
        assert cluster.n_ranks == len(rank_results)

    def test_rep_budget_covering_all_matches_exact(self, rank_results, folds):
        n = max(f.n_instances for f in folds)
        reps = fold_ranks(rank_results, grid_points=101, max_workers=2,
                          rep_budget=n)
        for rep, exact in zip(reps, folds):
            assert np.array_equal(
                rep.counters["instructions"].rate,
                exact.counters["instructions"].rate,
            )
            assert rep.n_folded_samples == exact.n_folded_samples

    def test_empty_input(self):
        assert fold_ranks([]) == []

    def test_rejects_bad_workers(self, rank_results):
        with pytest.raises(ValueError):
            fold_ranks(rank_results, max_workers=0)

    def test_compute_rank_stats(self, rank_results):
        stats = compute_rank_stats(rank_results[0].trace)
        assert stats.n_samples == rank_results[0].summary.n_samples
        assert stats.latency_p95 >= stats.latency_mean > 0
        assert stats.bandwidth_MBps > 0
        assert "ComputeSPMV_ref" in stats.region_time_ns
        assert sum(stats.region_samples.values()) > 0


# -- the cluster report -----------------------------------------------------


class TestClusterReport:
    def test_build_defaults_to_instance_weights(self, folds):
        cluster = build_cluster_report(folds)
        assert isinstance(cluster, ClusterReport)
        assert cluster.n_ranks == 4
        assert np.array_equal(
            cluster.weights,
            np.asarray([f.n_instances for f in folds], dtype=np.float64),
        )

    def test_sorts_folds_by_rank(self, folds):
        cluster = build_cluster_report(list(reversed(folds)))
        assert [f.rank for f in cluster.folds] == [0, 1, 2, 3]

    def test_imbalance_metrics(self, folds):
        cluster = build_cluster_report(folds)
        imbalance = cluster.imbalance()
        assert set(imbalance) == {
            "samples", "duration_ns", "latency_mean", "bandwidth_MBps",
            "instance_ns",
        }
        for im in imbalance.values():
            assert isinstance(im, Imbalance)
            assert im.imbalance_factor >= 1.0

    def test_region_imbalance_covers_common_regions(self, folds):
        cluster = build_cluster_report(folds)
        regions = cluster.region_imbalance()
        assert "ComputeSPMV_ref" in regions
        # every listed region exists on every rank
        for name in regions:
            assert all(name in f.stats.region_time_ns for f in cluster.folds)

    def test_render_mentions_cluster_headline(self, folds):
        cluster = build_cluster_report(folds)
        text = cluster.render()
        assert "Cluster — 4 ranks" in text
        assert "Cross-rank imbalance" in text
        assert "cluster MIPS" in text
        total_instances = sum(f.n_instances for f in folds)
        assert f"merged over {total_instances} instances" in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_cluster_report([])


class TestAnalyzeHpcgRanks:
    def test_pipeline_entry_point(self, rank_results):
        from repro.pipeline import analyze_hpcg_ranks

        cluster, report, figure = analyze_hpcg_ranks(
            rank_results, grid_points=101, max_workers=2
        )
        assert cluster.n_ranks == 4
        assert report.instances.n > 0
        assert figure is not None
        # the representative report is the interior rank's
        interior = rank_results[len(rank_results) // 2]
        assert report.trace.digest() == interior.summary.digest

    def test_spec_with_rep_budget_keeps_interior_exact(self, rank_results):
        from repro.folding.spec import FoldSpec
        from repro.folding.stream import fold_digest
        from repro.pipeline import analyze_hpcg, analyze_hpcg_ranks

        spec = FoldSpec(grid_points=101, rep_budget=2)
        cluster, report, _ = analyze_hpcg_ranks(rank_results, spec, max_workers=1)
        assert cluster.n_ranks == 4
        interior = rank_results[len(rank_results) // 2]
        exact, _ = analyze_hpcg(interior.trace, grid_points=101)
        assert fold_digest(report) == fold_digest(exact)

    def test_rejects_empty(self):
        from repro.pipeline import analyze_hpcg_ranks

        with pytest.raises(ValueError):
            analyze_hpcg_ranks([])
