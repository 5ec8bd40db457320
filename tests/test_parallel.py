"""Tests for the multi-rank substrate."""

import pytest

from repro.parallel import RankSet
from repro.pipeline import SessionConfig
from repro.workloads import HpcgConfig, HpcgWorkload


def factory(rank, n_ranks):
    return HpcgWorkload(
        HpcgConfig(nx=8, ny=8, nz=8, nlevels=1, n_iterations=2,
                   rank=rank, npz=n_ranks)
    )


class TestRankSet:
    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            RankSet(0)

    def test_runs_all_ranks(self):
        results = RankSet(3, SessionConfig(seed=0)).run(factory)
        assert [r.rank for r in results] == [0, 1, 2]
        for r in results:
            assert r.trace.metadata["rank"] == r.rank
            assert r.trace.metadata["n_ranks"] == 3
            assert r.trace.n_samples > 0

    def test_ranks_have_distinct_aslr(self):
        results = RankSet(3, SessionConfig(seed=0)).run(factory)
        spans = {r.trace.metadata["annotations"]["matrix_span"][0] for r in results}
        assert len(spans) == 3

    def test_halo_configuration_per_rank(self):
        results = RankSet(3, SessionConfig(seed=0)).run(factory)
        ann0 = results[0].trace.metadata["annotations"]
        ann1 = results[1].trace.metadata["annotations"]
        ann2 = results[2].trace.metadata["annotations"]
        assert "bottom" not in ann0 and "top" in ann0
        assert "bottom" in ann1 and "top" in ann1
        assert "bottom" in ann2 and "top" not in ann2

    def test_rejects_bad_max_workers(self):
        with pytest.raises(ValueError):
            RankSet(2, max_workers=0)

    def test_parallel_matches_serial(self):
        """The process-pool path returns the same results, in rank
        order, as the in-process serial path."""
        cfg = SessionConfig(seed=5)
        serial = RankSet(4, cfg, max_workers=1).run(factory)
        parallel = RankSet(4, cfg, max_workers=2).run(factory)
        assert [r.rank for r in parallel] == [0, 1, 2, 3]
        for s, p in zip(serial, parallel):
            assert s.rank == p.rank
            assert s.trace.metadata["annotations"] == p.trace.metadata["annotations"]
            assert s.trace.n_samples == p.trace.n_samples
            ts, tp = s.trace.sample_table(), p.trace.sample_table()
            for col in ("time_ns", "address", "source", "latency"):
                assert (ts.column(col) == tp.column(col)).all(), col

    def test_unpicklable_factory_falls_back_to_serial(self):
        results = RankSet(2, SessionConfig(seed=2), max_workers=2).run(
            lambda rank, n_ranks: factory(rank, n_ranks)
        )
        assert [r.rank for r in results] == [0, 1]
