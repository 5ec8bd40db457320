"""Tests for the scale-out rank pipeline: spill, streaming, retries.

The hard guarantee: the pooled + spilled path is bit-identical (by
content digest) to the serial in-memory path, across engines and
workloads, and the parent only ever touches one rank's sample table at
a time.
"""

import os
import pickle

import pytest

from repro.extrae.tracer import TracerConfig
from repro.parallel import RankSet, RankSummary, derive_rank_config
from repro.pipeline import SessionConfig
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload


def session_config(seed=0, engine="analytic"):
    return SessionConfig(
        seed=seed,
        engine=engine,
        tracer=TracerConfig(load_period=500, store_period=500),
    )


class _StreamFactory:
    """Picklable STREAM factory (small triad)."""

    def __call__(self, rank, n_ranks):
        return StreamWorkload(StreamConfig(n=512, iterations=2))


class _HpcgFactory:
    """Picklable HPCG factory with per-rank halo position."""

    def __call__(self, rank, n_ranks):
        return HpcgWorkload(
            HpcgConfig(nx=8, ny=8, nz=8, nlevels=1, n_iterations=2,
                       rank=rank, npz=n_ranks)
        )


FACTORIES = {"stream": _StreamFactory(), "hpcg": _HpcgFactory()}


class _DieInWorker:
    """Factory that kills any process other than its creator.

    Inside a pool worker the pid differs, so the worker dies hard
    (``os._exit``) and the parent sees ``BrokenProcessPool``; the
    in-process retry then runs the real workload.
    """

    def __init__(self):
        self.parent_pid = os.getpid()

    def __call__(self, rank, n_ranks):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return _StreamFactory()(rank, n_ranks)


class TestDigestEquality:
    """Pooled + spilled == serial in-memory, bit for bit."""

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    @pytest.mark.parametrize("workload", ["stream", "hpcg"])
    def test_pooled_spilled_matches_serial(self, engine, workload):
        factory = FACTORIES[workload]
        cfg = session_config(seed=11, engine=engine)
        serial = RankSet(3, cfg, max_workers=1).run(factory)
        pooled_set = RankSet(3, cfg, max_workers=2)
        pooled = pooled_set.run(factory)
        try:
            assert pooled_set.last_fallback_reason is None
            for s, p in zip(serial, pooled):
                assert s.summary.path is None and s.trace_loaded
                assert p.summary.path is not None and not p.trace_loaded
                assert s.summary.digest == p.summary.digest
                # the memmapped spill file reproduces the digest too
                assert p.trace.digest() == s.trace.digest()
        finally:
            pooled_set.cleanup_spill()

    def test_serial_spill_matches_serial_in_memory(self, tmp_path):
        """Explicit spill_dir on the serial path round-trips digests."""
        cfg = session_config(seed=4)
        in_mem = RankSet(2, cfg, max_workers=1).run(FACTORIES["stream"])
        spilled_set = RankSet(2, cfg, max_workers=1)
        spilled = spilled_set.run(FACTORIES["stream"], spill_dir=tmp_path)
        for m, s in zip(in_mem, spilled):
            assert s.summary.path is not None
            assert s.trace.digest() == m.summary.digest


class TestSpillLifecycle:
    def test_spill_dir_is_fresh_subdirectory(self, tmp_path):
        rank_set = RankSet(2, session_config(), max_workers=2)
        rank_set.run(FACTORIES["stream"], spill_dir=tmp_path)
        assert rank_set.spill_dir is not None
        assert rank_set.spill_dir.parent == tmp_path
        assert sorted(p.name for p in rank_set.spill_dir.iterdir()) == [
            "rank00000.bsctrace", "rank00001.bsctrace",
        ]

    def test_cleanup_removes_only_run_dir(self, tmp_path):
        marker = tmp_path / "user-file.txt"
        marker.write_text("keep me")
        rank_set = RankSet(2, session_config(), max_workers=2)
        rank_set.run(FACTORIES["stream"], spill_dir=tmp_path)
        run_dir = rank_set.spill_dir
        assert rank_set.cleanup_spill() is True
        assert not run_dir.exists()
        assert marker.exists()
        assert rank_set.spill_dir is None
        # second cleanup is a no-op
        assert rank_set.cleanup_spill() is False

    def test_keep_spill_preserves_traces(self, tmp_path):
        """Without cleanup the spill files stay loadable (--keep-spill)."""
        rank_set = RankSet(2, session_config(seed=9), max_workers=2)
        results = rank_set.run(FACTORIES["stream"], spill_dir=tmp_path)
        from repro.extrae.trace import Trace

        for r in results:
            reloaded = Trace.load(r.summary.path)
            assert reloaded.digest() == r.summary.digest

    def test_serial_run_without_spill_dir_stays_in_memory(self):
        rank_set = RankSet(2, session_config(), max_workers=1)
        results = rank_set.run(FACTORIES["stream"])
        assert rank_set.spill_dir is None
        assert all(r.summary.path is None and r.trace_loaded for r in results)


class TestStreaming:
    def test_ordered_stream_yields_rank_order(self):
        rank_set = RankSet(4, session_config(), max_workers=2)
        ranks = [r.rank for r in
                 rank_set.stream(FACTORIES["stream"], ordered=True)]
        rank_set.cleanup_spill()
        assert ranks == [0, 1, 2, 3]

    def test_unordered_stream_yields_every_rank(self):
        rank_set = RankSet(4, session_config(), max_workers=2)
        ranks = [r.rank for r in rank_set.stream(FACTORIES["stream"])]
        rank_set.cleanup_spill()
        assert sorted(ranks) == [0, 1, 2, 3]

    def test_streamed_results_are_lazy(self):
        """The acceptance criterion: iterating the pooled stream never
        materializes a sample table the caller did not ask for."""
        rank_set = RankSet(3, session_config(), max_workers=2)
        for result in rank_set.stream(FACTORIES["stream"]):
            assert not result.trace_loaded
            assert result.trace.n_samples == result.summary.n_samples
            assert result.trace_loaded
        rank_set.cleanup_spill()

    def test_progress_callback_counts_up(self):
        calls = []
        rank_set = RankSet(3, session_config(), max_workers=2)
        rank_set.run(
            FACTORIES["stream"],
            progress=lambda done, total, s: calls.append((done, total, s.rank)),
        )
        rank_set.cleanup_spill()
        assert [c[0] for c in calls] == [1, 2, 3]
        assert all(c[1] == 3 for c in calls)
        assert sorted(c[2] for c in calls) == [0, 1, 2]

    def test_oversubscription_fewer_workers_than_ranks(self):
        rank_set = RankSet(5, session_config(seed=2), max_workers=2)
        results = rank_set.run(FACTORIES["stream"])
        rank_set.cleanup_spill()
        assert [r.rank for r in results] == [0, 1, 2, 3, 4]


class TestFallbacks:
    def test_unpicklable_factory_reports_reason(self):
        rank_set = RankSet(2, session_config(), max_workers=2)
        results = rank_set.run(lambda rank, n_ranks: _StreamFactory()(rank, n_ranks))
        assert [r.rank for r in results] == [0, 1]
        assert "not picklable" in rank_set.last_fallback_reason

    def test_fallback_reason_resets_on_success(self):
        rank_set = RankSet(2, session_config(), max_workers=2)
        rank_set.run(lambda rank, n_ranks: _StreamFactory()(rank, n_ranks))
        assert rank_set.last_fallback_reason is not None
        rank_set.run(FACTORIES["stream"])
        rank_set.cleanup_spill()
        assert rank_set.last_fallback_reason is None

    def test_dead_worker_rank_is_retried_in_process(self):
        cfg = session_config(seed=6)
        serial = RankSet(2, cfg, max_workers=1).run(FACTORIES["stream"])
        rank_set = RankSet(2, cfg, max_workers=2)
        results = rank_set.run(_DieInWorker())
        rank_set.cleanup_spill()
        assert [r.rank for r in results] == [0, 1]
        assert "died" in rank_set.last_fallback_reason
        # retried ranks are bit-identical to the serial run
        for s, p in zip(serial, results):
            assert s.summary.digest == p.summary.digest


class TestRankSummary:
    def test_summary_is_small_and_picklable(self):
        rank_set = RankSet(2, session_config(), max_workers=2)
        results = rank_set.run(FACTORIES["stream"])
        rank_set.cleanup_spill()
        payload = pickle.dumps(results[0].summary)
        assert len(payload) < 4096
        summary = pickle.loads(payload)
        assert isinstance(summary, RankSummary)
        assert summary.seed == summary.config.seed

    def test_summary_matches_trace(self):
        results = RankSet(2, session_config(seed=3), max_workers=1).run(
            FACTORIES["hpcg"]
        )
        for r in results:
            assert r.summary.n_samples == r.trace.n_samples
            assert r.summary.digest == r.trace.digest()
            assert r.summary.duration_ns == r.trace.duration_ns()


class TestSeedDerivation:
    def test_derive_rank_config_formula(self):
        cfg = session_config(seed=5)
        assert derive_rank_config(cfg, 0).seed == 5 * 1009 + 1
        assert derive_rank_config(cfg, 3).seed == 5 * 1009 + 4
