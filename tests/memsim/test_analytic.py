"""Tests for the analytic engine and its segment-LRU residency model."""

import numpy as np
import pytest

from repro.memsim.analytic import AnalyticEngine, SegmentLru, _choice_cdf, _sum
from repro.memsim.cache import CacheConfig
from repro.memsim.datasource import DataSource
from repro.memsim.hierarchy import HierarchyConfig
from repro.memsim.patterns import (
    GatherPattern,
    MemOp,
    RandomPattern,
    SequentialPattern,
)


def tiny_config(prefetch=False):
    return HierarchyConfig(
        levels=(
            CacheConfig("L1D", 1024, 64, 2),
            CacheConfig("L2", 4096, 64, 4),
            CacheConfig("L3", 16 * 1024, 64, 4),
        ),
        enable_prefetch=prefetch,
        tlb=None,
    )


class TestSegmentLru:
    def test_empty_residency_zero(self):
        assert SegmentLru(1024).residency(0, 100) == 0.0

    def test_full_residency_after_insert(self):
        lru = SegmentLru(1024)
        lru.insert(0, 512)
        assert lru.residency(0, 512) == 1.0
        assert lru.residency(0, 1024) == pytest.approx(0.5)

    def test_oversized_forward_sweep_keeps_tail(self):
        lru = SegmentLru(1024)
        lru.insert(0, 10_000, direction=1)
        assert lru.residency(10_000 - 1024, 10_000) == pytest.approx(1.0)
        assert lru.residency(0, 1024) == 0.0

    def test_oversized_backward_sweep_keeps_head(self):
        lru = SegmentLru(1024)
        lru.insert(0, 10_000, direction=-1)
        assert lru.residency(0, 1024) == pytest.approx(1.0)
        assert lru.residency(10_000 - 1024, 10_000) == 0.0

    def test_lru_eviction_order(self):
        lru = SegmentLru(1024)
        lru.insert(0, 512)
        lru.insert(2048, 2048 + 512)
        lru.insert(8192, 8192 + 512)  # exceeds capacity -> evict oldest
        assert lru.residency(0, 512) == 0.0
        assert lru.residency(2048, 2048 + 512) == 1.0
        assert lru.residency(8192, 8192 + 512) == 1.0

    def test_reinsert_overlap_carves(self):
        lru = SegmentLru(4096)
        lru.insert(0, 1024)
        lru.insert(512, 1536)  # overlapping re-insert must not double count
        assert lru.resident_bytes() == pytest.approx(1536)
        assert lru.residency(0, 1536) == pytest.approx(1.0)

    def test_density_weighted_residency(self):
        lru = SegmentLru(10_000)
        lru.insert(0, 1000, density=0.5)
        assert lru.residency(0, 1000) == pytest.approx(0.5)
        assert lru.resident_bytes() == pytest.approx(500)

    def test_flush(self):
        lru = SegmentLru(1024)
        lru.insert(0, 100)
        lru.flush()
        assert lru.residency(0, 100) == 0.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SegmentLru(0)

    def test_capacity_invariant(self):
        rng = np.random.default_rng(0)
        lru = SegmentLru(4096)
        for _ in range(200):
            lo = int(rng.integers(0, 1 << 20))
            span = int(rng.integers(1, 8192))
            lru.insert(lo, lo + span, direction=int(rng.choice([-1, 1])))
            assert lru.resident_bytes() <= 4096 + 1e-6


class TestAnalyticEngine:
    def test_cold_streaming_sweep(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 100_000, 8)  # 800 KB >> 16 KB L3
        r = eng.run_pattern(p)
        lines = 800_000 // 64
        assert r.level_misses["L1D"] == lines
        assert r.level_misses["L3"] == lines
        assert r.dram_lines == lines
        assert sum(r.source_counts.values()) == 100_000

    def test_same_direction_resweep_gets_no_reuse(self):
        """A same-direction re-sweep of a structure far larger than the
        cache self-evicts the tail before reaching it: no reuse (this
        matches LRU physics and the precise engine)."""
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 100_000, 8)  # 800 KB >> 16 KB L3
        r1 = eng.run_pattern(p)
        r2 = eng.run_pattern(p)
        assert r2.level_misses["L3"] == r1.level_misses["L3"]

    def test_usable_residency_direction_semantics(self):
        from repro.memsim.analytic import SegmentLru

        lru = SegmentLru(1024)
        lru.insert(0, 10_000, direction=1)  # forward sweep leaves tail
        # Reversal starts in the tail: full capacity usable.
        assert lru.usable_residency(0, 10_000, -1) == pytest.approx(
            1024 / 10_000, rel=0.01
        )
        # Same direction: the tail is 8976 bytes away; it will be
        # evicted long before the sweep arrives.
        assert lru.usable_residency(0, 10_000, 1) == 0.0
        # No direction: plain coverage.
        assert lru.usable_residency(0, 10_000, 0) == pytest.approx(
            1024 / 10_000, rel=0.01
        )

    def test_backward_after_forward_reuses_tail(self):
        """The backward sweep starts exactly where the forward sweep
        left cached data — the paper's phase-transition effect."""
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        fwd = SequentialPattern(0, 100_000, 8, direction=1)
        bwd = SequentialPattern(0, 100_000, 8, direction=-1)
        eng.run_pattern(fwd)
        r = eng.run_pattern(bwd)
        lines = 800_000 // 64
        # L3 capacity is 16 KiB = 256 lines worth of tail reuse.
        assert r.level_misses["L3"] <= lines - 200

    def test_small_working_set_repeats_hit_l1(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 1000, 8)
        r = eng.run_pattern(p)
        # 7/8 of accesses are same-line repeats -> L1 (or LFB).
        l1ish = r.source_counts.get(DataSource.L1, 0) + r.source_counts.get(
            DataSource.LFB, 0
        )
        assert l1ish == 875

    def test_fits_in_l2_rerun(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 256, 8)  # 2 KiB: fits L2, not L1
        eng.run_pattern(p)
        r = eng.run_pattern(p)
        assert r.level_misses["L2"] == 0
        assert r.level_misses["L1D"] > 0

    def test_sample_first_touch_deterministic_for_seq(self):
        eng = AnalyticEngine(tiny_config(prefetch=False), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 64, 8)
        r = eng.run_pattern(p, sample_offsets=np.array([0, 1, 8, 9]))
        assert r.sample_sources[0] == int(DataSource.DRAM)
        assert r.sample_sources[2] == int(DataSource.DRAM)
        assert r.sample_sources[1] in (int(DataSource.L1), int(DataSource.LFB))

    def test_backward_seq_first_touch_detection(self):
        eng = AnalyticEngine(tiny_config(prefetch=False), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 64, 8, direction=-1)
        # Access 0 touches the highest address = last element of a line:
        # for a descending sweep that's the first touch of its line.
        r = eng.run_pattern(p, sample_offsets=np.array([0, 1]))
        assert r.sample_sources[0] == int(DataSource.DRAM)

    def test_prefetch_coverage_moves_sources_not_misses(self):
        pf = AnalyticEngine(tiny_config(prefetch=True), rng=np.random.default_rng(0))
        nopf = AnalyticEngine(tiny_config(prefetch=False), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 100_000, 8)
        r_pf = pf.run_pattern(p)
        r_nopf = nopf.run_pattern(p)
        assert r_pf.level_misses == r_nopf.level_misses
        assert r_pf.dram_lines == r_nopf.dram_lines
        assert r_pf.source_counts.get(DataSource.DRAM, 0) < r_nopf.source_counts.get(
            DataSource.DRAM, 0
        )

    def test_random_pattern_mostly_misses_when_oversized(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = RandomPattern(0, 1 << 22, 10_000, elem_size=8, seed=1)  # 4 MiB range
        r = eng.run_pattern(p)
        assert r.source_counts.get(DataSource.DRAM, 0) > 9000

    def test_gather_with_small_working_set(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        idx = np.repeat(np.arange(1000), 3)  # each element read 3x nearby
        p = GatherPattern(0, idx, elem_size=8, working_set_hint=2048)
        r = eng.run_pattern(p)
        # Repeats (2/3 of accesses) hit at L2 (ws 2 KiB <= 4 KiB L2).
        assert r.source_counts.get(DataSource.L2, 0) >= 1500

    def test_empty_pattern(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        r = eng.run_pattern(SequentialPattern(0, 0, 8))
        assert r.count == 0
        assert sum(r.source_counts.values()) == 0

    def test_store_pattern_accepted(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 1000, 8, op=MemOp.STORE)
        r = eng.run_pattern(p)
        assert r.count == 1000

    def test_flush_resets_residency(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        p = SequentialPattern(0, 256, 8)
        eng.run_pattern(p)
        eng.flush()
        r = eng.run_pattern(p)
        assert r.level_misses["L3"] == 256 * 8 // 64

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AnalyticEngine(tiny_config(), lfb_fraction=1.5)
        with pytest.raises(ValueError):
            AnalyticEngine(tiny_config(), prefetch_coverage=-0.1)

    def test_source_counts_sum_to_count(self):
        eng = AnalyticEngine(tiny_config(), rng=np.random.default_rng(0))
        for p in [
            SequentialPattern(0, 12_345, 8),
            RandomPattern(0, 1 << 20, 5000, seed=2),
            SequentialPattern(1 << 20, 999, 8, direction=-1),
        ]:
            r = eng.run_pattern(p)
            assert sum(r.source_counts.values()) == pytest.approx(p.count, abs=2)


class TestEngineAgreement:
    """The analytic engine must agree with the precise engine on line
    fetches for streaming patterns (the regime it is designed for)."""

    @pytest.mark.parametrize("direction", [1, -1])
    def test_cold_sweep_line_fetches(self, direction):
        from repro.memsim.hierarchy import PreciseEngine

        cfg = tiny_config(prefetch=True)
        precise = PreciseEngine(cfg)
        analytic = AnalyticEngine(cfg, rng=np.random.default_rng(0))
        p = SequentialPattern(0, 20_000, 8, direction=direction)
        rp = precise.run_pattern(p)
        ra = analytic.run_pattern(p)
        for lvl in ("L1D", "L2", "L3"):
            assert ra.level_misses[lvl] == pytest.approx(
                rp.level_misses[lvl], rel=0.05, abs=8
            )
        assert ra.dram_lines == pytest.approx(rp.dram_lines, rel=0.05, abs=8)


class TestScalarCosting:
    """The scalar helpers give the bits of the NumPy calls they replace."""

    def test_sum_is_numpy_sum_of_short_arrays(self):
        rng = np.random.default_rng(0)
        scales = np.array([1e16, 1.0, 1e-3, 2.0**53, 0.1, 7.0])
        for _ in range(2000):
            n = int(rng.integers(0, 8))
            values = (rng.choice(scales, n) * rng.random(n)).tolist()
            assert _sum(values) == float(np.array(values, dtype=np.float64).sum())
        # Left to right, not compensated: 1e16 + 1.0 rounds the 1.0 away.
        assert _sum([1e16, 1.0, -1e16, 1.0]) == np.array([1e16, 1.0, -1e16, 1.0]).sum()
        assert _sum([1e16, 1.0, -1e16, 1.0]) == 1.0

    def test_cdf_search_is_generator_choice(self):
        """Same draws and same stream position as ``Generator.choice``,
        over 300 seeds and probability vectors with zero entries."""
        for seed in range(300):
            shape = np.random.default_rng(10_000 + seed)
            k = int(shape.integers(2, 5))
            serve = shape.random(k) * (shape.random(k) > 0.3)
            serve[int(shape.integers(k))] += 0.1
            total = _sum(serve.tolist())
            p = [v / total for v in serve.tolist()]
            codes = np.arange(1, k + 1, dtype=np.int64)
            n = int(shape.integers(1, 80))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.choice(codes, size=n, p=np.array(p))
            got = codes[_choice_cdf(p).searchsorted(b.random(n), side="right")]
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
            assert a.random() == b.random(), seed
