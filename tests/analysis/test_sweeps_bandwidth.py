"""Tests for sweep detection and the bandwidth approximation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.bandwidth import phase_bandwidth_MBps
from repro.analysis.phases import Phase, segment_iteration
from repro.analysis.sweeps import Sweep, detect_sweeps
from repro.folding.address import FoldedAddresses
from repro.objects.registry import DataObjectRegistry
from repro.workloads.hpcg.problem import MATRIX_GROUP_NAME


def synthetic_addresses(n=4000, seed=0):
    """Two phases: ascending ramp then descending ramp over 1 MB."""
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.random(n))
    up = sigma < 0.5
    addr = np.where(
        up,
        (sigma / 0.5) * 1e6,
        (1.0 - (sigma - 0.5) / 0.5) * 1e6,
    ).astype(np.uint64)
    return FoldedAddresses(
        sigma=sigma,
        address=addr,
        op=np.zeros(n, dtype=np.int64),
        source=np.full(n, 5, dtype=np.int64),
        latency=np.full(n, 200.0),
        object_index=np.zeros(n, dtype=np.int64),
        registry=DataObjectRegistry(),
    )


class TestDetectSweeps:
    def test_two_ramps(self):
        a = synthetic_addresses()
        sweeps = detect_sweeps(a, bins=32)
        big = [s for s in sweeps if s.n_samples > 500]
        assert len(big) == 2
        assert big[0].direction == 1
        assert big[1].direction == -1
        assert big[0].covers(0, 1_000_000, tolerance=0.15)

    def test_window_restriction(self):
        a = synthetic_addresses()
        sweeps = detect_sweeps(a, sigma_lo=0.0, sigma_hi=0.5, bins=16)
        assert all(s.direction == 1 for s in sweeps if s.n_samples > 100)

    def test_adjacent_parallel_ramps_one_sweep(self):
        """Two parallel ascending ramps of one interleaved object are
        ONE forward sweep when their offset stays below the per-bin
        slope span (the covariance carries the common slope)."""
        rng = np.random.default_rng(1)
        n = 4000
        sigma = np.sort(rng.random(n))
        band = rng.integers(0, 2, n)
        addr = (sigma * 1e6 + band * 1.5e4).astype(np.uint64)
        a = replace(synthetic_addresses(), sigma=sigma, address=addr,
                    op=np.zeros(n, dtype=np.int64))
        sweeps = [s for s in detect_sweeps(a, bins=32) if s.n_samples > 500]
        assert len(sweeps) == 1
        assert sweeps[0].direction == 1

    def test_distant_bands_need_splitting(self):
        """Ramps separated by a gap that dwarfs them drown the raw
        correlation — split_address_bands recovers each ramp."""
        from repro.analysis.sweeps import split_address_bands

        rng = np.random.default_rng(1)
        n = 4000
        sigma = np.sort(rng.random(n))
        band = rng.integers(0, 2, n)
        addr = (sigma * 1e6 + band * 5e7).astype(np.uint64)
        a = replace(synthetic_addresses(), sigma=sigma, address=addr,
                    op=np.zeros(n, dtype=np.int64))
        # Raw detection: directionless (honest, not wrong).
        raw = [s for s in detect_sweeps(a, bins=32) if s.n_samples > 500]
        assert all(s.direction == 0 for s in raw)
        # Band splitting: each band a clean forward sweep.
        bands = split_address_bands(a)
        assert len(bands) == 2
        for m in bands:
            sweeps = [s for s in detect_sweeps(a, mask=m, bins=16)
                      if s.n_samples > 200]
            assert len(sweeps) == 1
            assert sweeps[0].direction == 1

    def test_too_few_samples(self):
        a = synthetic_addresses(n=4)
        assert detect_sweeps(a) == []

    def test_mask(self):
        a = synthetic_addresses()
        none = detect_sweeps(a, mask=np.zeros(a.n, dtype=bool))
        assert none == []

    def test_sweep_properties(self):
        s = Sweep(0.1, 0.3, 1, 0, 900_000, 100)
        assert s.span_bytes == 900_000
        assert s.width == pytest.approx(0.2)
        assert s.covers(0, 1_000_000)
        assert not s.covers(0, 2_000_000)


class TestHpcgSweeps:
    def test_forward_backward_in_A(self, hpcg_report, hpcg_figure):
        sweeps = hpcg_figure.sweeps
        a1 = max(sweeps["a1"], key=lambda s: s.n_samples)
        a2 = max(sweeps["a2"], key=lambda s: s.n_samples)
        assert a1.direction == 1
        assert a2.direction == -1

    def test_sweeps_cover_structure(self, hpcg_figure):
        lo, hi = hpcg_figure.matrix_span
        for label in ("a1", "a2", "B"):
            main = max(hpcg_figure.sweeps[label], key=lambda s: s.n_samples)
            assert main.covers(lo, hi, tolerance=0.15), label

    def test_spmv_is_forward_only(self, hpcg_figure):
        big = [s for s in hpcg_figure.sweeps["B"] if s.n_samples > 100]
        assert all(s.direction == 1 for s in big)


class TestBandwidth:
    def test_hpcg_ordering(self, hpcg_figure):
        """The paper's qualitative result: a1 < a2 < B."""
        bw = hpcg_figure.bandwidth_MBps
        assert bw["a1"] < bw["a2"] < bw["B"]

    def test_spmv_symgs_ratio(self, hpcg_figure):
        """B beats a1 by roughly the paper's 1.53x."""
        ratio = hpcg_figure.bandwidth_MBps["B"] / hpcg_figure.bandwidth_MBps["a1"]
        assert 1.2 < ratio < 2.0

    def test_missing_object_rejected(self, hpcg_report):
        phase = Phase("a1", "r", 0.0, 0.1)
        with pytest.raises(KeyError):
            phase_bandwidth_MBps(hpcg_report, phase, "nope")

    def test_coverage_check(self, hpcg_report):
        phases = segment_iteration(
            hpcg_report.trace, hpcg_report.instances, hpcg_report.samples
        )
        a1 = phases.get("a1")
        # Full coverage passes...
        bw = phase_bandwidth_MBps(
            hpcg_report, a1, MATRIX_GROUP_NAME, require_coverage=True
        )
        assert bw > 0
        # ...a sliver of the phase does not traverse the structure.
        sliver = Phase("x", a1.region, a1.lo, a1.lo + 0.01 * a1.width)
        with pytest.raises(ValueError):
            phase_bandwidth_MBps(
                hpcg_report, sliver, MATRIX_GROUP_NAME, require_coverage=True
            )
