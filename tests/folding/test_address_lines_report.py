"""Tests for the folded address view, line view and combined report."""

import numpy as np
import pytest

from repro.folding.address import fold_addresses
from repro.folding.detect import instances_from_iterations
from repro.folding.fold import fold_samples
from repro.folding.lines import fold_lines
from repro.folding.report import fold_trace
from repro.memsim.patterns import MemOp
from repro.objects.registry import DataObjectRegistry
from repro.workloads.hpcg.problem import MAP_GROUP_NAME, MATRIX_GROUP_NAME


@pytest.fixture(scope="module")
def folded(hpcg_trace):
    inst = instances_from_iterations(hpcg_trace)
    return fold_samples(hpcg_trace.sample_table(), inst)


@pytest.fixture(scope="module")
def addresses(hpcg_trace, folded):
    return fold_addresses(folded, DataObjectRegistry(hpcg_trace.objects))


class TestFoldedAddresses:
    def test_high_match_rate(self, addresses):
        assert addresses.matched_fraction() > 0.99

    def test_loads_and_stores_present(self, addresses):
        assert addresses.loads.any()
        assert addresses.stores.any()

    def test_no_stores_in_matrix_region(self, hpcg_trace, addresses):
        lo, hi = hpcg_trace.metadata["annotations"]["matrix_span"]
        assert addresses.stores_in_range(lo, hi) == 0
        # ...while loads do hit it.
        assert (addresses.loads & addresses.in_range(lo, hi)).any()

    def test_object_samples_mask(self, addresses):
        mask = addresses.object_samples(MATRIX_GROUP_NAME)
        assert mask.any()
        with pytest.raises(KeyError):
            addresses.object_samples("missing")

    def test_map_group_never_touched_in_execution(self, addresses):
        """The globalToLocal map is only used during setup."""
        mask = addresses.object_samples(MAP_GROUP_NAME)
        assert mask.sum() == 0

    def test_sweep_of(self, addresses):
        matrix = addresses.object_samples(MATRIX_GROUP_NAME)
        early = matrix & (addresses.sigma < 0.08)
        _, slope = addresses.sweep_of(early)
        assert slope > 0  # forward sweep at the iteration start
        with pytest.raises(ValueError):
            addresses.sweep_of(np.zeros(addresses.n, dtype=bool))


class TestFoldedLines:
    def test_line_table_covers_kernels(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        files = {file for _, file, _ in lines.line_table}
        assert "ComputeSYMGS_ref.cpp" in files
        assert "ComputeSPMV_ref.cpp" in files

    def test_forward_backward_lines_differ(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        symgs_lines = {
            ln for _, file, ln in lines.line_table if file == "ComputeSYMGS_ref.cpp"
        }
        assert len(symgs_lines) >= 2  # fwd (84) and bwd (105) loops

    def test_dominant_region_start_is_symgs(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        assert lines.dominant_region(0.01, 0.10) == "ComputeSYMGS_ref"

    def test_region_sequence_contains_phases(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        seq = lines.region_sequence(min_run=10)
        joined = " ".join(seq)
        assert "ComputeSYMGS_ref" in joined
        assert "ComputeSPMV_ref" in joined

    def test_dominant_region_empty_window(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        with pytest.raises(ValueError):
            lines.dominant_region(2.0, 3.0)

    def test_line_of(self, hpcg_trace, folded):
        lines = fold_lines(folded, hpcg_trace)
        fn, file, line = lines.line_of(0)
        assert isinstance(fn, str) and isinstance(line, int)


class TestFoldedReport:
    def test_fold_trace_assembles_everything(self, hpcg_report):
        assert hpcg_report.samples.n > 0
        assert hpcg_report.counters["instructions"].rate.size == 201
        assert hpcg_report.addresses.n == hpcg_report.samples.n
        assert hpcg_report.lines.n == hpcg_report.samples.n

    def test_summary_text(self, hpcg_report):
        text = hpcg_report.summary()
        assert "instances" in text
        assert "hpcg" in text

    def test_export_gnuplot(self, hpcg_report, tmp_path):
        written = hpcg_report.export_gnuplot(tmp_path)
        names = {p.name for p in written}
        assert names == {"codeline.dat", "addresses.dat", "counters.dat", "objects.dat"}
        counters = (tmp_path / "counters.dat").read_text().splitlines()
        assert counters[0].startswith("# sigma mips ipc")
        assert len(counters) == 202
        addresses = (tmp_path / "addresses.dat").read_text().splitlines()
        assert len(addresses) == hpcg_report.addresses.n + 1
        assert MATRIX_GROUP_NAME in (tmp_path / "objects.dat").read_text()

    def test_explicit_instances(self, hpcg_trace):
        from repro.folding.detect import instances_from_regions
        from repro.folding.plan import FoldPlan

        report = FoldPlan.from_trace(
            hpcg_trace, instances=instances_from_regions(hpcg_trace, "ComputeSPMV_ref")
        ).fold()
        # SPMV-only fold: no SYMGS code lines inside.
        files = {file for _, file, _ in report.lines.line_table}
        assert "ComputeSYMGS_ref.cpp" not in files
