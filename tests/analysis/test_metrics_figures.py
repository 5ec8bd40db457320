"""Tests for run metrics and the Figure-1 assembly."""

import pytest

from repro.analysis.figures import build_figure1
from repro.analysis.metrics import phase_metrics, run_metrics
from repro.folding.address import AddressBand
from repro.workloads.hpcg.problem import MAP_GROUP_NAME, MATRIX_GROUP_NAME


class TestRunMetrics:
    def test_basic_sanity(self, hpcg_report):
        m = run_metrics(hpcg_report)
        assert m.mips_mean > 0
        assert m.mips_max >= m.mips_mean
        assert 0 < m.ipc_mean < 4.0
        assert m.duration_ns == pytest.approx(
            hpcg_report.instances.mean_duration_ns, rel=0.01
        )

    def test_miss_hierarchy(self, hpcg_report):
        m = run_metrics(hpcg_report)
        assert m.l1d_miss_per_instr >= m.l2_miss_per_instr >= 0
        assert m.l2_miss_per_instr >= m.l3_miss_per_instr - 1e-4

    def test_branches_rate_plausible(self, hpcg_report):
        m = run_metrics(hpcg_report)
        # ~1 branch per nnz over ~4 instr per nnz.
        assert 0.05 < m.branches_per_instr < 0.5

    def test_ipc_at_frequency(self, hpcg_report):
        m = run_metrics(hpcg_report)
        assert m.ipc_at_frequency(2.5e9) == pytest.approx(
            m.mips_mean * 1e6 / 2.5e9
        )

    def test_phase_metrics(self, hpcg_report, hpcg_figure):
        a = hpcg_figure.phases.get("A")
        b = hpcg_figure.phases.get("B")
        ma = phase_metrics(hpcg_report, a)
        mb = phase_metrics(hpcg_report, b)
        assert ma.duration_ns > mb.duration_ns  # SYMGS is 2 sweeps

    def test_bad_window_rejected(self, hpcg_report):
        from repro.analysis.metrics import _window_metrics

        with pytest.raises(ValueError):
            _window_metrics(hpcg_report, 2.0, 3.0)


class TestFigure1:
    def test_legend_groups_present(self, hpcg_figure):
        assert MATRIX_GROUP_NAME in hpcg_figure.legend
        assert MAP_GROUP_NAME in hpcg_figure.legend
        assert hpcg_figure.legend[MATRIX_GROUP_NAME] > hpcg_figure.legend[MAP_GROUP_NAME]

    def test_legend_ratio_matches_paper(self, hpcg_figure):
        """617/89 ≈ 6.9 regardless of problem size (both scale with rows)."""
        ratio = (
            hpcg_figure.legend[MATRIX_GROUP_NAME] / hpcg_figure.legend[MAP_GROUP_NAME]
        )
        assert ratio == pytest.approx(617.0 / 89.0, rel=0.05)

    def test_no_stores_in_matrix(self, hpcg_figure):
        assert hpcg_figure.stores_in_matrix_region == 0

    def test_annotation_bands_attached(self, hpcg_figure):
        labels = {b.label for b in hpcg_figure.bands}
        assert {"bottom", "top", "ghost"} <= labels
        with pytest.raises(ValueError):
            AddressBand("x", 10, 10)

    def test_second_figure_of_one_report_is_the_same(
        self, hpcg_report, hpcg_figure, tmp_path
    ):
        """The bands belong to the figure: building another figure of
        the same report neither adds bands nor changes an export."""
        again = build_figure1(hpcg_report)
        assert again.bands == hpcg_figure.bands
        first = hpcg_figure.export(tmp_path / "first")
        second = again.export(tmp_path / "second")
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
        rows = (tmp_path / "first" / "objects.dat").read_text().splitlines()
        bands = [row.split()[0] for row in rows if row.split()[1] == "band"]
        assert bands == [b.label for b in hpcg_figure.bands]
        # The report's own export lists its objects, not the figure's bands.
        hpcg_report.export_gnuplot(tmp_path / "report")
        rows = (tmp_path / "report" / "objects.dat").read_text().splitlines()
        assert len(rows) == 1 + len(hpcg_report.registry.records)

    def test_render_contains_tables(self, hpcg_figure):
        text = hpcg_figure.render()
        for needle in (
            "E1 — folded phase windows",
            "E4 — effective bandwidth",
            "E6 — allocation groups",
            "MIPS (mean/max)",
        ):
            assert needle in text

    def test_export(self, hpcg_figure, tmp_path):
        written = hpcg_figure.export(tmp_path)
        names = {p.name for p in written}
        assert "figure1.txt" in names
        assert "addresses.dat" in names

    def test_bandwidth_labels(self, hpcg_figure):
        assert {"a1", "a2", "B"} <= set(hpcg_figure.bandwidth_MBps)

    def test_tables_render(self, hpcg_figure):
        assert "ratio" in hpcg_figure.bandwidth_table()
        assert "paper MB" in hpcg_figure.legend_table()
        assert "sigma lo" in hpcg_figure.phase_table()
