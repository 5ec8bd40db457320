"""Figure-1 assembly: the paper's complete evaluation product.

:func:`build_figure1` runs every §III analysis over a folded HPCG
report and returns a :class:`Figure1` bundle holding the three panels'
data plus the derived quantitative results (phase table, bandwidth
table, object legend, read-only check, MIPS/IPC).  The benchmark
harness prints these next to the published values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.bandwidth import phase_bandwidth_MBps
from repro.analysis.metrics import RunMetrics, run_metrics
from repro.analysis.phases import IterationPhases, segment_iteration
from repro.analysis.sweeps import Sweep, detect_sweeps
from repro.folding.address import AddressBand
from repro.folding.report import FoldedReport
from repro.paper import MAP_GROUP_NAME, MATRIX_GROUP_NAME, PAPER_TARGETS
from repro.util.tables import format_table

__all__ = ["Figure1", "build_figure1"]


@dataclass
class Figure1:
    """Everything Figure 1 shows, as data."""

    report: FoldedReport
    phases: IterationPhases
    #: phase label -> detected sweeps of the matrix structure
    sweeps: dict[str, list[Sweep]]
    #: phase label -> effective bandwidth (MB/s)
    bandwidth_MBps: dict[str, float]
    metrics: RunMetrics
    #: object legend: name -> user MB (the figure's two big groups)
    legend: dict[str, float]
    #: sampled stores that hit the matrix (lower) address region
    stores_in_matrix_region: int
    #: the layout bands drawn beside the address panel (the paper's
    #: ghost/bottom/top), from the trace's ``annotations`` metadata
    bands: tuple[AddressBand, ...]
    matrix_span: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def bandwidth_table(self) -> str:
        rows = []
        paper = {
            "a1": PAPER_TARGETS["bandwidth_a1_MBps"],
            "a2": PAPER_TARGETS["bandwidth_a2_MBps"],
            "B": PAPER_TARGETS["bandwidth_B_MBps"],
        }
        for label in ("a1", "a2", "B"):
            if label in self.bandwidth_MBps:
                measured = self.bandwidth_MBps[label]
                rows.append(
                    (label, measured, paper[label], measured / paper[label])
                )
        return format_table(
            ["phase", "measured MB/s", "paper MB/s", "ratio"],
            rows,
            title="E4 — effective bandwidth while traversing the matrix structure",
        )

    def legend_table(self) -> str:
        rows = [
            (
                MATRIX_GROUP_NAME,
                self.legend.get(MATRIX_GROUP_NAME, 0.0),
                PAPER_TARGETS["object_group_124_MB"],
            ),
            (
                MAP_GROUP_NAME,
                self.legend.get(MAP_GROUP_NAME, 0.0),
                PAPER_TARGETS["object_group_205_MB"],
            ),
        ]
        return format_table(
            ["group", "measured MB", "paper MB"],
            rows,
            title="E6 — allocation groups (Figure 1 legend)",
        )

    def phase_table(self) -> str:
        rows = [
            (p.label, p.region, p.lo, p.hi, p.width) for p in self.phases
        ]
        return format_table(
            ["phase", "region", "sigma lo", "sigma hi", "width"],
            rows,
            floatfmt=".4f",
            title="E1 — folded phase windows",
        )

    def render(self) -> str:
        lines = [
            self.report.summary(),
            "",
            self.phase_table(),
            "",
            self.bandwidth_table(),
            "",
            self.legend_table(),
            "",
            f"MIPS (mean/max): {self.metrics.mips_mean:.0f} / "
            f"{self.metrics.mips_max:.0f}  (paper cap: "
            f"{PAPER_TARGETS['mips_cap']:.0f}, IPC "
            f"{PAPER_TARGETS['ipc_at_cap']:.1f} at 2.5 GHz)",
            f"IPC mean: {self.metrics.ipc_mean:.2f}",
            f"sampled stores in the matrix (lower) region during the "
            f"execution phase: {self.stores_in_matrix_region} "
            f"(paper: none — data written in setup)",
        ]
        return "\n".join(lines)

    def export(self, directory: str | Path) -> list[Path]:
        """Write the gnuplot panels plus the rendered summary.

        ``objects.dat`` lists the report's data objects, then the
        figure's :attr:`bands`.
        """
        from repro.folding.export import export_objects_dat

        directory = Path(directory)
        written = self.report.export_gnuplot(directory)
        export_objects_dat(self.report.registry, self.bands, directory)
        summary = directory / "figure1.txt"
        summary.write_text(self.render() + "\n")
        written.append(summary)
        return written


def build_figure1(report: FoldedReport) -> Figure1:
    """Run the full §III analysis over a folded HPCG report."""
    phases = segment_iteration(report.trace, report.instances, report.samples)

    # The layout bands the paper draws beside the address panel.
    annotations = report.trace.metadata.get("annotations", {})
    matrix_span = None
    bands = []
    for label, (lo, hi) in annotations.items():
        if label == "matrix_span":
            matrix_span = (int(lo), int(hi))
        else:
            bands.append(AddressBand(label, int(lo), int(hi)))

    # Sweep detection over the matrix structure per SYMGS/SPMV phase.
    sweeps: dict[str, list[Sweep]] = {}
    try:
        matrix_mask = report.addresses.object_samples(MATRIX_GROUP_NAME)
    except KeyError:
        matrix_mask = None
    if matrix_mask is not None:
        for label in ("a1", "a2", "d1", "d2", "B", "E"):
            try:
                p = phases.get(label)
            except KeyError:
                continue
            sweeps[label] = detect_sweeps(
                report.addresses, matrix_mask, p.lo, p.hi
            )

    # The paper's bandwidth approximation for a1, a2 and B.
    bandwidth: dict[str, float] = {}
    if matrix_mask is not None:
        for label in ("a1", "a2", "B", "d1", "d2", "E"):
            try:
                p = phases.get(label)
                bandwidth[label] = phase_bandwidth_MBps(
                    report, p, MATRIX_GROUP_NAME
                )
            except (KeyError, ValueError):
                continue

    legend = {
        rec.name: rec.bytes_user / 1e6
        for rec in report.registry.records
        if rec.name in (MATRIX_GROUP_NAME, MAP_GROUP_NAME)
    }

    stores_in_matrix = 0
    if matrix_span is not None:
        stores_in_matrix = report.addresses.stores_in_range(*matrix_span)

    return Figure1(
        report=report,
        phases=phases,
        sweeps=sweeps,
        bandwidth_MBps=bandwidth,
        metrics=run_metrics(report),
        legend=legend,
        stores_in_matrix_region=stores_in_matrix,
        bands=tuple(bands),
        matrix_span=matrix_span,
    )
