"""Dominant data streams and their temporal evolution.

The paper's conclusion claims: "The exploration included scan of the
memory access patterns from a time perspective and the identification
of the **most dominant data streams and their temporal evolution along
computing regions**."  This module implements that identification on a
folded report: per data object, the folded sample-rate curve (its
temporal evolution over the iteration), its traffic share, its dominant
data source and per-phase activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.phases import IterationPhases
from repro.extrae.schema import DataSource, MemOp
from repro.folding.report import FoldedReport
from repro.extrae.memalloc import ObjectRecord
from repro.util.tables import format_table

__all__ = ["DataStream", "StreamReport", "identify_streams"]


@dataclass
class DataStream:
    """One data object's folded activity profile.

    Attributes
    ----------
    record:
        The data object.
    share:
        Fraction of all folded samples that hit this object.
    sigma_grid / activity:
        Folded sample-rate curve (samples per unit σ, normalized so it
        integrates to ``share``): the stream's temporal evolution.
    dominant_source:
        The hierarchy level serving most of its sampled accesses.
    load_fraction:
        Loads / (loads + stores) among its samples.
    phase_share:
        Phase label → fraction of the object's samples inside it.
    """

    record: ObjectRecord
    share: float
    sigma_grid: np.ndarray
    activity: np.ndarray
    dominant_source: DataSource
    load_fraction: float
    mean_latency: float
    phase_share: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.record.name

    def active_window(self, level: float = 0.25) -> tuple[float, float]:
        """σ range where the stream's activity exceeds *level* × its peak."""
        peak = self.activity.max()
        if peak <= 0:
            return (0.0, 0.0)
        hot = np.nonzero(self.activity >= level * peak)[0]
        return float(self.sigma_grid[hot[0]]), float(self.sigma_grid[hot[-1]])

    def is_bursty(self, threshold: float = 3.0) -> bool:
        """Peak-to-mean activity ratio above *threshold* (phase-local
        streams like the halo buffers) vs. steady streams (the matrix)."""
        mean = self.activity.mean()
        return bool(mean > 0 and self.activity.max() / mean > threshold)


@dataclass
class StreamReport:
    """All identified streams, dominant first."""

    streams: list[DataStream]
    n_samples: int

    def __iter__(self):
        return iter(self.streams)

    def __len__(self) -> int:
        return len(self.streams)

    def dominant(self, n: int = 5) -> list[DataStream]:
        return self.streams[:n]

    def stream(self, name: str) -> DataStream:
        for s in self.streams:
            if s.name == name:
                return s
        raise KeyError(f"no stream named {name!r}")

    def to_table(self, top: int = 10) -> str:
        rows = []
        for s in self.streams[:top]:
            lo, hi = s.active_window()
            rows.append(
                (
                    s.name,
                    s.record.bytes_user / 1e6,
                    s.share * 100.0,
                    s.dominant_source.pretty,
                    s.load_fraction * 100.0,
                    f"[{lo:.2f}, {hi:.2f}]",
                    "bursty" if s.is_bursty() else "steady",
                )
            )
        return format_table(
            ["stream", "MB", "traffic %", "source", "loads %",
             "active sigma", "shape"],
            rows,
            title="Dominant data streams (folded)",
        )


def identify_streams(
    report: FoldedReport,
    phases: IterationPhases | None = None,
    grid_points: int = 101,
    min_samples: int = 10,
) -> StreamReport:
    """Identify the data streams of a folded report.

    Parameters
    ----------
    report:
        The folded report (addresses already resolved).
    phases:
        Optional phase windows for the per-phase activity split.
    grid_points:
        Resolution of the activity curves.
    min_samples:
        Objects with fewer folded samples are dropped.
    """
    a = report.addresses
    n = a.n
    if n == 0:
        return StreamReport(streams=[], n_samples=0)
    grid = np.linspace(0.0, 1.0, grid_points)
    edges = np.linspace(0.0, 1.0, grid_points + 1)

    streams: list[DataStream] = []
    for idx in np.unique(a.object_index):
        if idx < 0:
            continue
        mask = a.object_index == idx
        count = int(mask.sum())
        if count < min_samples:
            continue
        record = report.registry.records[int(idx)]
        sigma = a.sigma[mask]
        hist, _ = np.histogram(sigma, bins=edges)
        # Normalize: integral over σ equals the traffic share.
        share = count / n
        activity = hist.astype(np.float64) * grid_points / n

        sources = a.source[mask]
        codes, counts = np.unique(sources, return_counts=True)
        dominant = DataSource(int(codes[np.argmax(counts)]))
        loads = int((a.op[mask] == int(MemOp.LOAD)).sum())

        phase_share: dict[str, float] = {}
        if phases is not None:
            for p in phases:
                inside = int(((sigma >= p.lo) & (sigma < p.hi)).sum())
                phase_share[p.label] = inside / count
        streams.append(
            DataStream(
                record=record,
                share=share,
                sigma_grid=grid,
                activity=activity,
                dominant_source=dominant,
                load_fraction=loads / count,
                mean_latency=float(a.latency[mask].mean()),
                phase_share=phase_share,
            )
        )
    streams.sort(key=lambda s: s.share, reverse=True)
    return StreamReport(streams=streams, n_samples=n)
