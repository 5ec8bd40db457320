"""Access-cost (latency) breakdowns.

§I of the paper situates the work against tools that report "the most
referenced variables or the highest latency accesses" (HPCToolkit,
dmem_advisor, VTune).  This module provides that complementary view on
our traces — per-data-source and per-object cost statistics plus the
top-cost samples — so the folded exploration and the classic hot-list
workflow can be compared on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.index import group_rows
from repro.extrae.schema import DataSource
from repro.extrae.trace import SampleTable, Trace
from repro.objects.registry import DataObjectRegistry
from repro.util.tables import format_table

__all__ = ["LatencyBreakdown", "latency_breakdown", "top_cost_samples"]


@dataclass(frozen=True)
class SourceCost:
    """Latency statistics of one data source."""

    source: DataSource
    count: int
    mean: float
    p50: float
    p95: float
    #: share of the total sampled access cost attributed to this source
    cost_share: float


@dataclass(frozen=True)
class ObjectCost:
    """Latency statistics of one data object."""

    name: str
    count: int
    mean: float
    cost_share: float


@dataclass
class LatencyBreakdown:
    """Cost statistics over a sample table."""

    n_samples: int
    total_cost_cycles: float
    by_source: list[SourceCost] = field(default_factory=list)
    by_object: list[ObjectCost] = field(default_factory=list)

    def source(self, src: DataSource) -> SourceCost:
        for s in self.by_source:
            if s.source == src:
                return s
        raise KeyError(f"no samples from {src!r}")

    def to_table(self, top_objects: int = 8) -> str:
        rows = [
            (s.source.pretty, s.count, s.mean, s.p50, s.p95, s.cost_share * 100.0)
            for s in self.by_source
        ]
        text = format_table(
            ["source", "samples", "mean cyc", "p50 cyc", "p95 cyc", "cost %"],
            rows,
            title="Access cost by data source",
        )
        if self.by_object:
            rows = [
                (o.name, o.count, o.mean, o.cost_share * 100.0)
                for o in self.by_object[:top_objects]
            ]
            text += "\n\n" + format_table(
                ["object", "samples", "mean cyc", "cost %"],
                rows,
                title="Access cost by data object (highest first)",
            )
        return text


def latency_breakdown(
    trace_or_table: Trace | SampleTable,
    registry: DataObjectRegistry | None = None,
) -> LatencyBreakdown:
    """Break the sampled access cost down by source and object.

    Each sample stands for one sampling period's worth of accesses, so
    sample-cost sums are proportional to real stall contributions.
    """
    if isinstance(trace_or_table, Trace):
        table = trace_or_table.sample_table()
        if registry is None:
            registry = DataObjectRegistry(trace_or_table.objects)
    else:
        table = trace_or_table
    lat = table.latency.astype(np.float64)
    total = float(lat.sum())
    out = LatencyBreakdown(n_samples=table.n, total_cost_cycles=total)
    if table.n == 0:
        return out

    # One grouping pass per key column instead of a full-table boolean
    # mask per distinct value; each group's rows are ascending, so the
    # float reductions see the same elements in the same order.
    for code, rows in zip(*group_rows(table.source)):
        values = lat[rows]
        out.by_source.append(
            SourceCost(
                source=DataSource(int(code)),
                count=int(rows.size),
                mean=float(values.mean()),
                p50=float(np.median(values)),
                p95=float(np.percentile(values, 95)),
                cost_share=float(values.sum()) / total if total else 0.0,
            )
        )
    out.by_source.sort(key=lambda s: s.cost_share, reverse=True)

    if registry is not None and len(registry):
        idx = registry.resolve_bulk(table.address)
        for rec_i, rows in zip(*group_rows(idx)):
            values = lat[rows]
            name = (
                registry.records[int(rec_i)].name if rec_i >= 0 else "(unmatched)"
            )
            out.by_object.append(
                ObjectCost(
                    name=name,
                    count=int(rows.size),
                    mean=float(values.mean()),
                    cost_share=float(values.sum()) / total if total else 0.0,
                )
            )
        out.by_object.sort(key=lambda o: o.cost_share, reverse=True)
    return out


def top_cost_samples(table: SampleTable, n: int = 20) -> SampleTable:
    """The *n* highest-cost samples — the classic hot-access list."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    order = np.argsort(table.latency)[::-1][:n]
    return table.select(order)
