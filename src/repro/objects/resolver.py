"""Matching sampled references to data objects.

Implements the tool-side analysis of §III's preliminary observation:
given a trace's samples and its object registry, how many PEBS
references resolve to a known object, and how is traffic distributed
over objects?  The per-object usage includes load/store splits and
latency statistics, which is what lets the analyst see that e.g. a
region of the address space is only read during the execution phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.index import group_rows
from repro.extrae.memalloc import ObjectRecord
from repro.extrae.schema import DataSource, MemOp
from repro.extrae.trace import Trace
from repro.objects.registry import DataObjectRegistry
from repro.util.tables import format_table

__all__ = ["ObjectUsage", "ResolutionReport", "resolve_trace"]


@dataclass
class ObjectUsage:
    """Sample-derived usage statistics of one data object."""

    record: ObjectRecord
    n_samples: int = 0
    n_loads: int = 0
    n_stores: int = 0
    mean_latency: float = 0.0
    source_counts: dict[DataSource, int] = field(default_factory=dict)

    @property
    def read_only(self) -> bool:
        """No sampled store touched this object."""
        return self.n_stores == 0 and self.n_loads > 0


@dataclass
class ResolutionReport:
    """Outcome of resolving a trace's samples against its objects."""

    n_samples: int
    n_matched: int
    usages: list[ObjectUsage]
    #: per-sample record index, -1 for unmatched (aligned with the
    #: trace's time-sorted sample table)
    object_index: np.ndarray = field(repr=False, default=None)

    @property
    def matched_fraction(self) -> float:
        return self.n_matched / self.n_samples if self.n_samples else 0.0

    @property
    def unmatched_fraction(self) -> float:
        return 1.0 - self.matched_fraction if self.n_samples else 0.0

    def usage_for(self, name: str) -> ObjectUsage:
        by_name = self.__dict__.get("_by_name")
        if by_name is None:
            # First occurrence wins, like the linear scan this replaces.
            by_name = {}
            for usage in self.usages:
                by_name.setdefault(usage.record.name, usage)
            self._by_name = by_name
        try:
            return by_name[name]
        except KeyError:
            raise KeyError(f"no sampled object named {name!r}") from None

    def to_table(self, top: int = 15) -> str:
        """The paper-style object table: name, size, traffic split."""
        rows = []
        ranked = sorted(self.usages, key=lambda u: u.n_samples, reverse=True)[:top]
        for u in ranked:
            rows.append(
                (
                    u.record.name,
                    u.record.kind,
                    u.record.bytes_user / 1e6,
                    u.n_samples,
                    u.n_loads,
                    u.n_stores,
                    u.mean_latency,
                    u.read_only,
                )
            )
        return format_table(
            ["object", "kind", "MB", "samples", "loads", "stores",
             "mean lat (cyc)", "read-only"],
            rows,
            title="Sampled references by data object",
        )


def resolve_trace(
    trace: Trace, registry: DataObjectRegistry | None = None
) -> ResolutionReport:
    """Resolve every sample of *trace* to a data object.

    Parameters
    ----------
    trace:
        The trace; its samples and (by default) its object records.
    registry:
        Override the registry, e.g. to compare matching before/after
        grouping with the same samples.
    """
    registry = registry if registry is not None else DataObjectRegistry(trace.objects)
    table = trace.sample_table()
    idx = registry.resolve_bulk(table.address)
    matched = idx >= 0
    n_matched = int(np.count_nonzero(matched))

    # All integer aggregates come from single bincount passes over the
    # whole table (idx shifted by one so -1/unmatched lands in bin 0,
    # sliced off).  The op and source splits fold into the same scheme:
    # op via two masked bincounts, source via one bincount over the
    # combined (record, source) key.
    n_records = len(registry.records)
    idx1 = idx.astype(np.int64) + 1
    n_per_record = np.bincount(idx1, minlength=n_records + 1)[1:]
    load_counts = np.bincount(
        idx1[table.op == int(MemOp.LOAD)], minlength=n_records + 1
    )[1:]
    store_counts = np.bincount(
        idx1[table.op == int(MemOp.STORE)], minlength=n_records + 1
    )[1:]
    source = table.source.astype(np.int64)
    n_sources = int(source.max()) + 1 if source.size else 1
    source_counts = np.bincount(
        idx1 * n_sources + source, minlength=(n_records + 1) * n_sources
    ).reshape(n_records + 1, n_sources)[1:]

    # Latency means use the grouped row indices (ascending within each
    # record, exactly the rows the old boolean mask selected) so the
    # float reduction visits the same elements in the same order.
    latency = table.latency
    usages: list[ObjectUsage] = []
    for rec_i, rows in zip(*group_rows(idx)):
        if rec_i < 0:
            continue
        rec_i = int(rec_i)
        counts: dict[DataSource, int] = {
            DataSource(code): int(source_counts[rec_i, code])
            for code in np.nonzero(source_counts[rec_i])[0]
        }
        lats = latency[rows]
        usages.append(
            ObjectUsage(
                record=registry.records[rec_i],
                n_samples=int(n_per_record[rec_i]),
                n_loads=int(load_counts[rec_i]),
                n_stores=int(store_counts[rec_i]),
                mean_latency=float(lats.mean()) if lats.size else 0.0,
                source_counts=counts,
            )
        )
    usages.sort(key=lambda u: u.n_samples, reverse=True)
    return ResolutionReport(
        n_samples=table.n,
        n_matched=n_matched,
        usages=usages,
        object_index=idx,
    )
