"""The folded address-space view — this paper's headline extension.

Each retained memory sample becomes a point ``(σ, address)`` carrying
its operation (load/store), data source, access latency and — once
resolved — its data object.  This is the middle panel of Figure 1:
address ramps reveal sweep direction, black (store) points reveal
which regions are written, and object annotations name the streams.
The view is a value of the fold; the labelled bands a figure draws
beside it (:class:`AddressBand`) belong to the figure
(:class:`~repro.analysis.figures.Figure1`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import MemOp
from repro.folding.fold import FoldedSamples
from repro.objects.registry import DataObjectRegistry

__all__ = ["AddressBand", "AddressQueries", "FoldedAddresses", "fold_addresses"]


@dataclass(frozen=True)
class AddressBand:
    """A labelled address range shown alongside the scatter (object
    extents, halo annotations like the paper's ghost/bottom/top)."""

    label: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError(f"band {self.label!r} is empty")


class AddressQueries:
    """Point queries over a scatter's ``sigma``/``address``/``op``/
    ``object_index`` columns and its ``registry``.

    Shared by the resident :class:`FoldedAddresses` and the streamed
    :class:`~repro.folding.stream_views.StreamedAddresses`, whose
    points are its reservoir sample.
    """

    @property
    def loads(self) -> np.ndarray:
        return self.op == int(MemOp.LOAD)

    @property
    def stores(self) -> np.ndarray:
        return self.op == int(MemOp.STORE)

    def in_range(self, lo: int, hi: int) -> np.ndarray:
        """Mask of samples whose address falls in ``[lo, hi)``."""
        return (self.address >= lo) & (self.address < hi)

    def stores_in_range(self, lo: int, hi: int) -> int:
        """Number of sampled stores within an address range — the
        paper's 'no stores in the lower part' check."""
        return int((self.stores & self.in_range(lo, hi)).sum())

    def object_samples(self, name: str) -> np.ndarray:
        """Mask of samples resolved to the object called *name*.

        Resolved through the registry's cached name→index map
        (O(1) after the first query) instead of scanning the records.
        """
        return self.object_index == self.registry.index_of(name)

    def sweep_of(self, mask: np.ndarray) -> tuple[float, float]:
        """Linear fit ``address ≈ a + b·σ`` over the masked samples;
        returns (intercept, slope).  Positive slope = forward sweep."""
        if mask.sum() < 2:
            raise ValueError("need at least two samples to fit a sweep")
        s = self.sigma[mask]
        a = self.address[mask].astype(np.float64)
        slope, intercept = np.polyfit(s, a, 1)
        return float(intercept), float(slope)


@dataclass(frozen=True)
class FoldedAddresses(AddressQueries):
    """The folded address scatter, one row per folded sample."""

    sigma: np.ndarray
    address: np.ndarray
    op: np.ndarray
    source: np.ndarray
    latency: np.ndarray
    #: resolved object index (into ``registry.records``), -1 unmatched
    object_index: np.ndarray
    registry: DataObjectRegistry

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    def matched_fraction(self) -> float:
        return float((self.object_index >= 0).mean()) if self.n else 0.0


def fold_addresses(
    folded: FoldedSamples, registry: DataObjectRegistry
) -> FoldedAddresses:
    """Build the folded address view and resolve every sample."""
    table = folded.table
    return FoldedAddresses(
        sigma=folded.sigma,
        address=table.address,
        op=table.op.astype(np.int64),
        source=table.source.astype(np.int64),
        latency=table.latency.astype(np.float64),
        object_index=registry.resolve_bulk(table.address),
        registry=registry,
    )
