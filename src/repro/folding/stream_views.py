"""Streaming the address and line fold directions.

PR 6 streamed the *performance* direction (counter curves) in O(chunk)
memory; this module streams the other two panels of Figure 1 — the
folded address scatter and the source-line track — so a complete
three-direction report fits in O(chunk + summary) memory.

Each direction keeps a different kind of bounded state:

* **Address, exact part** — :class:`AddressAccounting`: per-object,
  per-source and per-op counts plus per-object latency sums.  The
  counts are integer sums, exact in any order; the latency sums add in
  stream order.  Either way the chunked accumulation is bit-identical
  to the resident fold (verified by digest).
* **Address, scatter part** — the full (σ, address) scatter is O(kept
  samples), so it cannot be held exactly.  Two bounded summaries stand
  in for it: a deterministic seeded uniform reservoir
  (:class:`AddressReservoir`, for point rendering) and a fixed
  (address-band × σ-bin) integer density sketch
  (:class:`DensitySketch`, for exact-bin density).  Both are
  chunk-size-invariant by construction: the reservoir keeps the global
  top-``capacity`` samples under a hash-seeded key (Efraimidis–Spirakis
  A-Res), and the sketch is a sum of non-negative integers.  Their
  fidelity against the resident scatter is *measured*, not assumed
  (:func:`measure_address_fidelity`).  Once full, the reservoir reads
  a chunk's keys and copies only the few rows that enter.
* **Lines** — per-chunk ``np.unique(callstack_id)`` feeds a persistent
  :class:`~repro.folding.lines.LineTableBuilder`, and the per-sample
  points collapse into fixed (line × σ-bin) and (region × σ-bin) count
  matrices.  ``dominant_region`` and ``region_sequence`` work off the
  matrices exactly as off the resident points for phase-shaped
  workloads (exact for bin-aligned windows).

The driver lives in :func:`repro.folding.stream.stream_fold_trace`
(``directions=("counters", "address", "lines")``); this module holds
the per-direction accumulators and the combined
:class:`StreamedReport` product.  Every integer count is tallied with
one ``np.bincount`` per chunk (:func:`_tally`); only the float sums,
whose bits depend on their addition order, use ``np.add.at``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.folding.address import AddressQueries, FoldedAddresses
from repro.folding.lines import FoldedLines, LineTableBuilder
from repro.folding.spec import STREAMED_REPORT
from repro.objects.registry import DataObjectRegistry

__all__ = [
    "AddressAccounting",
    "AddressFidelity",
    "AddressReservoir",
    "AddressStream",
    "DensitySketch",
    "LINE_SIGMA_BINS",
    "LineStream",
    "RESERVOIR_CAPACITY",
    "SKETCH_BANDS",
    "SKETCH_SIGMA_BINS",
    "StreamedAddresses",
    "StreamedLines",
    "StreamedReport",
    "lines_from_folded",
    "measure_address_fidelity",
    "sketch_from_scatter",
]

#: σ resolution of the streamed line/region count matrices.  4096 bins
#: keep windows at multiples of 1/4096 (0.25, 0.5, …) exactly
#: bin-aligned, so ``dominant_region`` over such windows is exact.
LINE_SIGMA_BINS = 4096
#: σ resolution of the address density sketch.
SKETCH_SIGMA_BINS = 512
#: Address-band resolution of the density sketch.
SKETCH_BANDS = 256
#: Default reservoir size — enough to render a dense scatter panel.
RESERVOIR_CAPACITY = 65536

_N_SOURCE_CODES = int(max(DataSource)) + 1
_N_OP_CODES = int(max(MemOp)) + 1

# splitmix64 (same finalizer idiom as repro.simproc.spe).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Full splitmix64 of a uint64 array (gamma step + finalizer)."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(_SPLITMIX_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * _SPLITMIX_1
    x = (x ^ (x >> np.uint64(27))) * _SPLITMIX_2
    return x ^ (x >> np.uint64(31))


def _sigma_bin(sigma: np.ndarray, bins: int) -> np.ndarray:
    """The σ-bin of each σ in [0, 1) over *bins* equal bins."""
    return np.minimum(
        (np.asarray(sigma, dtype=np.float64) * bins).astype(np.int64), bins - 1
    )


def _tally(
    counts: np.ndarray, rows: np.ndarray, cols: np.ndarray | None = None
) -> None:
    """Add one to the integer *counts* at each ``rows`` (1-D) or
    ``(rows, cols)`` (2-D) index: ``np.add.at(counts, index, 1)`` as one
    ``np.bincount`` of the row-major flat index.  Integer sums are exact
    in any order, so the two agree bit for bit.  The σ-bin and band
    columns are clamped in range; a row past the end raises."""
    flat = rows if cols is None else rows * counts.shape[1] + cols
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)


def _key_order(table: list) -> np.ndarray:
    """Row indices of *table* in sorted-key order."""
    return np.array(sorted(range(len(table)), key=table.__getitem__), dtype=np.int64)


def _hash_arrays(*arrays: np.ndarray) -> "hashlib._Hash":
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h


# ---------------------------------------------------------------------------
# Address direction: exact accounting.
# ---------------------------------------------------------------------------


@dataclass
class AddressAccounting:
    """Exact additive accounting of the streamed address samples.

    Per-object rows (index = registry record index, trailing row =
    unmatched), per-source and per-op counts, and per-object latency
    sums.  Every field is a plain sum in stream order, so feeding the
    samples chunk by chunk replays the identical addition sequence as
    the resident one-shot fold — the digests match bit for bit.
    """

    #: samples resolved to each object; last row collects unmatched.
    object_counts: np.ndarray
    object_loads: np.ndarray
    object_stores: np.ndarray
    object_latency: np.ndarray
    #: samples per :class:`~repro.extrae.schema.DataSource` code.
    source_counts: np.ndarray
    #: samples per :class:`~repro.extrae.schema.MemOp` code.
    op_counts: np.ndarray
    n: int = 0

    @classmethod
    def empty(cls, n_objects: int) -> "AddressAccounting":
        rows = n_objects + 1
        return cls(
            object_counts=np.zeros(rows, dtype=np.int64),
            object_loads=np.zeros(rows, dtype=np.int64),
            object_stores=np.zeros(rows, dtype=np.int64),
            object_latency=np.zeros(rows, dtype=np.float64),
            source_counts=np.zeros(_N_SOURCE_CODES, dtype=np.int64),
            op_counts=np.zeros(_N_OP_CODES, dtype=np.int64),
        )

    @classmethod
    def from_addresses(cls, addresses: FoldedAddresses) -> "AddressAccounting":
        """The resident reference: account a whole folded scatter."""
        acc = cls.empty(len(addresses.registry))
        acc.add(
            addresses.op,
            addresses.source,
            addresses.latency,
            addresses.object_index,
        )
        return acc

    def add(
        self,
        op: np.ndarray,
        source: np.ndarray,
        latency: np.ndarray,
        object_index: np.ndarray,
    ) -> None:
        """Account one chunk of samples (order-exact accumulation)."""
        op = np.asarray(op, dtype=np.int64)
        source = np.asarray(source, dtype=np.int64)
        latency = np.asarray(latency, dtype=np.float64)
        obj = np.asarray(object_index, dtype=np.int64)
        unmatched_row = self.object_counts.size - 1
        slot = np.where(obj >= 0, obj, unmatched_row)
        _tally(self.object_counts, slot)
        _tally(self.object_loads, slot[op == int(MemOp.LOAD)])
        _tally(self.object_stores, slot[op == int(MemOp.STORE)])
        # A float sum depends on its addition order: np.add.at adds in
        # element order, so chunk after chunk replays the resident sum.
        np.add.at(self.object_latency, slot, latency)
        _tally(self.source_counts, source)
        _tally(self.op_counts, op)
        self.n += int(op.size)

    def matched_fraction(self) -> float:
        """Exact fraction of samples resolved to a registered object."""
        if not self.n:
            return 0.0
        return float((self.n - self.object_counts[-1]) / self.n)

    def digest(self) -> str:
        """Hex SHA-256 over every accumulator (and the sample count)."""
        h = _hash_arrays(
            self.object_counts,
            self.object_loads,
            self.object_stores,
            self.object_latency,
            self.source_counts,
            self.op_counts,
        )
        h.update(np.int64(self.n).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Address direction: bounded scatter summaries.
# ---------------------------------------------------------------------------

_COLUMN_DTYPES = {
    "sigma": np.float64,
    "address": np.uint64,
    "op": np.int64,
    "source": np.int64,
    "latency": np.float64,
    "object_index": np.int64,
}


class AddressReservoir:
    """Deterministic uniform reservoir over the (σ, address) scatter.

    Efraimidis–Spirakis A-Res with unit weights and the randomness
    replaced by a splitmix64 hash of ``(seed, global kept index)``:
    sample *i* gets ``u_i = ((h_i >> 11) + 1) · 2⁻⁵³ ∈ (0, 1]`` and key
    ``ln(u_i)``; the reservoir holds the ``capacity`` samples with the
    largest keys.  Because the key depends only on the seed and the
    sample's global index, the surviving set is the global
    top-``capacity`` regardless of how the stream was chunked —
    bit-identical across chunk sizes — and a uniform sample, faithful
    to point density.

    Once the reservoir is full, a chunk's rows whose key is below the
    smallest kept key cannot enter, so only the rest are pooled with the
    kept points.  The pool keeps its top ``capacity`` by (key
    descending, global index ascending): ``np.partition`` finds the
    capacity-th largest key, and the rows at or above it are lexsorted
    only when ties there leave more than ``capacity``.  The points live
    in fixed slots: a survivor keeps its slot and an entering row takes
    an evicted point's, so only the entering rows are gathered and cast.
    """

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = int(capacity)
        self.seed = int(seed)
        self._held = 0
        self._keys = np.empty(self.capacity, dtype=np.float64)
        self._index = np.empty(self.capacity, dtype=np.int64)
        self._cols = {
            name: np.empty(self.capacity, dtype=dtype)
            for name, dtype in _COLUMN_DTYPES.items()
        }

    def _keys_for(self, index: np.ndarray) -> np.ndarray:
        base = (self.seed * _SPLITMIX_GAMMA) % (1 << 64)
        h = _mix64(np.uint64(base) + index.astype(np.uint64))
        return np.log(((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53)

    def add(self, start_index: int, **columns: np.ndarray) -> None:
        """Offer a chunk of kept samples (global indices start at
        *start_index*); keeps the global top-``capacity`` by key."""
        n = int(np.asarray(columns["sigma"]).size)
        if not n:
            return
        held = self._held
        keys = self._keys_for(start_index + np.arange(n, dtype=np.int64))
        if held == self.capacity:
            # Full: only a row whose key reaches the smallest kept key
            # can enter.  ``>=`` keeps a tied row in the pool, so the
            # tie is settled by index whatever order the chunks come in.
            rows = np.flatnonzero(keys >= self._keys.min())
        else:
            rows = np.arange(n)
        keep = self._top(
            np.concatenate([self._keys[:held], keys[rows]]),
            np.concatenate([self._index[:held], start_index + rows]),
        )
        stay = np.searchsorted(keep, held)
        enter = rows[keep[stay:] - held]
        # Slots [0, len(keep)) end up held: the survivors' and, for the
        # entering rows, the evicted points' and the never-used ones.
        free = np.ones(keep.size, dtype=bool)
        free[keep[:stay]] = False
        slots = np.flatnonzero(free)
        self._keys[slots] = keys[enter]
        self._index[slots] = start_index + enter
        for name, col in self._cols.items():
            col[slots] = np.asarray(columns[name])[enter]
        self._held = keep.size

    def _top(self, keys: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Ascending positions of the top ``capacity`` by (key
        descending, global index ascending): a pure function of (seed,
        indices)."""
        if keys.size <= self.capacity:
            return np.arange(keys.size)
        kth = keys.size - self.capacity
        top = np.flatnonzero(keys >= np.partition(keys, kth)[kth])
        if top.size > self.capacity:
            top = np.sort(top[np.lexsort((index[top], -keys[top]))[: self.capacity]])
        return top

    def result(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The surviving samples in stream order: ``(kept_index,
        columns)``."""
        held = self._held
        order = np.argsort(self._index[:held], kind="stable")
        return self._index[:held][order], {
            name: col[:held][order] for name, col in self._cols.items()
        }


@dataclass
class DensitySketch:
    """Fixed (address-band × σ-bin) integer density of the scatter.

    ``counts[b, s]`` is the exact number of kept samples whose address
    falls in band *b* of ``[lo, hi]`` and whose σ falls in bin *s* of
    ``[0, 1)``.  Integer sums are associative, so the sketch is exactly
    chunk-invariant *and* exactly equal to binning the resident scatter
    — its density error against the resident fold is identically zero;
    the rendering trade-off is purely the fixed bin resolution.
    """

    lo: int
    hi: int
    counts: np.ndarray

    @classmethod
    def empty(
        cls,
        lo: int,
        hi: int,
        bands: int = SKETCH_BANDS,
        sigma_bins: int = SKETCH_SIGMA_BINS,
    ) -> "DensitySketch":
        if hi < lo:
            raise ValueError("empty address span")
        return cls(
            lo=int(lo),
            hi=int(hi),
            counts=np.zeros((bands, sigma_bins), dtype=np.int64),
        )

    @property
    def bands(self) -> int:
        return int(self.counts.shape[0])

    @property
    def sigma_bins(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def band_of(self, address: np.ndarray) -> np.ndarray:
        """The address band of each address."""
        address = np.asarray(address).astype(np.uint64)
        span = np.uint64(self.hi - self.lo + 1)
        # addresses stay < 2^48 and bands ≤ 2^16, so the product fits
        # comfortably in uint64 — exact integer band index.
        band = ((address - np.uint64(self.lo)) * np.uint64(self.bands)) // span
        return np.minimum(band.astype(np.int64), self.bands - 1)

    def add(self, sigma: np.ndarray, address: np.ndarray) -> None:
        if not np.asarray(sigma).size:
            return
        _tally(
            self.counts, self.band_of(address), _sigma_bin(sigma, self.sigma_bins)
        )

    def band_edges(self) -> np.ndarray:
        """The ``bands + 1`` address edges of the sketch rows."""
        span = self.hi - self.lo + 1
        return self.lo + np.arange(self.bands + 1, dtype=np.float64) * (
            span / self.bands
        )

    def band_density(self) -> np.ndarray:
        """Fraction of samples per address band (sums to 1 when any)."""
        total = self.counts.sum()
        if not total:
            return np.zeros(self.bands, dtype=np.float64)
        return self.counts.sum(axis=1) / total

    def digest(self) -> str:
        h = _hash_arrays(self.counts)
        h.update(np.int64(self.lo).tobytes())
        h.update(np.int64(self.hi).tobytes())
        return h.hexdigest()


def sketch_from_scatter(
    addresses: FoldedAddresses,
    lo: int,
    hi: int,
    bands: int = SKETCH_BANDS,
    sigma_bins: int = SKETCH_SIGMA_BINS,
) -> DensitySketch:
    """The resident reference: sketch a whole folded scatter over the
    same span/resolution as a streamed sketch."""
    sketch = DensitySketch.empty(lo, hi, bands, sigma_bins)
    sketch.add(addresses.sigma, addresses.address)
    return sketch


# ---------------------------------------------------------------------------
# Address direction: streamed product.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamedAddresses(AddressQueries):
    """The streamed stand-in for :class:`FoldedAddresses`.

    The *exact* per-object/source/op/latency accounting plus the two
    bounded scatter summaries.  The reservoir columns mirror the
    resident scatter's columns (same names, same dtypes) so rendering
    and export code can treat either; the point queries it shares with
    the resident scatter (:class:`~repro.folding.address.AddressQueries`:
    ``sweep_of``, ``stores_in_range``, …) run on the reservoir
    subsample here and are approximate, while counts via
    :attr:`accounting` stay exact.
    """

    accounting: AddressAccounting
    registry: DataObjectRegistry
    sketch: DensitySketch
    #: reservoir columns, in stream order
    sigma: np.ndarray
    address: np.ndarray
    op: np.ndarray
    source: np.ndarray
    latency: np.ndarray
    object_index: np.ndarray
    #: global kept index of each reservoir point
    kept_index: np.ndarray
    capacity: int
    seed: int

    @property
    def n(self) -> int:
        """Reservoir points held (≤ :attr:`capacity`)."""
        return int(self.sigma.size)

    @property
    def n_folded(self) -> int:
        """Exact number of streamed samples (accounting side)."""
        return self.accounting.n

    def matched_fraction(self) -> float:
        """Exact matched fraction, from the accounting (not the
        reservoir)."""
        return self.accounting.matched_fraction()

    def digest(self) -> str:
        """Hex SHA-256 over accounting, sketch and reservoir state."""
        h = _hash_arrays(
            self.sigma,
            self.address,
            self.op,
            self.source,
            self.latency,
            self.object_index,
            self.kept_index,
        )
        h.update(self.accounting.digest().encode())
        h.update(self.sketch.digest().encode())
        # The reservoir was once optionally latency-weighted; the
        # weighting stays in the hash so digests keep their values.
        h.update(f"{self.capacity}:{self.seed}:uniform".encode())
        return h.hexdigest()


class AddressStream:
    """Chunkwise accumulator for the streamed address direction.

    *addr_range* is the ``(min, max)`` address of the samples to come —
    the span of the density sketch, which the prologue pass measures
    (:attr:`~repro.folding.stream.StreamPrologue.addr_range`).
    """

    def __init__(
        self,
        registry: DataObjectRegistry,
        addr_range: tuple[int, int],
        *,
        capacity: int = RESERVOIR_CAPACITY,
        seed: int = 0,
        bands: int = SKETCH_BANDS,
        sigma_bins: int = SKETCH_SIGMA_BINS,
    ) -> None:
        self.registry = registry
        self.accounting = AddressAccounting.empty(len(registry))
        self.reservoir = AddressReservoir(capacity, seed)
        self.sketch = DensitySketch.empty(
            addr_range[0], addr_range[1], bands, sigma_bins
        )
        self._kept = 0

    def add(
        self,
        sigma: np.ndarray,
        address: np.ndarray,
        op: np.ndarray,
        source: np.ndarray,
        latency: np.ndarray,
    ) -> None:
        """Fold one chunk of kept samples (stream order)."""
        address = np.asarray(address).astype(np.uint64)
        # One bulk resolve per chunk; the registry caches its interval
        # tables, so the per-chunk cost is the lookup alone.
        object_index = self.registry.resolve_bulk(address)
        self.accounting.add(op, source, latency, object_index)
        self.sketch.add(sigma, address)
        self.reservoir.add(
            self._kept,
            sigma=sigma,
            address=address,
            op=op,
            source=source,
            latency=latency,
            object_index=object_index,
        )
        self._kept += int(np.asarray(sigma).size)

    def result(self) -> StreamedAddresses:
        kept_index, cols = self.reservoir.result()
        return StreamedAddresses(
            accounting=self.accounting,
            registry=self.registry,
            sketch=self.sketch,
            kept_index=kept_index,
            capacity=self.reservoir.capacity,
            seed=self.reservoir.seed,
            **cols,
        )


# ---------------------------------------------------------------------------
# Line direction.
# ---------------------------------------------------------------------------


@dataclass
class StreamedLines:
    """The streamed stand-in for :class:`FoldedLines`.

    Fixed (line × σ-bin) and (region × σ-bin) count matrices over the
    same tables a resident fold would build.  Windowed queries
    (``dominant_region``) are exact whenever the window is bin-aligned
    (any multiple of ``1 / sigma_bins``); ``region_sequence`` walks the
    bins in σ order and reproduces the resident sequence for
    phase-shaped workloads, where regions occupy contiguous σ spans.
    """

    line_table: list[tuple[str, str, int]]
    region_table: list[str]
    #: ``line_counts[l, s]`` — samples of line *l* in σ-bin *s*
    line_counts: np.ndarray
    region_counts: np.ndarray

    @property
    def sigma_bins(self) -> int:
        return int(self.region_counts.shape[1])

    @property
    def n(self) -> int:
        return int(self.region_counts.sum())

    def dominant_region(self, lo: float, hi: float) -> str:
        """Most common region among samples with σ in [lo, hi)."""
        bins = self.sigma_bins
        b0 = max(int(np.floor(lo * bins)), 0)
        b1 = min(max(int(np.ceil(hi * bins)), b0 + 1), bins)
        counts = self.region_counts[:, b0:b1].sum(axis=1)
        if not counts.any():
            raise ValueError(f"no samples in window [{lo}, {hi})")
        return self.region_table[int(np.argmax(counts))]

    def region_sequence(self, min_run: int = 5) -> list[str]:
        """Regions in σ order, short runs dropped — the streamed
        counterpart of :meth:`FoldedLines.region_sequence`.

        Each σ bin is attributed to its dominant region; a run's length
        is the dominant region's sample count across the run's bins.
        """
        dom = np.argmax(self.region_counts, axis=0)
        occupied = self.region_counts.sum(axis=0) > 0
        out: list[str] = []
        run_id, run_len = None, 0

        def close() -> None:
            if run_id is not None and run_len >= min_run:
                name = self.region_table[int(run_id)]
                if not out or out[-1] != name:
                    out.append(name)

        for b in range(self.sigma_bins):
            if not occupied[b]:
                continue
            r = dom[b]
            if r == run_id:
                run_len += int(self.region_counts[r, b])
            else:
                close()
                run_id, run_len = r, int(self.region_counts[r, b])
        close()
        return out

    def digest(self) -> str:
        """Hex SHA-256, canonicalized by sorting rows by table key.

        The resident fold interns ids in sorted-unique order and the
        streamed fold in first-appearance order; sorting the matrix
        rows by their (function, file, line) / region-name keys makes
        the digest order-independent, so the two sides compare equal
        iff the counts agree.
        """
        line_order = _key_order(self.line_table)
        region_order = _key_order(self.region_table)
        h = _hash_arrays(
            self.line_counts[line_order], self.region_counts[region_order]
        )
        for i in line_order:
            h.update(repr(self.line_table[int(i)]).encode())
        for i in region_order:
            h.update(self.region_table[int(i)].encode())
        return h.hexdigest()


class LineStream:
    """Chunkwise accumulator for the streamed line direction."""

    def __init__(self, resolver, sigma_bins: int = LINE_SIGMA_BINS) -> None:
        self.builder = LineTableBuilder(resolver)
        self.sigma_bins = int(sigma_bins)
        self._line_counts = np.zeros((0, self.sigma_bins), dtype=np.int64)
        self._region_counts = np.zeros((0, self.sigma_bins), dtype=np.int64)

    def _grown(self, counts: np.ndarray, rows: int) -> np.ndarray:
        if counts.shape[0] >= rows:
            return counts
        grown = np.zeros((rows, self.sigma_bins), dtype=np.int64)
        grown[: counts.shape[0]] = counts
        return grown

    def add(self, sigma: np.ndarray, callstack_id: np.ndarray) -> None:
        """Fold one chunk of kept samples (stream order)."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if not sigma.size:
            return
        cs_ids = np.asarray(callstack_id).astype(np.int64)
        # Intern this chunk's unseen ids in FIRST-APPEARANCE order (not
        # sorted-id order): an id's first appearance in the time-ordered
        # stream is a fixed position regardless of chunking, so the
        # table order is chunk-invariant.
        uniq, first, inverse = np.unique(
            cs_ids, return_index=True, return_inverse=True
        )
        self.builder.intern(uniq[np.argsort(first, kind="stable")])
        line_id, region_id = self.builder.ids_of(uniq, inverse)
        self._line_counts = self._grown(
            self._line_counts, len(self.builder.line_table)
        )
        self._region_counts = self._grown(
            self._region_counts, len(self.builder.region_table)
        )
        sbin = _sigma_bin(sigma, self.sigma_bins)
        _tally(self._line_counts, line_id, sbin)
        _tally(self._region_counts, region_id, sbin)

    def result(self) -> StreamedLines:
        return StreamedLines(
            line_table=list(self.builder.line_table),
            region_table=list(self.builder.region_table),
            line_counts=self._line_counts.copy(),
            region_counts=self._region_counts.copy(),
        )


def lines_from_folded(
    lines: FoldedLines, sigma_bins: int = LINE_SIGMA_BINS
) -> StreamedLines:
    """The resident reference: bin a whole resident line fold into the
    streamed matrices (same σ resolution)."""
    line_counts = np.zeros((len(lines.line_table), sigma_bins), dtype=np.int64)
    region_counts = np.zeros(
        (len(lines.region_table), sigma_bins), dtype=np.int64
    )
    if lines.n:
        sbin = _sigma_bin(lines.sigma, sigma_bins)
        _tally(line_counts, lines.line_id, sbin)
        _tally(region_counts, lines.region_id, sbin)
    return StreamedLines(
        line_table=list(lines.line_table),
        region_table=list(lines.region_table),
        line_counts=line_counts,
        region_counts=region_counts,
    )


# ---------------------------------------------------------------------------
# The combined product.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamedReport:
    """All streamed fold directions of one trace.

    ``performance`` is the PR-6 :class:`~repro.folding.stream
    .StreamedFold` (bit-identical counter curves); ``addresses`` and
    ``lines`` are the bounded summaries of the other two panels, or
    ``None`` when their direction was not requested.
    """

    performance: object
    addresses: StreamedAddresses | None
    lines: StreamedLines | None
    directions: tuple[str, ...]

    fold_path: ClassVar[str] = STREAMED_REPORT

    @property
    def counters(self):
        return self.performance.counters

    @property
    def instances(self):
        return self.performance.instances

    @property
    def registry(self) -> DataObjectRegistry | None:
        return self.addresses.registry if self.addresses is not None else None

    @property
    def n_folded(self) -> int:
        return int(self.performance.n_folded)

    def digest(self) -> str:
        """Hex SHA-256 over every streamed direction."""
        from repro.folding.stream import fold_digest

        h = hashlib.sha256()
        h.update(fold_digest(self.performance).encode())
        if self.addresses is not None:
            h.update(self.addresses.digest().encode())
        if self.lines is not None:
            h.update(self.lines.digest().encode())
        return h.hexdigest()

    def summary(self) -> str:
        lines = [self.performance.summary()]
        if self.addresses is not None:
            a = self.addresses
            lines.append(
                f"addresses: {a.n_folded} samples "
                f"({a.matched_fraction():.1%} matched), "
                f"reservoir {a.n}/{a.capacity} (uniform), "
                f"sketch {a.sketch.bands}x{a.sketch.sigma_bins}"
            )
        if self.lines is not None:
            li = self.lines
            lines.append(
                f"lines: {len(li.line_table)} lines, "
                f"{len(li.region_table)} regions over "
                f"{li.sigma_bins} sigma bins"
            )
        return "\n".join(lines)

    def export_gnuplot(self, directory: str | Path) -> list[Path]:
        """Write the streamed panels as whitespace-separated files.

        * ``counters.dat`` — identical to the resident export
        * ``addresses.dat`` — the reservoir points, resident columns
        * ``address_density.dat`` — the sketch (band lo/hi × σ-bin)
        * ``objects.dat`` — the registry's records
        * ``codeline_density.dat`` — per-line σ-bin counts

        Every file goes through the block writer of
        :mod:`repro.folding.export`.
        """
        from repro.folding import export

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = [export.export_counters_dat(self.counters, directory)]
        a = self.addresses
        if a is not None:
            written.append(export.export_addresses_dat(a, a.registry, directory))
            written.append(export.export_address_density_dat(a.sketch, directory))
            written.append(export.export_objects_dat(a.registry, (), directory))
        if self.lines is not None:
            written.append(export.export_codeline_density_dat(self.lines, directory))
        return written


# ---------------------------------------------------------------------------
# Fidelity measurement.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddressFidelity:
    """Measured fidelity of a streamed address view against the
    resident :class:`FoldedAddresses` of the same trace."""

    #: exact streamed matched fraction (accounting side)
    matched_fraction_streamed: float
    matched_fraction_resident: float
    #: |streamed − resident| — zero because the accounting is exact
    matched_fraction_error: float
    #: max abs per-band density error of the *sketch* — identically
    #: zero by construction (integer binning of the same samples)
    sketch_band_error: float
    #: max abs per-band density error of the *reservoir* subsample —
    #: the real (measured) approximation cost of point rendering
    reservoir_band_error: float
    #: True iff the streamed accounting digest equals the resident's
    accounting_exact: bool
    reservoir_points: int
    resident_points: int


def measure_address_fidelity(
    streamed: StreamedAddresses, resident: FoldedAddresses
) -> AddressFidelity:
    """Measure the streamed address view's fidelity bounds."""
    sketch = streamed.sketch
    resident_sketch = sketch_from_scatter(
        resident, sketch.lo, sketch.hi, sketch.bands, sketch.sigma_bins
    )
    resident_density = resident_sketch.band_density()
    sketch_err = float(
        np.abs(sketch.band_density() - resident_density).max()
    )
    if streamed.n:
        reservoir_density = (
            np.bincount(sketch.band_of(streamed.address), minlength=sketch.bands)
            / streamed.n
        )
    else:
        reservoir_density = np.zeros(sketch.bands)
    reservoir_err = float(np.abs(reservoir_density - resident_density).max())
    mf_s = streamed.matched_fraction()
    mf_r = resident.matched_fraction()
    return AddressFidelity(
        matched_fraction_streamed=mf_s,
        matched_fraction_resident=mf_r,
        matched_fraction_error=abs(mf_s - mf_r),
        sketch_band_error=sketch_err,
        reservoir_band_error=reservoir_err,
        accounting_exact=(
            streamed.accounting.digest()
            == AddressAccounting.from_addresses(resident).digest()
        ),
        reservoir_points=streamed.n,
        resident_points=resident.n,
    )
