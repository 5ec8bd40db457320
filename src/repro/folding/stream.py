"""Streaming folds: bounded-memory chunkwise folding of huge traces.

``fold_trace`` holds the consolidated sample table (and the per-sample
folded views derived from it) resident — O(trace) parent memory, which
caps foldable workload sizes well below what the v2 container can
*store*.  This module folds the **performance direction** of the report
chunk by chunk instead, with O(chunk) parent memory, so trace size
becomes disk-bound rather than RAM-bound.

Why the result can be bit-identical to the resident fold
--------------------------------------------------------

The batched counter fit factors through a
:class:`~repro.util.pava.BinnedDesign` whose binned form is built from
per-bin sums Σw and Σw·y — *additive* over samples.  Three details make
the chunkwise accumulation reproduce the resident sums to the last bit:

* **Bin edges** depend only on the σ span of the kept samples
  (:func:`~repro.util.pava.design_bin_edges`), and whether the design
  bins at all depends only on the kept-sample *count* — both are scalar
  reductions a cheap prologue pass computes exactly (min/max/count are
  order-independent).
* **Σw·y order.**  Float addition is not associative, so summing
  per-chunk ``bincount`` partials would drift.  Instead every chunk is
  accumulated with ``np.add.at``, which adds element-by-element in
  array order — concatenated over chunks this is the *same sequence of
  additions per bin* as one ``bincount`` over the resident array, hence
  the same bits.  Σw needs no such care: the fold's weights are all
  ones, and integer-valued float sums are exact.
* **Boundary interpolation.**  Per-instance counter totals come from
  ``np.interp`` at instance boundaries.  ``np.interp`` at a point *b*
  only reads the bracketing pair (the rightmost sample at or before
  *b* and its successor), so the prologue resolves each boundary from
  a two-chunk window — the previous chunk's last row plus the current
  chunk — the first time the stream passes it, reproducing the
  whole-trace interpolation exactly (and independently of the chunk
  size).  The shared bookkeeping
  (:class:`~repro.folding.fold.CounterBounds`) then guarantees
  identical ``totals``/``degenerate`` flags and fractions, and the
  shared :func:`~repro.folding.fold.project` the same σ.

The final :func:`~repro.util.pava.fit_design` runs on the accumulated
design through the same :func:`~repro.folding.model.fit_counter_curves`
path as the resident fold — digest-identical output, checked by the
chunk-invariance property tests and the ``stream`` benchmark scenario.

The driver on top of the :class:`StreamingFold` accumulator is
:func:`stream_fold_trace` — the exact two-pass fold of a finished trace
(pass 1: instance boundaries from the event sidecar + scalar prologue
reductions; pass 2: accumulate), sharing
:class:`~repro.folding.cache.FoldCache` entries with resident folds
under unchanged keys.  Its ``on_snapshot`` hook reports partial curves
while pass 2 runs (``bsc-memtools-fold --live-report-every``).  The
passes themselves are :func:`stream_passes`, which returns the
finished accumulator before its fit: the fit point is an argument of
:meth:`StreamingFold.result`, so one accumulated design serves any
(``grid_points``, ``bandwidth``), and the service's fold worker keeps
it to refit new fit points of the same trace.

The streamed product is no longer counters-only: with
``directions=("counters", "address", "lines")`` the driver also feeds
the bounded per-direction accumulators of
:mod:`repro.folding.stream_views` — an exact additive address
accounting plus a deterministic reservoir and density sketch for the
scatter, and fixed (line × σ-bin) count matrices for the source-line
track — and returns a three-direction
:class:`~repro.folding.stream_views.StreamedReport` in
O(chunk + summary) parent memory.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS
from repro.extrae.trace import Trace
from repro.folding.detect import FoldInstances, fold_instances
from repro.folding.fold import CounterBounds, project
from repro.folding.model import FoldedCounters, fit_counter_curves
from repro.folding.spec import STREAMED, STREAMED_REPORT, FoldSpec, serves
from repro.folding.stream_views import AddressStream, LineStream, StreamedReport
from repro.objects.registry import DataObjectRegistry
from repro.util.pava import (
    BIN_THRESHOLD,
    DESIGN_BINS,
    BinnedDesign,
    assign_design_bins,
    binned_design_from_sums,
    design_bin_edges,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "StreamPrologue",
    "StreamedFold",
    "StreamedReport",
    "StreamingFold",
    "build_prologue",
    "fold_digest",
    "stream_fold_trace",
    "stream_passes",
]

#: Default chunk size, re-exported from the container reader.
from repro.extrae.storage import DEFAULT_CHUNK_ROWS  # noqa: E402


def _getter(chunk):
    """The column lookup of a chunk (a mapping or a ``SampleTable``)."""
    return chunk.column if hasattr(chunk, "column") else chunk.__getitem__


def _chunk_columns(chunk, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Float column arrays of a chunk."""
    getter = _getter(chunk)
    return {
        name: np.asarray(getter(name), dtype=np.float64) for name in names
    }


# ---------------------------------------------------------------------------
# Pass 1: the prologue — everything the accumulator must know up front.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamPrologue:
    """What one cheap streaming pass learns about a trace.

    Holds each counter's per-instance boundary bookkeeping, the kept
    sample count, and the σ span — the only whole-trace facts the
    chunkwise design accumulation needs.  Everything here is O(number
    of instances), never O(samples).
    """

    instances: FoldInstances
    counters: tuple[str, ...]
    #: rows streamed (kept or not)
    n_rows: int
    #: rows inside any instance — the design's sample count
    n_kept: int
    #: (σ min, σ max) over kept samples; ``None`` when nothing is kept
    span: tuple[float, float] | None
    #: whether the design pre-aggregates onto the fixed binning
    binned: bool
    #: counter name -> boundary readings, totals, flags and denominators
    bounds: dict[str, CounterBounds]
    #: (min, max) address over kept samples — only when the pass was
    #: asked to track it (the streamed address direction's sketch span)
    addr_range: tuple[int, int] | None = None


def build_prologue(
    chunks,
    instances: FoldInstances,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    *,
    track_address: bool = False,
) -> StreamPrologue:
    """Stream *chunks* once, resolving boundaries and scalar reductions.

    *chunks* yields time-ordered column mappings carrying ``time_ns``
    plus every counter in *counters*.  Each instance boundary is
    interpolated from a window of the previous chunk's last row plus
    the current chunk, the first time the stream strictly passes it —
    bit-identical to ``np.interp`` over the whole series, whatever the
    chunking (see the module docstring).

    With ``track_address`` the chunks must also carry an ``address``
    column, and the kept-sample address min/max (the density-sketch
    span, another exact scalar reduction) is recorded in
    :attr:`StreamPrologue.addr_range`.
    """
    n_inst = instances.n
    edges = np.concatenate([instances.starts_ns, instances.ends_ns])
    bvals = {name: np.zeros(edges.size, dtype=np.float64) for name in counters}
    pending = np.ones(edges.size, dtype=bool)
    prev_t: np.ndarray | None = None
    prev_v: dict[str, np.ndarray] = {}
    n_rows = 0
    n_kept = 0
    smin, smax = math.inf, -math.inf
    amin, amax = None, None

    for chunk in chunks:
        cols = _chunk_columns(chunk, ("time_ns", *counters))
        t = cols["time_ns"]
        if t.size == 0:
            continue
        if (np.diff(t) < 0.0).any() or (
            prev_t is not None and t[0] < prev_t[0]
        ):
            raise ValueError("sample chunks must arrive in time order")
        inside, _, sigma = project(t, instances)
        k = int(sigma.size)
        if k:
            smin = min(smin, float(sigma.min()))
            smax = max(smax, float(sigma.max()))
            n_kept += k
            if track_address:
                kept = np.asarray(_getter(chunk)("address"))[inside]
                lo, hi = int(kept.min()), int(kept.max())
                amin = lo if amin is None else min(amin, lo)
                amax = hi if amax is None else max(amax, hi)
        resolve = pending & (edges < t[-1])
        if resolve.any():
            if prev_t is None:
                tw = t
                windows = {name: cols[name] for name in counters}
            else:
                tw = np.concatenate([prev_t, t])
                windows = {
                    name: np.concatenate([prev_v[name], cols[name]])
                    for name in counters
                }
            at = edges[resolve]
            for name in counters:
                bvals[name][resolve] = np.interp(at, tw, windows[name])
            pending &= ~resolve
        prev_t = t[-1:].copy()
        prev_v = {name: cols[name][-1:].copy() for name in counters}
        n_rows += int(t.size)

    if pending.any() and prev_t is not None:
        # Boundaries at or past the last sample read the last value,
        # exactly as whole-series np.interp extrapolates on the right.
        for name in counters:
            bvals[name][pending] = prev_v[name][0]
    # (With zero rows every boundary stays 0.0 — matching fold_samples.)

    return StreamPrologue(
        instances=instances,
        counters=tuple(counters),
        n_rows=n_rows,
        n_kept=n_kept,
        span=(smin, smax) if n_kept else None,
        binned=n_kept > BIN_THRESHOLD,
        bounds={
            name: CounterBounds(
                bvals[name][:n_inst].copy(), bvals[name][n_inst:].copy()
            )
            for name in counters
        },
        addr_range=(amin, amax) if amin is not None else None,
    )


# ---------------------------------------------------------------------------
# Pass 2: the accumulator.
# ---------------------------------------------------------------------------


class StreamingFold:
    """Chunkwise design accumulator for the exact streaming fold.

    Feed time-ordered sample chunks through :meth:`add_chunk`; the
    design sums grow in place (O(bins) memory, plus O(kept) only in the
    small-trace raw regime where the resident fit would not bin
    either).  :meth:`result` fits the accumulated design at one
    (``grid_points``, ``bandwidth``) point — bit-identical to the
    resident ``fold_trace`` counters at that point when the prologue
    described the same stream — and a finished accumulator fits any
    number of points, the way
    :meth:`FoldPlan.fold <repro.folding.plan.FoldPlan.fold>` does.
    :meth:`snapshot` fits the partial design at any point for
    progress-style reporting.
    """

    def __init__(self, prologue: StreamPrologue) -> None:
        if prologue.n_kept == 0:
            raise ValueError("cannot fold counters without samples")
        self.prologue = prologue
        k = len(prologue.counters)
        if prologue.binned:
            self._edges = design_bin_edges(*prologue.span)
            self._acc_w = np.zeros(DESIGN_BINS, dtype=np.float64)
            self._acc_wy = np.zeros((k, DESIGN_BINS), dtype=np.float64)
            self._sigma_parts = self._frac_parts = None
        else:
            self._edges = self._acc_w = self._acc_wy = None
            self._sigma_parts: list[np.ndarray] = []
            self._frac_parts: list[list[np.ndarray]] = [[] for _ in range(k)]
        self._last_t: float | None = None
        self.n_folded = 0
        self.n_chunks = 0

    def add_chunk(self, chunk) -> tuple[np.ndarray, np.ndarray]:
        """Fold one time-ordered chunk in.

        Returns the chunk's projection ``(inside, sigma)``: the mask of
        its rows inside an instance and their σ, so the other
        directions of the same pass need not project it again.
        """
        p = self.prologue
        cols = _chunk_columns(chunk, ("time_ns", *p.counters))
        t = cols["time_ns"]
        self.n_chunks += 1
        if t.size:
            if self._last_t is not None and t[0] < self._last_t:
                raise ValueError("sample chunks must arrive in time order")
            self._last_t = float(t[-1])
        inside, ik, sigma = project(t, p.instances)
        k = int(sigma.size)
        if k == 0:
            return inside, sigma
        which = (
            assign_design_bins(sigma, self._edges) if p.binned else None
        )
        for row, name in enumerate(p.counters):
            frac = p.bounds[name].fractions(cols[name][inside], ik)
            if p.binned:
                # np.add.at adds in element order, so chunk after chunk
                # this replays the exact addition sequence one bincount
                # over the resident array would perform per bin.
                np.add.at(self._acc_wy[row], which, frac)
            else:
                self._frac_parts[row].append(frac)
        if p.binned:
            self._acc_w += np.bincount(which, minlength=DESIGN_BINS)
        else:
            self._sigma_parts.append(sigma)
        self.n_folded += k
        return inside, sigma

    # -- outputs -----------------------------------------------------------
    def design(self) -> BinnedDesign:
        """The design accumulated so far."""
        if self.n_folded == 0:
            raise ValueError("cannot fold counters without samples")
        if self.prologue.binned:
            return binned_design_from_sums(
                self._edges, self._acc_w, self._acc_wy
            )
        x = np.concatenate(self._sigma_parts)
        Y = np.stack([np.concatenate(parts) for parts in self._frac_parts])
        return BinnedDesign(x=x, w=np.ones_like(x), Y=Y)

    def snapshot(
        self, grid_points: int = 201, bandwidth: float = 0.015
    ) -> FoldedCounters:
        """Partial curves over the chunks folded so far."""
        p = self.prologue
        return fit_counter_curves(
            self.design(),
            grid_points=grid_points,
            bandwidth=bandwidth,
            counters=p.counters,
            totals_mean={
                name: float(p.bounds[name].totals.mean()) for name in p.counters
            },
            duration_ns=p.instances.mean_duration_ns,
        )

    def result(
        self, grid_points: int = 201, bandwidth: float = 0.015
    ) -> "StreamedFold":
        """The fold at one fit point, after the full stream was folded in."""
        p = self.prologue
        if self.n_folded != p.n_kept:
            raise ValueError(
                f"stream folded {self.n_folded} kept samples, prologue saw "
                f"{p.n_kept} — passes must consume the same chunks"
            )
        return StreamedFold(
            instances=p.instances,
            counters=self.snapshot(grid_points, bandwidth),
            totals={name: b.totals for name, b in p.bounds.items()},
            degenerate={name: b.degenerate for name, b in p.bounds.items()},
            n_folded=self.n_folded,
        )


# ---------------------------------------------------------------------------
# The streamed product.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamedFold:
    """The counters-only fold a streaming pass produces.

    Carries exactly what the resident
    :class:`~repro.folding.report.FoldedReport` knows about the
    performance direction — fitted curves, per-instance totals and
    degenerate flags, instance set — without the O(trace) sample views.
    :func:`fold_digest` compares the two shapes directly.  Like every
    fold product it is a frozen value of (trace, spec): how a pass was
    chunked is not part of it, so a cache hit reads the same whichever
    run stored it.
    """

    instances: FoldInstances
    counters: FoldedCounters
    totals: dict[str, np.ndarray]
    degenerate: dict[str, np.ndarray]
    #: samples that fell inside an instance and entered the design
    n_folded: int

    fold_path: ClassVar[str] = STREAMED

    def digest(self) -> str:
        return fold_digest(self)

    def summary(self) -> str:
        return "\n".join([
            f"Streamed fold over {self.instances.n} instances "
            f"of {self.instances.name!r}",
            f"  mean instance duration: "
            f"{self.instances.mean_duration_ns / 1e6:.3f} ms",
            f"  samples folded: {self.n_folded}",
        ])

    def export_gnuplot(self, directory: str | Path) -> list[Path]:
        """Write the performance panel (``counters.dat``) only."""
        from repro.folding.export import export_counters_dat

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [export_counters_dat(self.counters, directory)]


def fold_digest(fold) -> str:
    """Content digest of a fold's performance direction (hex SHA-256).

    Accepts any fold product — a :class:`StreamedFold`, a resident
    :class:`~repro.folding.report.FoldedReport` or an
    :class:`~repro.folding.extrapolate.ExtrapolatedFold`: hashes the
    fitted curves, the kept-sample count, the instance intervals, and
    the per-instance totals/degenerate flags.  A streamed fold is
    correct iff this matches the resident fold of the same trace bit
    for bit.
    """
    h = hashlib.sha256()
    h.update(fold.counters.digest().encode())
    h.update(np.int64(fold.n_folded).tobytes())
    h.update(
        np.asarray(fold.instances.intervals, dtype=np.float64).tobytes()
    )
    for name in sorted(fold.totals):
        h.update(name.encode())
        h.update(
            np.ascontiguousarray(fold.totals[name], dtype=np.float64).tobytes()
        )
        h.update(
            np.asarray(fold.degenerate[name], dtype=bool)
            .astype(np.uint8)
            .tobytes()
        )
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Exact two-pass driver.
# ---------------------------------------------------------------------------


def stream_fold_trace(
    source: Trace | str | Path,
    spec: FoldSpec | None = None,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    cache=None,
    report_every: int | None = None,
    on_snapshot=None,
    **fields,
) -> StreamedFold | StreamedReport:
    """Fold a trace chunk by chunk — exact, two passes, O(chunk) memory.

    Pass 1 builds the instance set from the event sidecar (events are
    O(markers), never O(samples)) and streams ``time_ns`` plus the
    counter columns once to resolve instance-boundary readings, the
    kept-sample count and the σ span.  Pass 2 streams the same columns
    again and accumulates the design.  The result's curves, totals and
    degenerate flags are bit-identical to the resident
    :func:`~repro.folding.report.fold_trace` at the same parameters.
    The product depends on (trace, spec) alone: it always folds
    :data:`~repro.extrae.schema.SAMPLE_COUNTERS`, resolves addresses
    against the trace's own object records (as the resident fold plan
    does), and builds the bounded summaries with the
    :mod:`~repro.folding.stream_views` constants — ``RESERVOIR_CAPACITY``
    uniform reservoir points, seed 0, ``LINE_SIGMA_BINS`` line bins —
    which the spec's cache key records.  Other reservoir settings are
    an :class:`~repro.folding.stream_views.AddressStream` concern.

    Parameters
    ----------
    source:
        A :class:`~repro.extrae.trace.Trace` or a path to a saved
        container.  Passing a path keeps the trace lazy: only the
        sidecar and O(chunk) column slices are ever resident.
    spec / fields:
        The :class:`~repro.folding.spec.FoldSpec` to fold (always
        streamed), with keyword *fields* overriding single spec fields
        — e.g. ``grid_points``, ``bandwidth``, ``prune_tolerance`` or
        ``directions``.  ``directions`` ``None`` (or ``("counters",)``)
        keeps the counters-only :class:`StreamedFold`; any superset —
        up to ``("counters", "address", "lines")`` — returns a
        :class:`~repro.folding.stream_views.StreamedReport` whose
        extra directions were accumulated in the same pass 2, still in
        O(chunk + summary) memory.
    chunk_rows:
        Rows per streamed chunk.  Not part of the cache key: the
        products are chunk-size-invariant, so any chunking serves any
        other.
    cache:
        Optional :class:`~repro.folding.cache.FoldCache`.  For the
        counters-only fold, keys are identical to the resident fold's,
        so a trace folded resident serves streamed requests (a
        resident hit hands out the streamed fold it contains, its
        :attr:`~repro.folding.report.FoldedReport.performance`; a
        streamed entry is a miss for the resident path, which
        overwrites it with the full report).  Multi-direction streamed
        reports are keyed under ``kind="streamed"`` — their
        address/line products are bounded summaries, not the resident
        views, so they must never alias a resident report.
    report_every:
        Emit a partial-curves snapshot to *on_snapshot* every this many
        chunks of the accumulation pass.
    on_snapshot:
        ``callable(FoldedCounters)`` for the periodic snapshots.
    """
    spec = replace(spec or FoldSpec(), streaming=True, **fields)
    trace = source if isinstance(source, Trace) else Trace.load(source)
    key = None
    if cache is not None:
        key = cache.key(trace.digest(), spec)
        hit = cache.get(key)
        if hit is not None and serves(hit.fold_path, spec.path):
            return hit if hit.fold_path == spec.path else hit.performance
    acc, addr_stream, line_stream = stream_passes(
        trace,
        spec,
        chunk_rows=chunk_rows,
        report_every=report_every,
        on_snapshot=on_snapshot,
    )
    result = acc.result(spec.grid_points, spec.bandwidth)
    if spec.path == STREAMED_REPORT:
        result = StreamedReport(
            performance=result,
            addresses=addr_stream.result() if addr_stream is not None else None,
            lines=line_stream.result() if line_stream is not None else None,
            directions=spec.directions,
        )
    if key is not None:
        cache.put(key, result)
    return result


def stream_passes(
    trace: Trace,
    spec: FoldSpec,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    report_every: int | None = None,
    on_snapshot=None,
) -> tuple[StreamingFold, AddressStream | None, LineStream | None]:
    """Both passes of the streamed fold *spec* describes, before its fit.

    Returns the finished accumulator, whose :meth:`StreamingFold.result`
    fits any (``grid_points``, ``bandwidth``) point without reading the
    trace again, and the address and line streams of the spec's other
    directions (``None`` where the spec does not ask for one).  The
    accumulator holds no view of the trace's columns, so it stays valid
    after the container is closed.  *spec*'s fit point only shapes the
    *on_snapshot* partial curves; :func:`stream_fold_trace` documents
    the other arguments.
    """
    dirs = spec.directions or ()
    want_address = "address" in dirs
    instances = fold_instances(trace, spec.prune_tolerance)
    names = ("time_ns", *SAMPLE_COUNTERS)
    pass1_names = names + (("address",) if want_address else ())
    prologue = build_prologue(
        trace.iter_sample_chunks(pass1_names, chunk_rows),
        instances,
        SAMPLE_COUNTERS,
        track_address=want_address,
    )
    acc = StreamingFold(prologue)
    addr_stream = None
    line_stream = None
    extras: tuple[str, ...] = ()
    if want_address:
        addr_stream = AddressStream(
            DataObjectRegistry(trace.objects), prologue.addr_range
        )
        extras += ("address", "op", "source", "latency")
    if "lines" in dirs:
        line_stream = LineStream(trace.callstack)
        extras += ("callstack_id",)
    for chunk in trace.iter_sample_chunks(names + extras, chunk_rows):
        inside, sigma = acc.add_chunk(chunk)
        if extras and sigma.size:
            getter = _getter(chunk)
            if addr_stream is not None:
                addr_stream.add(
                    sigma,
                    np.asarray(getter("address"))[inside],
                    np.asarray(getter("op"))[inside],
                    np.asarray(getter("source"))[inside],
                    np.asarray(getter("latency"))[inside],
                )
            if line_stream is not None:
                line_stream.add(
                    sigma, np.asarray(getter("callstack_id"))[inside]
                )
        if (
            report_every
            and on_snapshot is not None
            and acc.n_chunks % report_every == 0
            and acc.n_folded
        ):
            on_snapshot(acc.snapshot(spec.grid_points, spec.bandwidth))
    return acc, addr_stream, line_stream
