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
  size).  The shared clamp
  (:func:`~repro.folding.fold.boundary_increments`) then guarantees
  identical ``totals``/``degenerate`` flags.

The final :func:`~repro.util.pava.fit_design` runs on the accumulated
design through the same :func:`~repro.folding.model.fit_counter_curves`
path as the resident fold — digest-identical output, checked by the
chunk-invariance property tests and the ``stream`` benchmark scenario.

Two drivers sit on top of the :class:`StreamingFold` accumulator:

* :func:`stream_fold_trace` — the exact two-pass fold of a finished
  trace (pass 1: instance boundaries from the event sidecar + scalar
  prologue reductions; pass 2: accumulate), sharing
  :class:`~repro.folding.cache.FoldCache` entries with resident folds
  under unchanged keys;
* :class:`LiveFold` — a single-pass monitoring-style fold over a live
  sample stream whose instance boundaries arrive *with* the data, and
  which emits partial :class:`~repro.folding.model.FoldedCounters`
  snapshots on demand.  It cannot know the final σ span or kept count
  up front, so it always bins on the fixed [0, 1] span — deterministic
  and chunk-invariant, but a documented approximation of the resident
  fit (the bin width, 1/4096, is at most bandwidth/8 for every
  bandwidth the ablations use).

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

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.detect import FoldInstances, instances_from_iterations
from repro.folding.fold import _inside_mask, boundary_increments
from repro.folding.model import FoldedCounters, fit_counter_curves
from repro.folding.spec import FoldSpec, normalize_directions
from repro.folding.stream_views import (
    LINE_SIGMA_BINS,
    RESERVOIR_CAPACITY,
    AddressStream,
    LineStream,
    StreamedReport,
)
from repro.objects.registry import DataObjectRegistry
from repro.simproc.machine import SAMPLE_COUNTERS
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
    "LiveFold",
    "StreamPrologue",
    "StreamedFold",
    "StreamedReport",
    "StreamingFold",
    "build_prologue",
    "fold_digest",
    "stream_fold_trace",
]

#: Default chunk size, re-exported from the container reader.
from repro.extrae.storage import DEFAULT_CHUNK_ROWS  # noqa: E402


def _chunk_columns(chunk, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Column arrays of a chunk (a mapping or a ``SampleTable``)."""
    getter = chunk.column if hasattr(chunk, "column") else chunk.__getitem__
    return {
        name: np.asarray(getter(name), dtype=np.float64) for name in names
    }


# ---------------------------------------------------------------------------
# Pass 1: the prologue — everything the accumulator must know up front.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamPrologue:
    """What one cheap streaming pass learns about a trace.

    Holds the per-instance boundary readings (and the
    totals/degenerate/denominator vectors derived from them), the kept
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
    c_start: dict[str, np.ndarray]
    c_end: dict[str, np.ndarray]
    totals: dict[str, np.ndarray]
    degenerate: dict[str, np.ndarray]
    denom: dict[str, np.ndarray]
    #: (min, max) address over kept samples — only when the pass was
    #: asked to track it (the streamed address direction's sketch span)
    addr_range: tuple[int, int] | None = None


def build_prologue(
    chunks,
    instances: FoldInstances,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    *,
    span_override: tuple[float, float] | None = None,
    force_binned: bool = False,
    track_address: bool = False,
) -> StreamPrologue:
    """Stream *chunks* once, resolving boundaries and scalar reductions.

    *chunks* yields time-ordered column mappings carrying ``time_ns``
    plus every counter in *counters*.  Each instance boundary is
    interpolated from a window of the previous chunk's last row plus
    the current chunk, the first time the stream strictly passes it —
    bit-identical to ``np.interp`` over the whole series, whatever the
    chunking (see the module docstring).

    ``span_override``/``force_binned`` pin the design regime instead of
    deriving it from the data — :class:`LiveFold` equivalence tests use
    them; exact folds leave them alone.  With ``track_address`` the
    chunks must also carry an ``address`` column, and the kept-sample
    address min/max (the density-sketch span, another exact scalar
    reduction) is recorded in :attr:`StreamPrologue.addr_range`.
    """
    starts = instances.starts_ns
    ends = instances.ends_ns
    n_inst = instances.n
    bounds = np.concatenate([starts, ends])
    bvals = {name: np.zeros(bounds.size, dtype=np.float64) for name in counters}
    pending = np.ones(bounds.size, dtype=bool)
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
        idx, inside = _inside_mask(t, starts, ends)
        k = int(np.count_nonzero(inside))
        if k:
            ik = idx[inside]
            sigma = (t[inside] - starts[ik]) / (ends[ik] - starts[ik])
            smin = min(smin, float(sigma.min()))
            smax = max(smax, float(sigma.max()))
            n_kept += k
            if track_address:
                getter = (
                    chunk.column
                    if hasattr(chunk, "column")
                    else chunk.__getitem__
                )
                kept = np.asarray(getter("address"))[inside]
                lo, hi = int(kept.min()), int(kept.max())
                amin = lo if amin is None else min(amin, lo)
                amax = hi if amax is None else max(amax, hi)
        resolve = pending & (bounds < t[-1])
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
            at = bounds[resolve]
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

    c_start: dict[str, np.ndarray] = {}
    c_end: dict[str, np.ndarray] = {}
    totals: dict[str, np.ndarray] = {}
    degenerate: dict[str, np.ndarray] = {}
    denom: dict[str, np.ndarray] = {}
    for name in counters:
        c_start[name] = bvals[name][:n_inst].copy()
        c_end[name] = bvals[name][n_inst:].copy()
        totals[name], degenerate[name], denom[name] = boundary_increments(
            c_start[name], c_end[name]
        )

    if span_override is not None:
        span = (float(span_override[0]), float(span_override[1]))
    else:
        span = (smin, smax) if n_kept else None
    return StreamPrologue(
        instances=instances,
        counters=tuple(counters),
        n_rows=n_rows,
        n_kept=n_kept,
        span=span,
        binned=force_binned or n_kept > BIN_THRESHOLD,
        c_start=c_start,
        c_end=c_end,
        totals=totals,
        degenerate=degenerate,
        denom=denom,
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
    either).  :meth:`result` fits the accumulated design — bit-identical
    to the resident ``fold_trace`` counters when the prologue described
    the same stream.  :meth:`snapshot` fits the partial design at any
    point for progress-style reporting.
    """

    def __init__(
        self,
        prologue: StreamPrologue,
        grid_points: int = 201,
        bandwidth: float = 0.015,
    ) -> None:
        if prologue.n_kept == 0:
            raise ValueError("cannot fold counters without samples")
        self.prologue = prologue
        self.grid_points = grid_points
        self.bandwidth = bandwidth
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

    def add_chunk(self, chunk) -> int:
        """Fold one time-ordered chunk in; returns its kept-row count."""
        p = self.prologue
        cols = _chunk_columns(chunk, ("time_ns", *p.counters))
        t = cols["time_ns"]
        self.n_chunks += 1
        if t.size == 0:
            return 0
        if self._last_t is not None and t[0] < self._last_t:
            raise ValueError("sample chunks must arrive in time order")
        self._last_t = float(t[-1])
        starts, ends = p.instances.starts_ns, p.instances.ends_ns
        idx, inside = _inside_mask(t, starts, ends)
        k = int(np.count_nonzero(inside))
        if k == 0:
            return 0
        ik = idx[inside]
        sigma = (t[inside] - starts[ik]) / (ends[ik] - starts[ik])
        which = (
            assign_design_bins(sigma, self._edges) if p.binned else None
        )
        for row, name in enumerate(p.counters):
            value = cols[name][inside]
            frac = np.clip(
                (value - p.c_start[name][ik]) / p.denom[name][ik], 0.0, 1.0
            )
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
        return k

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

    def _fit(self) -> FoldedCounters:
        p = self.prologue
        return fit_counter_curves(
            self.design(),
            grid_points=self.grid_points,
            bandwidth=self.bandwidth,
            counters=p.counters,
            totals_mean={
                name: float(p.totals[name].mean()) for name in p.counters
            },
            duration_ns=p.instances.mean_duration_ns,
        )

    def snapshot(self) -> FoldedCounters:
        """Partial curves over the chunks folded so far."""
        return self._fit()

    def result(self) -> "StreamedFold":
        """Finalize after the full stream has been folded in."""
        p = self.prologue
        if self.n_folded != p.n_kept:
            raise ValueError(
                f"stream folded {self.n_folded} kept samples, prologue saw "
                f"{p.n_kept} — passes must consume the same chunks"
            )
        return StreamedFold(
            instances=p.instances,
            counters=self._fit(),
            totals=dict(p.totals),
            degenerate=dict(p.degenerate),
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
    :data:`~repro.simproc.machine.SAMPLE_COUNTERS`, resolves addresses
    against the trace's own object records (as the resident fold plan
    does), and builds the bounded summaries with the
    :mod:`~repro.folding.stream_views` constants — ``RESERVOIR_CAPACITY``
    reservoir points, seed 0, uniform weighting, ``LINE_SIGMA_BINS``
    line bins — which the spec's cache key records.  Other settings
    are an :class:`~repro.folding.stream_views.AddressStream` or
    :class:`LiveFold` concern.

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
        so a trace folded resident serves streamed requests and vice
        versa (a resident hit is adapted down to its counters-only
        form; a streamed entry is treated as a miss by the resident
        path, which overwrites it with the full report).  Multi-
        direction streamed reports are keyed under ``kind="streamed"``
        — their address/line products are bounded summaries, not the
        resident views, so they must never alias a resident report.
    report_every:
        Emit a partial-curves snapshot to *on_snapshot* every this many
        chunks of the accumulation pass.
    on_snapshot:
        ``callable(FoldedCounters)`` for the periodic snapshots.
    """
    spec = replace(spec or FoldSpec(), streaming=True, **fields)
    trace = source if isinstance(source, Trace) else Trace.load(source)
    dirs = spec.directions
    want_address = dirs is not None and "address" in dirs
    want_lines = dirs is not None and "lines" in dirs
    key = None
    if cache is not None:
        key = cache.key(trace.digest(), spec)
        hit = _adapt_cache_hit(cache.get(key), dirs)
        if hit is not None:
            return hit
    instances = instances_from_iterations(trace)
    if spec.prune_tolerance is not None and instances.n >= 3:
        instances = instances.prune_outliers(spec.prune_tolerance)
    names = ("time_ns", *SAMPLE_COUNTERS)
    pass1_names = names + (("address",) if want_address else ())
    prologue = build_prologue(
        trace.iter_sample_chunks(pass1_names, chunk_rows),
        instances,
        SAMPLE_COUNTERS,
        track_address=want_address,
    )
    acc = StreamingFold(
        prologue, grid_points=spec.grid_points, bandwidth=spec.bandwidth
    )
    addr_stream = None
    line_stream = None
    extras: tuple[str, ...] = ()
    if want_address:
        addr_stream = AddressStream(
            DataObjectRegistry(trace.objects), prologue.addr_range
        )
        extras += ("address", "op", "source", "latency")
    if want_lines:
        line_stream = LineStream(trace.callstack)
        extras += ("callstack_id",)
    starts, ends = instances.starts_ns, instances.ends_ns
    for chunk in trace.iter_sample_chunks(names + extras, chunk_rows):
        acc.add_chunk(chunk)
        if extras:
            getter = (
                chunk.column if hasattr(chunk, "column") else chunk.__getitem__
            )
            t = np.asarray(getter("time_ns"), dtype=np.float64)
            idx, inside = _inside_mask(t, starts, ends)
            if inside.any():
                ik = idx[inside]
                sigma = (t[inside] - starts[ik]) / (ends[ik] - starts[ik])
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
            on_snapshot(acc.snapshot())
    result = acc.result()
    if dirs is not None:
        result = StreamedReport(
            performance=result,
            addresses=addr_stream.result() if addr_stream is not None else None,
            lines=line_stream.result() if line_stream is not None else None,
            directions=dirs,
        )
    if key is not None:
        cache.put(key, result)
    return result


def _adapt_cache_hit(hit, dirs) -> StreamedFold | StreamedReport | None:
    """A cache entry as the streamed product for *dirs*, if it can serve.

    Multi-direction requests take only a :class:`StreamedReport`.  For
    counters-only requests streamed entries pass through, and a
    resident :class:`~repro.folding.report.FoldedReport` stored under
    the same key is adapted down to its counters-only form.  Anything
    else is a miss.
    """
    if dirs is not None:
        return hit if isinstance(hit, StreamedReport) else None
    if isinstance(hit, StreamedFold):
        return hit
    from repro.folding.report import FoldedReport

    if isinstance(hit, FoldedReport):
        return StreamedFold(
            instances=hit.instances,
            counters=hit.counters,
            totals=dict(hit.totals),
            degenerate=dict(hit.degenerate),
            n_folded=hit.n_folded,
        )
    return None


# ---------------------------------------------------------------------------
# Single-pass live mode.
# ---------------------------------------------------------------------------


class LiveFold:
    """Single-pass monitoring fold: boundaries arrive with the stream.

    For always-on consumers watching a *live* sample source (a running
    :class:`~repro.extrae.tracer.Tracer`, a socket, a growing file):
    feed sample chunks through :meth:`observe` and iteration markers
    through :meth:`mark_iteration` as they happen; call
    :meth:`snapshot` any time for the partial curves and
    :meth:`finish` once for the final :class:`StreamedFold`.

    Because the final σ span and kept count are unknowable mid-stream,
    the design always bins on the fixed [0, 1] span — deterministic and
    chunk-invariant, but not bit-identical to the resident fit (bin
    width 1/4096 ≤ bandwidth/8 for every ablation bandwidth; the
    equivalence tests pin it against :class:`StreamingFold` with the
    same span override).  Instances are not outlier-pruned: a monitor
    wants to *see* the perturbed instance, not drop it.

    Memory: the design sums plus a raw-row buffer covering the open
    instance and the interpolation window — O(chunk + one instance),
    never O(stream).

    With ``directions`` beyond ``("counters",)`` the flush also feeds
    the bounded address/line accumulators of
    :mod:`repro.folding.stream_views`, and :meth:`snapshot_report`
    serves a partial three-panel
    :class:`~repro.folding.stream_views.StreamedReport` at any point.
    Live limitations, both documented approximations of the offline
    streamed report: the address view has no density sketch (the span
    is unknowable up front) and no object registry (objects are still
    being allocated) — resolve offline against the saved trace for
    full fidelity.  Hook a live fold onto a running simulation with
    ``TracerConfig(live_fold=...)``; the
    :class:`~repro.extrae.tracer.Tracer` feeds samples, iteration
    marks and its call-stack interner automatically.
    """

    def __init__(
        self,
        counters: tuple[str, ...] = SAMPLE_COUNTERS,
        grid_points: int = 201,
        bandwidth: float = 0.015,
        name: str = "iteration",
        directions=None,
        callstack_resolver=None,
        reservoir_capacity: int = RESERVOIR_CAPACITY,
        reservoir_seed: int = 0,
        reservoir_weighting: str = "uniform",
        line_sigma_bins: int = LINE_SIGMA_BINS,
    ) -> None:
        self._counters = tuple(counters)
        self.grid_points = grid_points
        self.bandwidth = bandwidth
        self._name = name or "iteration"
        dirs = normalize_directions(directions)
        self._directions = dirs if dirs is not None else ("counters",)
        self._addr: AddressStream | None = None
        self._line: LineStream | None = None
        extras: tuple[str, ...] = ()
        if "address" in self._directions:
            self._addr = AddressStream(
                DataObjectRegistry(),
                None,
                capacity=reservoir_capacity,
                seed=reservoir_seed,
                weighting=reservoir_weighting,
            )
            extras += ("address", "op", "source", "latency")
        if "lines" in self._directions:
            self._line = LineStream(
                callstack_resolver, sigma_bins=line_sigma_bins
            )
            extras += ("callstack_id",)
        self._extras = extras
        self._edges = design_bin_edges(0.0, 1.0)
        k = len(self._counters)
        self._acc_w = np.zeros(DESIGN_BINS, dtype=np.float64)
        self._acc_wy = np.zeros((k, DESIGN_BINS), dtype=np.float64)
        self._marks: list[float] = []
        self._bvals: dict[float, dict[str, float]] = {}
        self._intervals: list[tuple[float, float]] = []
        self._totals: dict[str, list[float]] = {n: [] for n in self._counters}
        self._degen: dict[str, list[bool]] = {n: [] for n in self._counters}
        self._flushed = 0
        self._buf: list[dict[str, np.ndarray]] = []
        self._prev: dict[str, np.ndarray] | None = None
        self._dropped_t = -math.inf
        self._last_t: float | None = None
        self._finished = False
        self.n_rows = 0
        self.n_folded = 0

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Columns every :meth:`observe` chunk must carry."""
        return ("time_ns", *self._counters, *self._extras)

    def bind_callstacks(self, resolver) -> None:
        """Late-bind the call-stack resolver for the line direction
        (the :class:`~repro.extrae.tracer.Tracer` hook calls this with
        its trace's interner)."""
        if self._line is not None:
            self._line.bind(resolver)

    # -- inputs ------------------------------------------------------------
    def observe(self, chunk) -> None:
        """Feed one time-ordered sample chunk."""
        if self._finished:
            raise ValueError("LiveFold is finished")
        cols = _chunk_columns(chunk, self.required_columns)
        t = cols["time_ns"]
        if t.size == 0:
            return
        if (np.diff(t) < 0.0).any() or (
            self._last_t is not None and t[0] < self._last_t
        ):
            raise ValueError("sample chunks must arrive in time order")
        # Copy: a live source may reuse or grow its buffers under us.
        self._buf.append({name: arr.copy() for name, arr in cols.items()})
        self._last_t = float(t[-1])
        self.n_rows += int(t.size)
        self._drain()

    def mark_iteration(self, time_ns: float) -> None:
        """Record an iteration boundary at *time_ns*.

        Marks must be strictly increasing and roughly in stream
        position: a mark may trail the samples by up to the retained
        buffer (chunk-granularity lateness is fine), but once rows at
        or past a time have been trimmed, a mark there would fold from
        lost data and is rejected.
        """
        if self._finished:
            raise ValueError("LiveFold is finished")
        time_ns = float(time_ns)
        if self._marks and time_ns <= self._marks[-1]:
            raise ValueError("iteration marks must strictly increase")
        if time_ns <= self._dropped_t:
            raise ValueError(
                "iteration mark arrived after its samples were trimmed — "
                "deliver marks in stream order"
            )
        self._marks.append(time_ns)
        if len(self._marks) >= 2:
            self._intervals.append((self._marks[-2], self._marks[-1]))
        self._drain()

    def finish(self, end_time_ns: float | None = None) -> StreamedFold:
        """Close the open instance and return the final fold.

        The last instance ends at *end_time_ns* (default: the last
        observed sample time), mirroring how the offline instance
        detection closes on the end marker or the trace end.
        """
        if self._finished:
            raise ValueError("LiveFold is already finished")
        if not self._marks:
            raise ValueError("no iteration marks observed")
        end = end_time_ns if end_time_ns is not None else self._last_t
        if end is not None and float(end) > self._marks[-1]:
            self._intervals.append((self._marks[-1], float(end)))
        if not self._intervals:
            raise ValueError("no closed instances to fold")
        self._finished = True
        self._drain()
        instances = FoldInstances(self._name, tuple(self._intervals))
        counters = self._fit(instances.mean_duration_ns)
        return StreamedFold(
            instances=instances,
            counters=counters,
            totals={
                n: np.asarray(v, dtype=np.float64)
                for n, v in self._totals.items()
            },
            degenerate={
                n: np.asarray(v, dtype=bool) for n, v in self._degen.items()
            },
            n_folded=self.n_folded,
        )

    # -- partial output ----------------------------------------------------
    def snapshot(self) -> FoldedCounters | None:
        """Partial curves over the instances flushed so far.

        ``None`` until at least one instance has closed with samples.
        """
        if self._flushed == 0 or self.n_folded == 0:
            return None
        closed = self._intervals[: self._flushed]
        durations = np.asarray([t1 - t0 for t0, t1 in closed])
        return self._fit(float(durations.mean()))

    def snapshot_report(self) -> StreamedReport | None:
        """Partial three-panel report over the instances flushed so far.

        ``None`` until at least one instance has closed with samples.
        The performance panel matches :meth:`snapshot`; address and
        line panels (when their directions are live) hold exactly the
        flushed samples — a mid-simulation consumer sees the trace
        folded up to the last completed instance.
        """
        counters = self.snapshot()
        if counters is None:
            return None
        closed = tuple(self._intervals[: self._flushed])
        performance = StreamedFold(
            instances=FoldInstances(self._name, closed),
            counters=counters,
            totals={
                n: np.asarray(v[: self._flushed], dtype=np.float64)
                for n, v in self._totals.items()
            },
            degenerate={
                n: np.asarray(v[: self._flushed], dtype=bool)
                for n, v in self._degen.items()
            },
            n_folded=self.n_folded,
        )
        return StreamedReport(
            performance=performance,
            addresses=self._addr.result() if self._addr is not None else None,
            lines=self._line.result() if self._line is not None else None,
            directions=self._directions,
        )

    def _fit(self, duration_ns: float) -> FoldedCounters:
        if self.n_folded == 0:
            raise ValueError("cannot fold counters without samples")
        design = binned_design_from_sums(self._edges, self._acc_w, self._acc_wy)
        totals_mean = {
            name: float(np.asarray(vals, dtype=np.float64).mean())
            for name, vals in self._totals.items()
        }
        return fit_counter_curves(
            design,
            grid_points=self.grid_points,
            bandwidth=self.bandwidth,
            counters=self._counters,
            totals_mean=totals_mean,
            duration_ns=duration_ns,
        )

    # -- internals ---------------------------------------------------------
    def _window(self) -> dict[str, np.ndarray]:
        parts = ([self._prev] if self._prev is not None else []) + self._buf
        if not parts:
            return {}
        return {
            name: np.concatenate([p[name] for p in parts])
            for name in self.required_columns
        }

    def _boundary(self, at: float) -> dict[str, float]:
        """Counter readings at boundary time *at*, from the window.

        ``np.interp`` at a point only reads the rightmost row at or
        before it and its successor; the trim policy retains both (or
        carries the left one in ``_prev``), so this equals the
        interpolation over the whole series — see the module docstring.
        """
        vals = self._bvals.get(at)
        if vals is None:
            window = self._window()
            if not window or window["time_ns"].size == 0:
                vals = {name: 0.0 for name in self._counters}
            else:
                tw = window["time_ns"]
                vals = {
                    name: float(np.interp(at, tw, window[name]))
                    for name in self._counters
                }
            self._bvals[at] = vals
        return vals

    def _drain(self) -> None:
        while self._flushed < len(self._intervals):
            t1 = self._intervals[self._flushed][1]
            if not self._finished and not (
                self._last_t is not None and t1 < self._last_t
            ):
                break  # end boundary not strictly passed yet
            self._flush(self._flushed)
            self._flushed += 1
        self._trim()

    def _flush(self, i: int) -> None:
        t0, t1 = self._intervals[i]
        b0 = self._boundary(t0)
        b1 = self._boundary(t1)
        window = self._window()
        t = window.get("time_ns", np.empty(0))
        keep = (t >= t0) & (t < t1)
        tk = t[keep]
        sigma = (tk - t0) / (t1 - t0)
        which = assign_design_bins(sigma, self._edges)
        for row, name in enumerate(self._counters):
            totals, degen, denom = boundary_increments(
                np.asarray([b0[name]]), np.asarray([b1[name]])
            )
            frac = np.clip(
                (window[name][keep] - b0[name]) / denom[0], 0.0, 1.0
            )
            np.add.at(self._acc_wy[row], which, frac)
            self._totals[name].append(float(totals[0]))
            self._degen[name].append(bool(degen[0]))
        self._acc_w += np.bincount(which, minlength=DESIGN_BINS)
        if self._addr is not None:
            self._addr.add(
                sigma,
                window["address"][keep],
                window["op"][keep],
                window["source"][keep],
                window["latency"][keep],
            )
        if self._line is not None:
            self._line.add(sigma, window["callstack_id"][keep])
        self.n_folded += int(tk.size)

    def _trim(self) -> None:
        """Drop buffered chunks no longer reachable by a future flush.

        Rows below the first unflushed instance start (or, with every
        closed instance flushed, below the open instance's start) can
        only ever be needed as the left edge of a boundary-
        interpolation window, so the last dropped row is carried in
        ``_prev`` as that edge.
        """
        if self._flushed < len(self._intervals):
            threshold = self._intervals[self._flushed][0]
        elif self._marks and not self._finished:
            threshold = self._marks[-1]
        else:
            threshold = math.inf
        while self._buf and float(self._buf[0]["time_ns"][-1]) < threshold:
            if not self._marks and not self._finished and len(self._buf) == 1:
                break  # keep one chunk of slack for a slightly late first mark
            dropped = self._buf.pop(0)
            self._prev = {name: arr[-1:] for name, arr in dropped.items()}
            self._dropped_t = float(dropped["time_ns"][-1])
