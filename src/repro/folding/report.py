"""The combined three-direction folded report.

§II of the paper: "the tool provides a report where applications are
explored in three orthogonal directions: source code, memory accesses
and performance".  :func:`fold_trace` assembles all three from a trace
in one call; :class:`FoldedReport` carries them plus export helpers
that write gnuplot-style data files, as the original BSC Folding tool
does.

Every fold product — :class:`FoldedReport`, its
:class:`~repro.folding.address.FoldedAddresses`, and the streamed and
extrapolated folds — is a frozen value holding only what (trace,
:class:`~repro.folding.spec.FoldSpec`) determines, so the
:class:`~repro.folding.cache.FoldCache` stores and hands out one
object.  Derive a variant with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.address import FoldedAddresses
from repro.folding.detect import FoldInstances
from repro.folding.fold import FoldedSamples
from repro.folding.lines import FoldedLines
from repro.folding.model import FoldedCounters
from repro.folding.spec import REPRESENTATIVE, RESIDENT, STREAMED, STREAMED_REPORT
from repro.folding.spec import FoldSpec, serves
from repro.objects.registry import DataObjectRegistry

__all__ = ["FoldedReport", "fold_trace"]


@dataclass(frozen=True)
class FoldedReport:
    """Source code × memory accesses × performance, folded."""

    trace: Trace
    instances: FoldInstances
    samples: FoldedSamples
    counters: FoldedCounters
    addresses: FoldedAddresses
    lines: FoldedLines
    registry: DataObjectRegistry

    fold_path: ClassVar[str] = RESIDENT

    # The performance-direction surface every fold product shares
    # (StreamedFold and ExtrapolatedFold carry these as fields).
    @property
    def n_folded(self) -> int:
        return self.samples.n

    @property
    def totals(self) -> dict[str, np.ndarray]:
        return self.samples.totals

    @property
    def degenerate(self) -> dict[str, np.ndarray]:
        return self.samples.degenerate

    @property
    def performance(self):
        """The counters-only :class:`~repro.folding.stream.StreamedFold`
        this report contains, bit for bit."""
        from repro.folding.stream import StreamedFold

        return StreamedFold(
            instances=self.instances,
            counters=self.counters,
            totals=dict(self.totals),
            degenerate=dict(self.degenerate),
            n_folded=self.n_folded,
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable report header."""
        meta = self.trace.metadata
        parts = [
            f"Folded report over {self.instances.n} instances "
            f"of {self.instances.name!r}",
            f"  mean instance duration: {self.instances.mean_duration_ns / 1e6:.3f} ms",
            f"  samples folded: {self.samples.n}",
            f"  data objects: {len(self.registry)} "
            f"({self.addresses.matched_fraction() * 100:.1f}% of samples matched)",
            f"  workload: {meta.get('workload', '?')}",
        ]
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def export_gnuplot(self, directory: str | Path) -> list[Path]:
        """Write the three panels as whitespace-separated data files.

        * ``codeline.dat`` — σ, line-id, function, file, line
        * ``addresses.dat`` — σ, address, op, source, latency, object
        * ``counters.dat`` — σ, MIPS, IPC, per-instruction rates
        * ``objects.dat`` — the registry's records

        Every file goes through the block writer of
        :mod:`repro.folding.export`; its number formats are the file
        contract of ``docs/trace-format.md``.
        """
        # Imported here: processes that never export (acquisition, the
        # service) skip the writer's import.
        from repro.folding import export

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [
            export.export_codeline_dat(self.lines, directory),
            export.export_addresses_dat(self.addresses, self.registry, directory),
            export.export_counters_dat(self.counters, directory),
            export.export_objects_dat(self.registry, (), directory),
        ]


def fold_trace(
    trace: Trace,
    spec: FoldSpec | None = None,
    *,
    cache=None,
    chunk_rows: int | None = None,
    report_every: int | None = None,
    on_snapshot=None,
    **fields,
):
    """One-call folding of a trace into the fold *spec* describes.

    *spec* (default ``FoldSpec()``) fixes what is folded; keyword
    *fields* override single spec fields, so
    ``fold_trace(trace, grid_points=101, bandwidth=0.02)`` needs no
    spec.  The product is a function of (trace, spec) alone and
    follows the spec (:class:`~repro.folding.spec.FoldSpec` documents
    each field):

    * by default the three-direction :class:`FoldedReport`, equivalent
      to ``FoldPlan.from_trace(...).fold(...)`` — callers that fold the
      same trace at several parameter points should build the
      :class:`~repro.folding.plan.FoldPlan` themselves and reuse it, as
      the service's fold worker
      (:func:`~repro.service.work.fold_payload_job`) does;
    * with ``streaming=True`` the chunkwise
      :func:`~repro.folding.stream.stream_fold_trace` in O(chunk +
      summary) parent memory: the counters-only
      :class:`~repro.folding.stream.StreamedFold` — curves, totals and
      degenerate flags bit-identical to the resident report's — or,
      with *directions*, a
      :class:`~repro.folding.stream_views.StreamedReport`;
    * with ``rep_budget=N`` the counters-only
      :class:`~repro.folding.extrapolate.ExtrapolatedFold`, folded from
      N representative instances and weight-extrapolated — exact
      per-instance totals/degenerate flags, approximate curve shape,
      bit-identical to the exact fold when the budget covers every
      instance.

    The remaining arguments change how the fold runs, not what it
    produces:

    cache:
        Optional :class:`repro.folding.cache.FoldCache`.  When given,
        the fold stored for a trace with the same content digest at
        the same spec is returned; otherwise the fresh fold is stored
        before returning.
    chunk_rows / report_every / on_snapshot:
        Streaming folds only: rows per chunk and periodic partial-curve
        snapshots (see :func:`~repro.folding.stream.stream_fold_trace`).

    Folds that depend on more than the spec sit one layer down and are
    never cached: fold region instances or a custom object registry
    with ``FoldPlan.from_trace(trace, instances=..., registry=...)``,
    and a prebuilt :class:`~repro.folding.reps.Representatives`
    selection with
    :func:`~repro.folding.extrapolate.extrapolated_fold`.
    """
    spec = replace(spec or FoldSpec(), **fields)
    path = spec.path
    if path in (STREAMED, STREAMED_REPORT):
        from repro.folding.stream import DEFAULT_CHUNK_ROWS, stream_fold_trace

        return stream_fold_trace(
            trace,
            spec,
            chunk_rows=chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS,
            cache=cache,
            report_every=report_every,
            on_snapshot=on_snapshot,
        )
    if any(arg is not None for arg in (chunk_rows, report_every, on_snapshot)):
        raise ValueError(
            "chunk_rows, report_every and on_snapshot only apply to "
            "streaming folds"
        )

    if cache is not None:
        key = cache.key(trace.digest(), spec)
        hit = cache.get(key)
        # A counters-only streamed entry can share a resident key; it
        # cannot serve a full report, so it counts as a miss (the fresh
        # report then overwrites the entry).
        if hit is not None and serves(hit.fold_path, path):
            # Entries are stored without the (large) input trace; the
            # caller's live trace is bit-identical by key construction.
            return hit if path == REPRESENTATIVE else replace(hit, trace=trace)
    if path == REPRESENTATIVE:
        from repro.folding.extrapolate import extrapolated_fold
        from repro.folding.reps import select_representatives

        representatives = select_representatives(
            trace,
            budget=spec.rep_budget,
            seed=spec.rep_seed,
            prune_tolerance=spec.prune_tolerance,
        )
        fold = extrapolated_fold(
            trace,
            representatives,
            grid_points=spec.grid_points,
            bandwidth=spec.bandwidth,
        )
    else:
        from repro.folding.plan import FoldPlan

        plan = FoldPlan.from_trace(
            trace,
            prune_tolerance=spec.prune_tolerance,
            align_regions=spec.align_regions,
        )
        fold = plan.fold(grid_points=spec.grid_points, bandwidth=spec.bandwidth)
    if cache is not None:
        cache.put(key, fold)
    return fold
