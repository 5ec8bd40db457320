"""The folded source-code view.

Every sample carries the call-stack the tracer maintained when it was
taken; its leaf frame names the source line executing at that moment.
Folding those gives the top panel of Figure 1 — which code line runs at
each normalized time — from which phases (A, B, C, D, E) are directly
readable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.fold import FoldedSamples
from repro.vmem.callstack import CallStack

__all__ = ["FoldedLines", "LineTableBuilder", "fold_lines", "leaf_and_region"]


def leaf_and_region(stack: CallStack) -> tuple[tuple[str, str, int], str]:
    """A call-stack's source line key and instrumented-region name.

    The *line* is the leaf frame ``(function, file, line)``; the
    *region* is the innermost instrumented frame — the second-to-leaf
    frame's function when the batch pushed a source-line leaf, except
    that a ``Compute*`` leaf names its own region (the HPCG compute
    kernels are instrumented at the function itself).  Shared by the
    resident :func:`fold_lines` and the streamed line direction
    (:mod:`repro.folding.stream_views`), so both derive identical
    tables from identical call-stacks.
    """
    leaf = stack.leaf
    key = (leaf.function, leaf.file, leaf.line)
    region = stack.frames[-2].function if stack.depth >= 2 else leaf.function
    if leaf.function != region and leaf.function.startswith("Compute"):
        region = leaf.function
    return key, region


class LineTableBuilder:
    """Incremental interner of call-stacks into line/region tables.

    Feed call-stack ids through :meth:`intern`; line keys and region
    names are appended to :attr:`line_table`/:attr:`region_table` in
    the order the ids are first seen, and :meth:`ids_of` maps the
    samples of one ``np.unique(..., return_inverse=True)`` onto the
    tables with one gather each.  The resident fold interns the
    trace's sorted unique ids once; the streaming fold interns each
    chunk's unseen ids as they arrive (chunk-invariant: an id's first
    appearance in a time-ordered stream does not depend on the
    chunking).
    """

    def __init__(self, resolver) -> None:
        #: ``resolver(cs_id) -> CallStack`` (usually ``Trace.callstack``)
        self._resolver = resolver
        self.line_table: list[tuple[str, str, int]] = []
        self.region_table: list[str] = []
        self._line_lookup: dict[tuple[str, str, int], int] = {}
        self._region_lookup: dict[str, int] = {}
        self._cs_line: dict[int, int] = {}
        self._cs_region: dict[int, int] = {}

    def intern(self, cs_ids) -> None:
        """Register call-stack ids (iterated in the given order)."""
        for cs_id in cs_ids:
            cs_id = int(cs_id)
            if cs_id in self._cs_line:
                continue
            key, region = leaf_and_region(self._resolver(cs_id))
            if key not in self._line_lookup:
                self._line_lookup[key] = len(self.line_table)
                self.line_table.append(key)
            self._cs_line[cs_id] = self._line_lookup[key]
            if region not in self._region_lookup:
                self._region_lookup[region] = len(self.region_table)
                self.region_table.append(region)
            self._cs_region[cs_id] = self._region_lookup[region]

    def ids_of(
        self, uniq: np.ndarray, inverse: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample (line ids, region ids) of the samples whose
        call-stack ids are ``uniq[inverse]`` (every id interned)."""
        ids = [int(i) for i in uniq]
        line = np.array([self._cs_line[i] for i in ids], dtype=np.int64)
        region = np.array([self._cs_region[i] for i in ids], dtype=np.int64)
        return line[inverse], region[inverse]


@dataclass
class FoldedLines:
    """Folded (σ, source line) points.

    ``line_table[i]`` is a ``(function, file, line)`` triple;
    ``line_id`` indexes into it.  ``region_id``/``region_table`` give
    the coarser instrumented-region identity of each sample (the
    label A/B/C/D/E annotations derive from these).
    """

    sigma: np.ndarray
    line_id: np.ndarray
    line_table: list[tuple[str, str, int]]
    region_id: np.ndarray
    region_table: list[str]

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    def line_of(self, index: int) -> tuple[str, str, int]:
        return self.line_table[int(self.line_id[index])]

    def dominant_region(self, lo: float, hi: float) -> str:
        """Most common region among samples with σ in [lo, hi)."""
        mask = (self.sigma >= lo) & (self.sigma < hi)
        if not mask.any():
            raise ValueError(f"no samples in window [{lo}, {hi})")
        ids, counts = np.unique(self.region_id[mask], return_counts=True)
        return self.region_table[int(ids[np.argmax(counts)])]

    def region_sequence(self, min_run: int = 5) -> list[str]:
        """Regions in σ order, runs shorter than *min_run* samples
        dropped, consecutive duplicates collapsed."""
        order = np.argsort(self.sigma, kind="stable")
        ids = self.region_id[order]
        out: list[str] = []
        run_id, run_len = None, 0
        for i in ids:
            if i == run_id:
                run_len += 1
            else:
                if run_id is not None and run_len >= min_run:
                    name = self.region_table[int(run_id)]
                    if not out or out[-1] != name:
                        out.append(name)
                run_id, run_len = i, 1
        if run_id is not None and run_len >= min_run:
            name = self.region_table[int(run_id)]
            if not out or out[-1] != name:
                out.append(name)
        return out


def fold_lines(folded: FoldedSamples, trace: Trace) -> FoldedLines:
    """Extract the folded source-line track from the samples.

    The *region* of a sample is the innermost instrumented region
    (second-to-leaf frame when the batch added a source-line leaf); the
    *line* is the leaf frame itself.
    """
    # Intern the sorted unique ids (the historical table order), then
    # map per-sample ids with one gather through the inverse — the
    # tables are built once per trace from O(unique call-stacks)
    # Python work.
    uniq, inverse = np.unique(folded.table.callstack_id, return_inverse=True)
    builder = LineTableBuilder(trace.callstack)
    builder.intern(uniq)
    line_id, region_id = builder.ids_of(uniq, inverse)
    return FoldedLines(
        sigma=folded.sigma,
        line_id=line_id,
        line_table=builder.line_table,
        region_id=region_id,
        region_table=builder.region_table,
    )
