"""Prebuilt trace indexes: stop rescanning the whole table per query.

Analysis passes used to pay two recurring linear costs on every call:

* **event queries** — ``region_intervals``/``iteration_times`` scanned
  the full punctual-event list per region name;
* **sample queries** — selecting the samples of one kernel label, call
  stack or operation rebuilt a full-length boolean mask per key.

:class:`TraceIndex` removes both.  The event side is grouped in one
pass over the event list (per-name streams, interval matching cached
per region).  The sample side is a CSR-style grouping built from one
stable ``argsort`` + ``bincount`` pass per column, handing out the
*row indices* of a key in ascending order — the exact rows a boolean
mask would select, so downstream aggregations stay bit-identical while
each lookup drops from O(n_samples) to O(result).  Time windows use
``searchsorted`` against the (already sorted) ``time_ns`` column.

Obtain one via :meth:`repro.extrae.trace.Trace.index`; it is cached on
the trace and invalidated by any mutating ``add_*``.  The index holds
its trace weakly, so a trace that caches its index is no reference
cycle and is freed as soon as its last reference drops.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.extrae.events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.extrae.trace import SampleTable, Trace

__all__ = ["EventIndex", "SampleIndex", "TraceIndex", "group_rows"]


def group_rows(codes: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group row indices by integer code in one argsort pass.

    Returns ``(values, rows)`` where ``values`` are the distinct codes
    ascending (as :func:`np.unique` would yield them) and ``rows[i]``
    the ascending row indices holding ``values[i]`` — element-for-
    element what ``np.nonzero(codes == values[i])[0]`` returns, without
    the per-value rescan.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        return codes[:0], []
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.nonzero(sorted_codes[1:] != sorted_codes[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_codes.size]))
    values = sorted_codes[starts]
    return values, [order[s:e] for s, e in zip(starts, ends)]


class _Csr:
    """Row indices grouped by a non-negative integer key column."""

    def __init__(self, codes: np.ndarray, n_keys: int) -> None:
        codes = np.asarray(codes)
        self.n_keys = int(n_keys)
        # One stable argsort orders rows by key while preserving the
        # ascending row order inside each key group; bincount gives the
        # group extents.  Equivalent to n_keys boolean masks in one pass.
        self._order = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=self.n_keys)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    def rows(self, key: int) -> np.ndarray:
        if not 0 <= key < self.n_keys:
            return self._order[:0]
        return self._order[self._offsets[key] : self._offsets[key + 1]]

    def count(self, key: int) -> int:
        if not 0 <= key < self.n_keys:
            return 0
        return int(self._offsets[key + 1] - self._offsets[key])


class EventIndex:
    """Per-name event streams, grouped in one pass over the event list."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self._iterations_all: list[float] = []
        self._iterations: dict[str, list[float]] = {}
        self._region_stream: dict[str, list[TraceEvent]] = {}
        self._first_named: dict[str, float] = {}
        self._intervals: dict[str, list[tuple[float, float]]] = {}
        for ev in events:
            if ev.name and ev.name not in self._first_named:
                self._first_named[ev.name] = ev.time_ns
            if ev.kind == EventKind.ITERATION:
                self._iterations_all.append(ev.time_ns)
                self._iterations.setdefault(ev.name, []).append(ev.time_ns)
            elif ev.kind in (EventKind.REGION_ENTER, EventKind.REGION_EXIT):
                self._region_stream.setdefault(ev.name, []).append(ev)

    @property
    def region_names(self) -> list[str]:
        """Names that occur in region enter/exit events, sorted."""
        return sorted(self._region_stream)

    def first_time_named(self, name: str) -> float | None:
        """Timestamp of the first event carrying *name*, if any."""
        return self._first_named.get(name)

    def iteration_times(self, name: str = "") -> list[float]:
        """Timestamps of ITERATION markers (optionally filtered by name)."""
        times = self._iterations_all if not name else self._iterations.get(name, [])
        return list(times)

    def region_intervals(self, name: str) -> list[tuple[float, float]]:
        """Matched ``[enter, exit)`` intervals of region *name* (cached).

        Same matching rule (and error messages) as the pre-index
        linear scan: each exit pairs with the most recent unmatched
        enter of the same name; recursion therefore nests.
        """
        cached = self._intervals.get(name)
        if cached is None:
            stack: list[float] = []
            cached = []
            for ev in self._region_stream.get(name, ()):
                if ev.kind == EventKind.REGION_ENTER:
                    stack.append(ev.time_ns)
                else:
                    if not stack:
                        raise ValueError(
                            f"unmatched exit of region {name!r} at {ev.time_ns}"
                        )
                    cached.append((stack.pop(), ev.time_ns))
            if stack:
                raise ValueError(f"unmatched enter of region {name!r}")
            cached.sort()
            self._intervals[name] = cached
        return list(cached)


class SampleIndex:
    """Grouped/sorted access paths over a consolidated sample table.

    Each key column's grouping is built lazily on first use and cached,
    so passes that only slice by time never pay for the label argsort.
    """

    def __init__(self, table: "SampleTable", n_labels: int, n_callstacks: int) -> None:
        self._table = table
        self._n_labels = n_labels
        self._n_callstacks = n_callstacks
        self._by_label: _Csr | None = None
        self._by_callstack: _Csr | None = None
        self._by_op: _Csr | None = None

    # -- grouped keys --------------------------------------------------
    def rows_for_label(self, label_id: int) -> np.ndarray:
        if self._by_label is None:
            self._by_label = _Csr(self._table.label_id, self._n_labels)
        return self._by_label.rows(int(label_id))

    def rows_for_callstack(self, callstack_id: int) -> np.ndarray:
        if self._by_callstack is None:
            self._by_callstack = _Csr(self._table.callstack_id, self._n_callstacks)
        return self._by_callstack.rows(int(callstack_id))

    def rows_for_op(self, op: int) -> np.ndarray:
        if self._by_op is None:
            ops = self._table.op
            n_ops = int(ops.max()) + 1 if ops.size else 1
            self._by_op = _Csr(ops, n_ops)
        return self._by_op.rows(int(op))

    def count_for_op(self, op: int) -> int:
        self.rows_for_op(op)
        return self._by_op.count(int(op))

    # -- time windows --------------------------------------------------
    def time_slice(self, t0_ns: float, t1_ns: float) -> slice:
        """Row slice of samples with ``t0_ns <= time_ns < t1_ns``.

        O(log n) on the already time-sorted table; the returned slice
        selects exactly the rows a boolean window mask would.
        """
        t = self._table.time_ns
        lo = int(np.searchsorted(t, t0_ns, side="left"))
        hi = int(np.searchsorted(t, t1_ns, side="left"))
        return slice(lo, hi)

    def window(self, t0_ns: float, t1_ns: float) -> "SampleTable":
        """The sub-table of one time window."""
        sl = self.time_slice(t0_ns, t1_ns)
        return self._table.select(np.arange(sl.start, sl.stop))


class TraceIndex:
    """Event + sample indexes of one trace (see module docstring)."""

    def __init__(self, trace: "Trace") -> None:
        self._trace = weakref.ref(trace)
        self.events = EventIndex(trace.events)
        self._samples: SampleIndex | None = None

    @property
    def samples(self) -> SampleIndex:
        """The sample-side index (consolidates the table on first use).

        Once built it holds the table, not the trace; the first use
        needs the trace alive.
        """
        if self._samples is None:
            trace = self._trace()
            if trace is None:
                raise RuntimeError("the indexed trace has been freed")
            self._samples = SampleIndex(
                trace.sample_table(),
                n_labels=len(trace.labels),
                n_callstacks=trace.n_callstacks,
            )
        return self._samples
