"""Trace invariant checkers.

:func:`validate_trace` runs every applicable check over a finished
:class:`~repro.extrae.trace.Trace` and returns a
:class:`ValidationReport` — a list of :class:`ValidationIssue` records
(severity ``"error"`` or ``"warning"``) plus which checks ran.  The
checks codify what the rest of the pipeline silently assumes:

* ``event-times`` / ``sample-times`` — punctual events and the sample
  table are nondecreasing in time (the same rule
  :meth:`Trace.add_event` enforces at append time, via the shared
  :data:`~repro.extrae.trace.EVENT_TIME_EPSILON_NS`);
* ``regions`` — every region's enters and exits match up
  (:meth:`Trace.region_intervals` succeeds for each region name);
* ``addresses`` — sample addresses are canonical x86-64 user-space
  pointers, and a sane fraction falls inside known object ranges;
* ``sources`` — the ``source`` column only holds legal
  :class:`~repro.extrae.schema.DataSource` values (restricted to
  :meth:`HierarchyConfig.legal_sources` when a hierarchy is given);
* ``intern-tables`` — ``callstack_id``/``label_id`` columns index into
  the trace's intern tables, ops are valid ``MemOp`` codes, latencies
  are finite and non-negative;
* ``fold-mass`` — folding conserves sample mass: every sample inside
  an instance lands in the folded output exactly once
  (:func:`repro.folding.fold.count_in_instances`), σ stays in
  ``[0, 1)`` and counter fractions in ``[0, 1]``;
* ``objects`` — object records don't pathologically overlap their own
  kind, and carry non-negative timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.extrae.trace import EVENT_TIME_EPSILON_NS, Trace
from repro.memsim.hierarchy import HierarchyConfig

__all__ = [
    "ValidationError",
    "ValidationIssue",
    "ValidationReport",
    "validate_trace",
]

#: Highest canonical x86-64 user-space address (48-bit, lower half).
_CANONICAL_LIMIT = 1 << 48


class ValidationError(ValueError):
    """Raised by :meth:`ValidationReport.raise_on_error`."""


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant.

    ``check`` names the invariant family, ``severity`` is ``"error"``
    (the trace is inconsistent) or ``"warning"`` (suspicious but not
    provably wrong), ``count`` is how many samples/events are affected.
    """

    check: str
    severity: str
    message: str
    count: int = 1

    def __str__(self) -> str:
        extra = f" (x{self.count})" if self.count > 1 else ""
        return f"[{self.severity}] {self.check}: {self.message}{extra}"


@dataclass
class ValidationReport:
    """Outcome of a :func:`validate_trace` pass."""

    n_samples: int
    n_events: int
    n_objects: int
    checks: list[str] = field(default_factory=list)
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issue was found."""
        return not self.errors

    def raise_on_error(self) -> None:
        """Raise :class:`ValidationError` if any error issue exists."""
        if not self.ok:
            lines = "\n".join(f"  {i}" for i in self.errors)
            raise ValidationError(
                f"trace failed validation ({len(self.errors)} error(s)):\n{lines}"
            )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"Trace validation: {verdict} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)",
            f"  samples: {self.n_samples}  events: {self.n_events}  "
            f"objects: {self.n_objects}",
            f"  checks run: {', '.join(self.checks)}",
        ]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


class _Collector:
    """Accumulates issues and the list of checks that ran."""

    def __init__(self) -> None:
        self.checks: list[str] = []
        self.issues: list[ValidationIssue] = []

    def ran(self, check: str) -> None:
        self.checks.append(check)

    def error(self, check: str, message: str, count: int = 1) -> None:
        self.issues.append(ValidationIssue(check, "error", message, count))

    def warning(self, check: str, message: str, count: int = 1) -> None:
        self.issues.append(ValidationIssue(check, "warning", message, count))


def _check_event_times(trace: Trace, out: _Collector) -> None:
    out.ran("event-times")
    times = np.array([ev.time_ns for ev in trace.events], dtype=np.float64)
    if times.size == 0:
        return
    if float(times.min()) < 0:
        out.error("event-times", "negative event timestamp")
    # The exact rule add_event applies (EVENT_TIME_EPSILON_NS is 0.0:
    # machine time never goes backwards).
    backwards = np.nonzero(np.diff(times) < -EVENT_TIME_EPSILON_NS)[0]
    if backwards.size:
        i = int(backwards[0])
        out.error(
            "event-times",
            f"event {i + 1} goes backwards in time "
            f"({times[i + 1]} < {times[i]})",
            count=int(backwards.size),
        )


def _check_sample_times(trace: Trace, out: _Collector) -> None:
    out.ran("sample-times")
    t = trace.sample_table().time_ns
    if t.size == 0:
        return
    if not np.isfinite(t).all():
        out.error("sample-times", "non-finite sample timestamp")
        return
    if float(t.min()) < 0:
        out.error("sample-times", "negative sample timestamp")
    backwards = np.nonzero(np.diff(t) < 0)[0]
    if backwards.size:
        out.error(
            "sample-times",
            f"sample table not time-sorted (first at row {int(backwards[0]) + 1})",
            count=int(backwards.size),
        )


def _check_regions(trace: Trace, out: _Collector) -> None:
    out.ran("regions")
    # The event index already grouped enter/exit events by name in one
    # pass; interval matching per name runs on each name's own stream.
    events = trace.index().events
    for name in events.region_names:
        try:
            events.region_intervals(name)
        except ValueError as exc:
            out.error("regions", str(exc))


def _merged_object_intervals(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Union of all object ranges as disjoint sorted intervals."""
    spans = sorted((o.start, o.end) for o in trace.objects)
    starts: list[int] = []
    ends: list[int] = []
    for lo, hi in spans:
        if starts and lo <= ends[-1]:
            ends[-1] = max(ends[-1], hi)
        else:
            starts.append(lo)
            ends.append(hi)
    return (
        np.array(starts, dtype=np.uint64),
        np.array(ends, dtype=np.uint64),
    )


def _check_addresses(
    trace: Trace, out: _Collector, min_matched_fraction: float
) -> None:
    out.ran("addresses")
    addr = trace.sample_table().address
    if addr.size == 0:
        return
    bad = np.count_nonzero((addr == 0) | (addr >= _CANONICAL_LIMIT))
    if bad:
        out.error(
            "addresses",
            "sample address is null or non-canonical (>= 2^48)",
            count=int(bad),
        )
    if not trace.objects:
        out.warning("addresses", "trace has no object records to match against")
        return
    starts, ends = _merged_object_intervals(trace)
    idx = np.searchsorted(starts, addr, side="right") - 1
    matched = (idx >= 0) & (addr < ends[np.maximum(idx, 0)])
    fraction = float(matched.mean())
    if fraction < min_matched_fraction:
        out.warning(
            "addresses",
            f"only {fraction * 100:.1f}% of samples fall inside known "
            f"object ranges (threshold {min_matched_fraction * 100:.0f}%)",
            count=int((~matched).sum()),
        )


def _check_sources(
    trace: Trace,
    out: _Collector,
    hierarchy: HierarchyConfig | None,
    sampler: str,
) -> None:
    out.ran("sources")
    src = trace.sample_table().source
    if src.size == 0:
        return
    values = np.unique(src)
    known = {int(s) for s in DataSource}
    unknown = [int(v) for v in values if int(v) not in known]
    if unknown:
        out.error(
            "sources",
            f"sample source codes {unknown} are not DataSource values",
            count=int(np.isin(src, unknown).sum()),
        )
    if hierarchy is not None:
        # Legality is backend-aware: the SPE backend's NUMA model may
        # emit remote-access codes; the single-socket PEBS model never
        # does.  Unknown codes fail above regardless of backend.
        legal = {
            int(s) for s in hierarchy.legal_sources(remote=sampler == "spe")
        }
        illegal = [int(v) for v in values if int(v) in known and int(v) not in legal]
        if illegal:
            pretty = [DataSource(v).pretty for v in illegal]
            out.error(
                "sources",
                f"sources {pretty} are illegal for a "
                f"{len(hierarchy.levels)}-level hierarchy "
                f"({sampler} backend)",
                count=int(np.isin(src, illegal).sum()),
            )


def _check_intern_tables(trace: Trace, out: _Collector) -> None:
    out.ran("intern-tables")
    table = trace.sample_table()
    if table.n == 0:
        return
    cs = table.callstack_id
    n_cs = trace.n_callstacks
    bad_cs = np.count_nonzero((cs < 0) | (cs >= n_cs))
    if bad_cs:
        out.error(
            "intern-tables",
            f"callstack_id outside [0, {n_cs})",
            count=int(bad_cs),
        )
    lbl = table.label_id
    n_lbl = len(trace.labels)
    bad_lbl = np.count_nonzero((lbl < 0) | (lbl >= n_lbl))
    if bad_lbl:
        out.error(
            "intern-tables", f"label_id outside [0, {n_lbl})", count=int(bad_lbl)
        )
    ops = {int(o) for o in MemOp}
    bad_op = np.count_nonzero(~np.isin(table.op, list(ops)))
    if bad_op:
        out.error("intern-tables", "op is not a MemOp code", count=int(bad_op))
    lat = table.latency
    bad_lat = np.count_nonzero(~np.isfinite(lat) | (lat < 0))
    if bad_lat:
        out.error(
            "intern-tables",
            "latency is negative or non-finite",
            count=int(bad_lat),
        )


def _check_objects(trace: Trace, out: _Collector) -> None:
    out.ran("objects")
    for o in trace.objects:
        if o.time_ns < 0:
            out.error("objects", f"object {o.name!r} has negative timestamp")
    # ObjectRecord.__post_init__ already guarantees start < end and a
    # known kind, so only cross-record properties remain to check here.
    # Dynamic records may legitimately overlap (the allocator reuses
    # freed chunks) and groups span their members by design; static
    # symbols, however, must be disjoint.
    spans = sorted(
        (o.start, o.end, o.name) for o in trace.objects if o.kind == "static"
    )
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            out.warning(
                "objects",
                f"static objects {n0!r} and {n1!r} overlap "
                f"([{s0:#x},{e0:#x}) vs [{s1:#x},{e1:#x}))",
            )


def _check_fold_mass(trace: Trace, out: _Collector) -> None:
    # Only meaningful when the trace has foldable iteration structure.
    if len(trace.iteration_times()) < 2:
        return
    out.ran("fold-mass")
    from repro.folding.detect import instances_from_iterations
    from repro.folding.fold import count_in_instances, fold_samples

    table = trace.sample_table()
    try:
        instances = instances_from_iterations(trace)
        folded = fold_samples(table, instances)
    except ValueError as exc:
        out.error("fold-mass", f"folding failed: {exc}")
        return
    expected = count_in_instances(table, instances)
    if folded.n != expected:
        out.error(
            "fold-mass",
            f"folding lost or duplicated samples "
            f"({expected} inside instances, {folded.n} folded)",
        )
    if folded.n:
        if float(folded.sigma.min()) < 0 or float(folded.sigma.max()) >= 1.0:
            out.error("fold-mass", "folded sigma outside [0, 1)")
        for name, frac in folded.fractions.items():
            bad = np.count_nonzero((frac < 0) | (frac > 1))
            if bad:
                out.error(
                    "fold-mass",
                    f"counter fraction {name!r} outside [0, 1]",
                    count=int(bad),
                )


def validate_trace(
    trace: Trace,
    hierarchy: HierarchyConfig | None = None,
    *,
    fold: bool = True,
    min_matched_fraction: float = 0.05,
    sampler: str | None = None,
) -> ValidationReport:
    """Run every applicable invariant check over *trace*.

    Parameters
    ----------
    trace:
        A finalized (or loaded) trace.
    hierarchy:
        When given, sample sources are additionally restricted to
        :meth:`HierarchyConfig.legal_sources`; without it only
        membership in :class:`DataSource` is required.
    fold:
        Run the folding mass-conservation check (needs ≥ 2 iteration
        markers; skipped otherwise).  Disable for huge traces where
        folding twice is too expensive.
    min_matched_fraction:
        Below this fraction of samples matched to known object ranges
        the ``addresses`` check emits a warning.
    sampler:
        Sampling backend the trace was recorded with, governing which
        data sources are legal (the SPE backend's remote-access codes
        pass; they are corruption in a PEBS trace).  Default: the
        trace's own ``sampler`` metadata, falling back to PEBS —
        traces written before the sampler abstraction carry no key.
    """
    if sampler is None:
        sampler = str(trace.metadata.get("sampler", "pebs"))
    out = _Collector()
    _check_event_times(trace, out)
    _check_sample_times(trace, out)
    _check_regions(trace, out)
    _check_addresses(trace, out, min_matched_fraction)
    _check_sources(trace, out, hierarchy, sampler)
    _check_intern_tables(trace, out)
    _check_objects(trace, out)
    if fold:
        _check_fold_mass(trace, out)
    return ValidationReport(
        n_samples=trace.n_samples,
        n_events=len(trace.events),
        n_objects=len(trace.objects),
        checks=out.checks,
        issues=out.issues,
    )
