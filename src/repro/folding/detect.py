"""Instance detection: which time intervals get folded together.

The folded region's instances come either from explicit iteration
markers (the instrumented CG loop) or from repeated occurrences of an
instrumented region.  Instances whose duration deviates strongly from
the median are pruned — perturbed instances (OS noise, first-touch
effects) would smear the folded curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.extrae.trace import Trace

__all__ = [
    "FoldInstances",
    "fold_instances",
    "instances_from_iterations",
    "instances_from_regions",
    "sorted_median",
]


def sorted_median(values: np.ndarray) -> float:
    """``np.median(values)`` from a sorted copy, without the import of
    ``numpy.ma`` that ``np.median`` makes on its first call."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(
        ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    )


@dataclass(frozen=True)
class FoldInstances:
    """The instances to fold: ``intervals[i] = (t0, t1)`` in ns."""

    name: str
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError(f"no instances to fold for {self.name!r}")
        for t0, t1 in self.intervals:
            if t1 <= t0:
                raise ValueError(f"empty instance [{t0}, {t1})")
        starts = [t0 for t0, _ in self.intervals]
        if sorted(starts) != starts:
            raise ValueError("instances must be sorted by start time")

    @property
    def n(self) -> int:
        return len(self.intervals)

    # The boundary arrays are consulted on every projection/counting
    # pass (fold_samples, count_in_instances, plans), so they are built
    # once per instance set instead of per call.  cached_property
    # writes straight into __dict__, which a frozen dataclass permits.
    @cached_property
    def starts_ns(self) -> np.ndarray:
        """Instance start times as a read-only array."""
        starts = np.array([t0 for t0, _ in self.intervals], dtype=np.float64)
        starts.setflags(write=False)
        return starts

    @cached_property
    def ends_ns(self) -> np.ndarray:
        """Instance end times as a read-only array."""
        ends = np.array([t1 for _, t1 in self.intervals], dtype=np.float64)
        ends.setflags(write=False)
        return ends

    @property
    def durations_ns(self) -> np.ndarray:
        return self.ends_ns - self.starts_ns

    @property
    def mean_duration_ns(self) -> float:
        return float(self.durations_ns.mean())

    def prune_outliers(self, tolerance: float = 0.25) -> "FoldInstances":
        """Drop instances whose duration deviates from the median by
        more than *tolerance* (relative)."""
        durations = self.durations_ns
        median = sorted_median(durations)
        keep = np.abs(durations - median) <= tolerance * median
        if not keep.any():
            raise ValueError("outlier pruning removed every instance")
        kept = tuple(iv for iv, k in zip(self.intervals, keep) if k)
        return FoldInstances(self.name, kept)


def instances_from_iterations(
    trace: Trace,
    name: str = "",
    end_marker: str = "execution_phase_end",
) -> FoldInstances:
    """Instances delimited by consecutive ITERATION markers.

    The last instance ends at *end_marker* (if present) or at the
    trace's end.
    """
    times = trace.iteration_times(name)
    if len(times) < 1:
        raise ValueError(f"trace has no iteration markers{f' named {name!r}' if name else ''}")
    end = trace.index().events.first_time_named(end_marker)
    if end is None:
        end = trace.duration_ns()
    edges = times + [end]
    intervals = tuple(
        (t0, t1) for t0, t1 in zip(edges, edges[1:]) if t1 > t0
    )
    return FoldInstances(name or "iteration", intervals)


def fold_instances(
    trace: Trace,
    prune_tolerance: float | None = 0.5,
    instances: FoldInstances | None = None,
) -> FoldInstances:
    """The instances a fold folds.

    *instances* (default: the iteration markers',
    :func:`instances_from_iterations`), with outliers pruned at
    *prune_tolerance* when it is set and there are at least three
    instances.  The resident plan, the streamed passes and the
    representative selection all take their instances here, so a
    streamed or extrapolated fold and the exact fold it stands in for
    agree on the instance set.
    """
    if instances is None:
        instances = instances_from_iterations(trace)
    if prune_tolerance is not None and instances.n >= 3:
        instances = instances.prune_outliers(prune_tolerance)
    return instances


def instances_from_regions(trace: Trace, region: str) -> FoldInstances:
    """Instances = the occurrences of an instrumented region.

    For recursive regions only the outermost occurrences are folded.
    """
    intervals = trace.region_intervals(region)
    if not intervals:
        raise ValueError(f"region {region!r} never occurs in the trace")
    outer: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if outer and t0 < outer[-1][1]:
            continue  # nested inside the previous outer occurrence
        outer.append((t0, t1))
    return FoldInstances(region, tuple(outer))
