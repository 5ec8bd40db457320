"""Phase segmentation of a folded HPCG iteration.

Figure 1 annotates each iteration as::

    A (a1 a2)   B      C          D (d1 d2)   E
    SYMGS       SPMV   coarse MG  SYMGS       SPMV

where A/D are the fine-level pre/post-smoothing calls inside the MG
preconditioner (each a forward sweep a1/d1 followed by a backward sweep
a2/d2), B is the fine-level residual SPMV inside MG, C is the recursion
onto the coarser levels, and E is CG's own SPMV.  This module derives
those σ windows from the instrumented region events, averaged across
instances, and splits the SYMGS phases into their two sweeps using the
sample labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.events import EventKind
from repro.extrae.trace import Trace
from repro.folding.detect import FoldInstances, sorted_median
from repro.folding.fold import FoldedSamples

__all__ = ["IterationPhases", "Phase", "segment_iteration"]


@dataclass(frozen=True)
class Phase:
    """One labelled σ window of the folded iteration."""

    label: str
    region: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(f"phase {self.label!r} has empty window")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, sigma: float) -> bool:
        return self.lo <= sigma < self.hi


@dataclass
class IterationPhases:
    """All phases of the folded iteration, in σ order."""

    phases: list[Phase] = field(default_factory=list)

    def __iter__(self):
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def get(self, label: str) -> Phase:
        for p in self.phases:
            if p.label == label:
                return p
        raise KeyError(f"no phase labelled {label!r}")

    def labels(self) -> list[str]:
        return [p.label for p in self.phases]

    def major_sequence(self) -> list[str]:
        """The top-level sequence (A B C D E, no sweep sublabels)."""
        return [p.label for p in self.phases if len(p.label) == 1]


def _region_spans(trace: Trace, t0: float, t1: float) -> list[tuple[str, float, float]]:
    """(name, enter, exit) of every region occurrence within [t0, t1)."""
    stack: list[tuple[str, float]] = []
    spans: list[tuple[str, float, float]] = []
    for ev in trace.events:
        if ev.time_ns < t0 or ev.time_ns > t1:
            continue
        if ev.kind == EventKind.REGION_ENTER:
            stack.append((ev.name, ev.time_ns))
        elif ev.kind == EventKind.REGION_EXIT:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == ev.name:
                    name, enter = stack.pop(i)
                    spans.append((name, enter, ev.time_ns))
                    break
    spans.sort(key=lambda s: s[1])
    return spans


def _contains(outer: tuple[float, float], inner: tuple[float, float]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _instance_phases(trace: Trace, t0: float, t1: float) -> dict[str, tuple[float, float]]:
    """Absolute-time phase windows of one instance."""
    spans = _region_spans(trace, t0, t1)
    mgs = [(a, b) for n, a, b in spans if n == "ComputeMG_ref"]
    if not mgs:
        raise ValueError("instance has no ComputeMG_ref region")
    outer = max(mgs, key=lambda iv: iv[1] - iv[0])
    inner = [iv for iv in mgs if iv != outer and _contains(outer, iv)]
    # Only the top-most nested MG call is C; deeper recursion nests in it.
    inner_top = [
        iv for iv in inner if not any(_contains(other, iv) for other in inner if other != iv)
    ]

    def in_outer_not_inner(iv):
        return _contains(outer, iv) and not any(_contains(i, iv) for i in inner_top)

    symgs = [
        (a, b) for n, a, b in spans if n == "ComputeSYMGS_ref" and in_outer_not_inner((a, b))
    ]
    spmv_in = [
        (a, b) for n, a, b in spans if n == "ComputeSPMV_ref" and in_outer_not_inner((a, b))
    ]
    spmv_out = [
        (a, b)
        for n, a, b in spans
        if n == "ComputeSPMV_ref" and not _contains(outer, (a, b))
    ]
    out: dict[str, tuple[float, float]] = {}
    if symgs:
        out["A"] = symgs[0]
    if spmv_in:
        out["B"] = spmv_in[0]
    if inner_top:
        out["C"] = inner_top[0]
    if len(symgs) >= 2:
        out["D"] = symgs[-1]
    if spmv_out:
        out["E"] = spmv_out[0]
    return out


def segment_iteration(
    trace: Trace,
    instances: FoldInstances,
    folded: FoldedSamples | None = None,
) -> IterationPhases:
    """Average the per-instance phase windows onto the σ axis.

    With *folded* supplied, the SYMGS phases A and D are additionally
    split into their forward/backward sweeps (a1/a2, d1/d2) using the
    ``symgs_forward``/``symgs_backward`` sample labels.
    """
    acc: dict[str, list[tuple[float, float]]] = {}
    for t0, t1 in instances.intervals:
        span = t1 - t0
        for label, (a, b) in _instance_phases(trace, t0, t1).items():
            acc.setdefault(label, []).append(((a - t0) / span, (b - t0) / span))
    phases: list[Phase] = []
    region_of = {
        "A": "ComputeSYMGS_ref",
        "B": "ComputeSPMV_ref",
        "C": "ComputeMG_ref",
        "D": "ComputeSYMGS_ref",
        "E": "ComputeSPMV_ref",
    }
    for label in ("A", "B", "C", "D", "E"):
        if label not in acc:
            continue
        windows = np.array(acc[label])
        phases.append(
            Phase(label, region_of[label], float(windows[:, 0].mean()),
                  float(windows[:, 1].mean()))
        )
    result = IterationPhases(phases)

    if folded is not None:
        sublabels = []
        for parent, fwd_name, bwd_name in (
            ("A", "a1", "a2"),
            ("D", "d1", "d2"),
        ):
            try:
                phase = result.get(parent)
            except KeyError:
                continue
            split = _split_sweeps(folded, phase)
            if split is not None:
                mid = split
                sublabels.append(Phase(fwd_name, phase.region, phase.lo, mid))
                sublabels.append(Phase(bwd_name, phase.region, mid, phase.hi))
        result.phases.extend(sublabels)
        result.phases.sort(key=lambda p: (p.lo, p.hi))
    return result


def _split_sweeps(folded: FoldedSamples, phase: Phase) -> float | None:
    """σ of the forward→backward transition within a SYMGS phase."""
    # Find the label ids of the two sweeps from the folded table.
    sigma = folded.sigma
    in_phase = (sigma >= phase.lo) & (sigma < phase.hi)
    if not in_phase.any():
        return None
    labels = folded.table.label_id[in_phase]
    sig = sigma[in_phase]
    # The forward sweep occupies the early part: its last sample's σ is
    # the boundary.  Identify the forward label as the one whose σ
    # median is smaller.  (``return_counts`` and the sorted median keep
    # ``numpy.ma`` unimported, as on the fold path.)
    ids, _ = np.unique(labels, return_counts=True)
    if ids.size < 2:
        return None
    medians = {int(i): sorted_median(sig[labels == i]) for i in ids}
    first = min(medians, key=medians.get)
    boundary = float(sig[labels == first].max())
    if not phase.lo < boundary < phase.hi:
        return None
    return boundary
