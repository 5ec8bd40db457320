"""Sample projection onto the normalized instance timeline.

Every retained sample gets

* ``sigma`` — its position inside its instance, normalized to [0, 1);
* ``instance`` — which instance it came from;
* one *normalized cumulative fraction* per counter — how much of the
  instance's total count had accrued by the sample, in [0, 1].

Counter values at instance boundaries are interpolated from the
cumulative counter readings the samples carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS
from repro.extrae.trace import SampleTable
from repro.folding.detect import FoldInstances

__all__ = [
    "CounterBounds",
    "FoldedSamples",
    "count_in_instances",
    "fold_samples",
    "linear_sigma",
    "project",
]


def _inside_mask(
    t: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample instance index and inside-any-instance mask.

    ``starts`` must be sorted ascending (instance intervals are
    disjoint and time-ordered by construction).
    """
    idx = np.searchsorted(starts, t, side="right") - 1
    inside = (idx >= 0) & (t < ends[np.maximum(idx, 0)])
    return idx, inside


def linear_sigma(
    t: np.ndarray, idx: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """σ of samples at times *t* in instances *idx*: the linear
    per-instance projection onto [0, 1).

    The one σ expression of every linear fold path, so their
    projections agree bit for bit.
    """
    return (t - starts[idx]) / (ends[idx] - starts[idx])


def project(
    t: np.ndarray, instances: FoldInstances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear projection of sample times *t* onto the folded axis.

    Returns ``(inside, idx, sigma)``: the mask of samples inside any
    instance, and each kept sample's instance index and σ.
    """
    starts, ends = instances.starts_ns, instances.ends_ns
    idx, inside = _inside_mask(t, starts, ends)
    idx = idx[inside]
    return inside, idx, linear_sigma(t[inside], idx, starts, ends)


class CounterBounds:
    """One counter's per-instance boundary bookkeeping.

    From the cumulative readings at the instance starts and ends:
    ``totals``, the raw increment clamped at zero; ``degenerate``, the
    mask of non-positive raw increments (a flat counter, or
    interpolation noise); and ``denom``, the fraction denominator (raw
    clamped at 1e-12).  This is the *single* clamp site: the resident
    fold, the streaming accumulator, the extrapolated fold and the
    instance signatures all derive their totals, flags and fractions
    here, so incremental accumulation cannot drift from the
    whole-trace computation.
    """

    def __init__(self, start: np.ndarray, end: np.ndarray) -> None:
        raw = end - start
        self.start = start
        self.totals = np.maximum(raw, 0.0)
        self.degenerate = raw <= 0.0
        self.denom = np.maximum(raw, 1e-12)

    @classmethod
    def interpolate(
        cls, t: np.ndarray, series: np.ndarray, instances: FoldInstances
    ) -> "CounterBounds":
        """Readings interpolated from the whole series at the boundaries.

        A trace with no samples reads zero everywhere (there is nothing
        to interpolate from).
        """
        starts, ends = instances.starts_ns, instances.ends_ns
        if not t.size:
            return cls(np.zeros_like(starts), np.zeros_like(ends))
        return cls(np.interp(starts, t, series), np.interp(ends, t, series))

    def fractions(self, value: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Cumulative fractions in [0, 1] of readings *value* taken in
        instances *idx*."""
        return np.clip((value - self.start[idx]) / self.denom[idx], 0.0, 1.0)


def count_in_instances(table: SampleTable, instances: FoldInstances) -> int:
    """Number of samples of *table* that fall inside any instance.

    This is the sample mass :func:`fold_samples` must conserve: every
    in-instance sample appears in the folded output exactly once, and
    no out-of-instance sample does.  The validator
    (:mod:`repro.validate.invariants`) checks the two agree.
    """
    _, inside = _inside_mask(table.time_ns, instances.starts_ns, instances.ends_ns)
    return int(inside.sum())


@dataclass
class FoldedSamples:
    """Samples of all instances on the common normalized axis."""

    instances: FoldInstances
    #: subset of the trace's sample table that falls inside instances
    table: SampleTable
    sigma: np.ndarray
    instance: np.ndarray
    #: counter name -> per-sample cumulative fraction in [0, 1]
    fractions: dict[str, np.ndarray] = field(default_factory=dict)
    #: counter name -> per-instance total increment (clamped at 0; see
    #: ``degenerate`` for the instances whose raw increment was not
    #: positive)
    totals: dict[str, np.ndarray] = field(default_factory=dict)
    #: counter name -> per-instance mask of degenerate (non-positive)
    #: raw increments — a flat counter, or boundary-interpolation noise
    degenerate: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    def counter_total_mean(self, name: str) -> float:
        """Mean per-instance increment of a counter."""
        return float(self.totals[name].mean())

    def select(self, mask: np.ndarray) -> "FoldedSamples":
        return FoldedSamples(
            instances=self.instances,
            table=self.table.select(mask),
            sigma=self.sigma[mask],
            instance=self.instance[mask],
            fractions={k: v[mask] for k, v in self.fractions.items()},
            totals=self.totals,
            degenerate=self.degenerate,
        )


def fold_samples(
    table: SampleTable,
    instances: FoldInstances,
    warp=None,
) -> FoldedSamples:
    """Project *table*'s samples onto the folded axis of *instances*.

    Samples outside every instance (setup, finalization, pruned
    instances) are dropped.

    Parameters
    ----------
    warp:
        Optional :class:`repro.folding.align.TimeWarp` replacing the
        linear per-instance projection with a piecewise control-point
        alignment.
    """
    t = table.time_ns
    starts = instances.starts_ns
    ends = instances.ends_ns

    idx, inside = _inside_mask(t, starts, ends)
    idx = idx[inside]
    kept = table.select(inside)
    tk = kept.time_ns
    if warp is None:
        sigma = linear_sigma(tk, idx, starts, ends)
    else:
        if warp.n_instances != instances.n:
            raise ValueError(
                f"warp covers {warp.n_instances} instances, fold has {instances.n}"
            )
        sigma = np.empty(tk.shape, dtype=np.float64)
        for i in range(instances.n):
            sel = idx == i
            if sel.any():
                sigma[sel] = warp.sigma(i, tk[sel])

    # Interpolate cumulative counters at instance boundaries from the
    # full (unfiltered) sample stream, then normalize per instance.
    # A counter that did not move over an instance (or moved backwards
    # under interpolation noise) has no cumulative direction: its raw
    # increment is clamped to zero in ``totals`` — the same clamp the
    # fraction denominator applies — and the instance is flagged in
    # ``degenerate`` so downstream consumers can tell "genuinely zero
    # rate" from "tiny but real".
    fractions: dict[str, np.ndarray] = {}
    totals: dict[str, np.ndarray] = {}
    degenerate: dict[str, np.ndarray] = {}
    for name in SAMPLE_COUNTERS:
        bounds = CounterBounds.interpolate(t, table.column(name), instances)
        totals[name] = bounds.totals
        degenerate[name] = bounds.degenerate
        fractions[name] = bounds.fractions(kept.column(name), idx)

    return FoldedSamples(
        instances=instances,
        table=kept,
        sigma=sigma,
        instance=idx,
        fractions=fractions,
        totals=totals,
        degenerate=degenerate,
    )
