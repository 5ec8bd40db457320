"""Per-instance access-pattern signatures: the "memory access vector".

Representative-instance sampling needs a cheap way to tell which
instances of a folded region behave alike.  Following the memory-
access-vector idea (arXiv 2506.02344), each instance gets one feature
vector summarizing its access pattern:

* **counter deltas** — per-counter increment rate over the instance,
  from the same boundary bookkeeping the exact fold uses
  (:class:`repro.folding.fold.CounterBounds`);
* **data-source mix** — the fraction of the instance's samples served
  by each memory-hierarchy level (:class:`repro.extrae.schema.DataSource`);
* **op-kind mix** — load/store sample fractions;
* **duration, sample count, mean latency** — scalar shape features.

Everything is computed in a handful of vectorized passes over the
time-sorted sample table: instance membership is two ``searchsorted``
calls against the :class:`~repro.folding.detect.FoldInstances`
boundaries (the row groups a :class:`~repro.extrae.index.TraceIndex`
time window would hand out), and the categorical mixes are one
``bincount`` each — no per-sample Python, O(instances) feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS, DataSource, MemOp
from repro.extrae.trace import Trace
from repro.folding.detect import FoldInstances
from repro.folding.fold import CounterBounds

__all__ = ["InstanceSignatures", "instance_sample_rows", "instance_signatures"]

#: Row cap for the categorical-mix features.  Above this, latency and
#: source/op mixes are estimated on a deterministic stride subsample —
#: the mixes are per-instance *fractions*, so a uniform-in-time stride
#: preserves them while keeping signature extraction O(cap) instead of
#: O(n_samples) on dense traces.  Counter deltas, durations and sample
#: counts always stay exact.
DEFAULT_SIGNATURE_ROWS = 1 << 18


def instance_sample_rows(
    t: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the time-sorted samples inside each ``[start, end)``.

    Returns ``(rows, idx)``: the ascending row indices of every sample
    falling inside one of the (disjoint, start-sorted — the
    :class:`~repro.folding.detect.FoldInstances` construction
    guarantees both) intervals, and each row's interval index.  For the
    full interval set this selects exactly the samples the exact fold's
    inside-mask keeps, in the same order — two ``searchsorted`` calls
    plus O(kept) assembly instead of an O(n_samples) mask.
    """
    lo = np.searchsorted(t, starts, side="left")
    hi = np.searchsorted(t, ends, side="left")
    counts = hi - lo
    total = int(counts.sum())
    idx = np.repeat(np.arange(starts.size), counts)
    if total == 0:
        return np.empty(0, dtype=np.int64), idx
    rows = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        + np.repeat(lo, counts)
    )
    return rows, idx


@dataclass(frozen=True)
class InstanceSignatures:
    """One access-pattern feature vector per fold instance."""

    instances: FoldInstances
    feature_names: tuple[str, ...]
    #: ``(n_instances, n_features)`` raw feature matrix
    features: np.ndarray

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def normalized(self) -> np.ndarray:
        """Z-scored features (constant columns become exactly zero).

        The clustering distance should not be dominated by whichever
        feature happens to carry the largest units, so each column is
        centered and scaled by its standard deviation.
        """
        mean = self.features.mean(axis=0)
        std = self.features.std(axis=0)
        scale = np.where(std > 0.0, std, 1.0)
        return (self.features - mean) / scale


def instance_signatures(
    trace: Trace,
    instances: FoldInstances,
    max_rows: int | None = DEFAULT_SIGNATURE_ROWS,
) -> InstanceSignatures:
    """Compute the per-instance signature matrix of *instances*.

    Counter deltas come from the identical boundary interpolation the
    exact fold performs; categorical mixes are fractions of each
    instance's own samples (an instance without samples gets an all-zero
    mix, distinguishing it through the count/duration features instead).
    On traces with more than *max_rows* in-instance samples the mixes
    and mean latency are estimated on a deterministic stride subsample
    (``max_rows=None`` disables the cap); duration, sample count and
    counter-delta features are always exact.
    """
    table = trace.sample_table()
    t = table.time_ns
    starts = instances.starts_ns
    ends = instances.ends_ns
    durations = instances.durations_ns
    n_inst = instances.n

    names: list[str] = []
    columns: list[np.ndarray] = []

    for name in SAMPLE_COUNTERS:
        totals = CounterBounds.interpolate(t, table.column(name), instances).totals
        names.append(f"{name}_per_ns")
        columns.append(totals / durations)

    rows, idx = instance_sample_rows(t, starts, ends)
    counts = np.bincount(idx, minlength=n_inst).astype(np.float64)

    names.append("duration_ns")
    columns.append(durations.astype(np.float64))
    names.append("n_samples")
    columns.append(counts)

    if max_rows is not None and rows.size > max_rows:
        stride = -(-rows.size // max_rows)
        rows, idx = rows[::stride], idx[::stride]
        denom = np.maximum(
            np.bincount(idx, minlength=n_inst).astype(np.float64), 1.0
        )
    else:
        denom = np.maximum(counts, 1.0)

    latency = table.latency[rows].astype(np.float64)
    names.append("latency_mean")
    columns.append(np.bincount(idx, weights=latency, minlength=n_inst) / denom)

    n_src = int(max(DataSource)) + 1
    src = table.source[rows].astype(np.int64)
    src_mix = np.bincount(
        idx * n_src + src, minlength=n_inst * n_src
    ).reshape(n_inst, n_src)
    for code in DataSource:
        names.append(f"src_{code.name.lower()}")
        columns.append(src_mix[:, int(code)] / denom)

    op = table.op[rows].astype(np.int64)
    n_ops = int(max(MemOp)) + 1
    op_mix = np.bincount(
        idx * n_ops + op, minlength=n_inst * n_ops
    ).reshape(n_inst, n_ops)
    for kind in MemOp:
        names.append(f"op_{kind.name.lower()}")
        columns.append(op_mix[:, int(kind)] / denom)

    return InstanceSignatures(
        instances=instances,
        feature_names=tuple(names),
        features=np.column_stack(columns),
    )
