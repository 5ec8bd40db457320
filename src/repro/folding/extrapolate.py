"""Extrapolated folds: fold only representatives, reweight, bound error.

The expensive half of a fold is per-sample — projecting every kept
sample onto σ and aggregating the kernel-regression design.  With a
:class:`~repro.folding.reps.Representatives` selection the design is
built **only from the medoid instances' samples**, each weighted by its
cluster size, so the per-sample cost scales with the representative
budget instead of the instance count.  Per-instance *totals* and
degenerate flags stay exact for every instance: they come from the same
O(instances) boundary interpolation the exact fold performs, so the
extrapolation only ever approximates curve *shape*, never the
bookkeeping the validator checks.

Exactness contract (the ``rep_budget = n_instances`` acceptance test):
with an exhaustive selection the weighted pipeline degenerates to the
exact fold **bit for bit** —

* the per-instance searchsorted slices select the exact-fold rows in
  the same time order;
* σ and the cumulative fractions use the same functions over the
  same boundary readings (:func:`~repro.folding.fold.linear_sigma`,
  :class:`~repro.folding.fold.CounterBounds`);
* all-ones weights through :func:`~repro.util.pava.make_design` are
  value-identical to the unweighted design (multiplying by 1.0 is
  exact), and weighted means ``(v·w).sum()/w.sum()`` with unit weights
  reproduce ``v.mean()`` to the last bit (same pairwise summation);

so :func:`~repro.folding.stream.fold_digest` of the extrapolated fold
equals the exact fold's digest.  The property suite and the ``reps``
benchmark scenario (``benchmarks/perf/bench_reps.py``) enforce this.

For ``budget < n`` the fidelity loss is **measured, not assumed**:
:func:`measure_fidelity` folds both ways and reports per-counter max
relative curve error plus totals error as a :class:`FidelityBound` —
computed on small digest-checked runs, carried as metadata on large
ones (the memory-access-vectors protocol, arXiv 2506.02344).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS
from repro.extrae.trace import Trace
from repro.folding.detect import FoldInstances, fold_instances
from repro.folding.fold import CounterBounds, fold_samples, linear_sigma
from repro.folding.model import FoldedCounters, fit_counter_curves, fold_counters
from repro.folding.reps import Representatives, select_representatives
from repro.folding.signatures import instance_sample_rows
from repro.folding.spec import REPRESENTATIVE
from repro.folding.stream import StreamedFold
from repro.util.pava import make_design

__all__ = [
    "ExtrapolatedFold",
    "FidelityBound",
    "exact_performance_fold",
    "extrapolated_fold",
    "measure_fidelity",
]


@dataclass(frozen=True)
class FidelityBound:
    """Measured error of an extrapolated fold vs. the exact fold.

    The headline bound is ``curve_error``: the per-counter maximum
    pointwise distance between the extrapolated and exact *cumulative*
    curves.  Both curves live in [0, 1] by construction, so this is a
    relative error (a Kolmogorov–Smirnov-style distance over σ) — the
    statistic the ≤2% bench tripwire gates on.  ``rate_error`` is the
    same maximum over the derived rate curves, normalized by the exact
    peak rate; it is reported as a diagnostic only, because a sharp
    phase transition whose σ position jitters between instances moves
    the max pointwise *derivative* error by the full step height even
    when the folds agree everywhere else.
    """

    budget: int
    n_instances: int
    seed: int
    #: counter -> max |F_ext(σ) − F_exact(σ)| over the cumulative curves
    curve_error: dict[str, float]
    #: counter -> max |rate_ext − rate_exact| / max |rate_exact|
    rate_error: dict[str, float]
    #: counter -> |total_ext − total_exact| / |total_exact|
    total_error: dict[str, float]
    exact_digest: str
    extrapolated_digest: str

    @property
    def max_curve_error(self) -> float:
        return max(self.curve_error.values())

    @property
    def max_rate_error(self) -> float:
        return max(self.rate_error.values())

    @property
    def max_total_error(self) -> float:
        return max(self.total_error.values())

    @property
    def digest_match(self) -> bool:
        """True iff the two folds are bit-identical (exhaustive budget)."""
        return self.exact_digest == self.extrapolated_digest

    def summary(self) -> str:
        return (
            f"fidelity vs exact fold ({self.budget}/{self.n_instances} "
            f"instances, seed {self.seed}): max curve error "
            f"{self.max_curve_error * 100:.3f}%, max totals error "
            f"{self.max_total_error * 100:.3f}%"
            + (", digest-identical" if self.digest_match else "")
        )


@dataclass(frozen=True)
class ExtrapolatedFold:
    """A counters-only fold extrapolated from weighted representatives.

    Carries the performance-direction surface of
    :class:`~repro.folding.stream.StreamedFold`
    (instances/counters/totals/degenerate/n_folded), and takes its
    ``digest()`` and ``export_gnuplot()``.  ``instances``/``totals``/
    ``degenerate`` cover *all* instances — only the fitted curves are
    extrapolated.
    """

    instances: FoldInstances
    counters: FoldedCounters
    totals: dict[str, np.ndarray]
    degenerate: dict[str, np.ndarray]
    #: samples actually folded — the representatives' samples only
    n_folded: int
    representatives: Representatives
    #: measured error vs. the exact fold, when a harness computed one
    fidelity: FidelityBound | None = None

    fold_path: ClassVar[str] = REPRESENTATIVE
    digest = StreamedFold.digest
    export_gnuplot = StreamedFold.export_gnuplot

    def summary(self) -> str:
        reps = self.representatives
        parts = [
            f"Extrapolated fold over {self.instances.n} instances "
            f"of {self.instances.name!r}",
            f"  representatives folded: {reps.n_clusters} "
            f"(budget {reps.budget}, seed {reps.seed})",
            f"  mean instance duration: "
            f"{self.instances.mean_duration_ns / 1e6:.3f} ms",
            f"  samples folded: {self.n_folded}",
        ]
        if self.fidelity is not None:
            parts.append(f"  {self.fidelity.summary()}")
        return "\n".join(parts)


def extrapolated_fold(
    trace: Trace,
    representatives: Representatives,
    *,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
) -> ExtrapolatedFold:
    """Fold only *representatives*' samples, extrapolate by weight.

    ``fold_trace(trace, rep_budget=N)`` selects the representatives
    itself; a prebuilt selection (another region, seed or instance
    set) folds here, outside the cache.
    """
    table = trace.sample_table()
    t = table.time_ns
    instances = representatives.instances
    starts = instances.starts_ns
    ends = instances.ends_ns

    # Exact O(instances) bookkeeping over ALL instances, shared with
    # fold_samples.
    bounds = {
        name: CounterBounds.interpolate(t, table.column(name), instances)
        for name in counters
    }

    sel = representatives.indices
    w = representatives.weights
    rows, local = instance_sample_rows(t, starts[sel], ends[sel])
    if rows.size == 0:
        raise ValueError("representative instances contain no samples")
    g = sel[local]  # global instance index of every kept sample
    sigma = linear_sigma(t[rows], g, starts, ends)
    Y = np.empty((len(counters), rows.size), dtype=np.float64)
    for i, name in enumerate(counters):
        Y[i] = bounds[name].fractions(table.column(name)[rows], g)

    design = make_design(sigma, Y, weights=w[local])
    wsum = w.sum()
    fitted = fit_counter_curves(
        design,
        grid_points=grid_points,
        bandwidth=bandwidth,
        counters=tuple(counters),
        totals_mean={
            name: float((bounds[name].totals[sel] * w).sum() / wsum)
            for name in counters
        },
        duration_ns=float((instances.durations_ns[sel] * w).sum() / wsum),
    )
    return ExtrapolatedFold(
        instances=instances,
        counters=fitted,
        totals={name: b.totals for name, b in bounds.items()},
        degenerate={name: b.degenerate for name, b in bounds.items()},
        n_folded=int(rows.size),
        representatives=representatives,
    )


def exact_performance_fold(
    trace: Trace,
    *,
    instances: FoldInstances | None = None,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
) -> StreamedFold:
    """The exact counters-only fold the extrapolation is measured against.

    Runs the resident :func:`~repro.folding.fold.fold_samples` +
    :func:`~repro.folding.model.fold_counters` path (skipping the
    address/line directions) and wraps the result in the
    counters-only shape :func:`~repro.folding.stream.fold_digest`
    understands.
    """
    if instances is None:
        instances = fold_instances(trace, prune_tolerance)
    folded = fold_samples(trace.sample_table(), instances)
    fitted = fold_counters(
        folded, grid_points=grid_points, bandwidth=bandwidth
    )
    return StreamedFold(
        instances=instances,
        counters=fitted,
        totals=dict(folded.totals),
        degenerate=dict(folded.degenerate),
        n_folded=folded.n,
    )


def measure_fidelity(
    trace: Trace,
    budget: int,
    *,
    seed: int = 0,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
) -> tuple[ExtrapolatedFold, FidelityBound]:
    """Fold both ways and measure the extrapolation error.

    Returns the extrapolated fold (with its :class:`FidelityBound`
    attached) and the bound itself.  Intended for small digest-checked
    runs — on production-size traces, run the extrapolation alone and
    carry a bound measured on a scaled-down twin as metadata.
    """
    instances = fold_instances(trace, prune_tolerance)
    reps = select_representatives(
        trace, instances=instances, budget=budget, seed=seed
    )
    ext = extrapolated_fold(
        trace, reps, grid_points=grid_points, bandwidth=bandwidth
    )
    exact = exact_performance_fold(
        trace,
        instances=instances,
        grid_points=grid_points,
        bandwidth=bandwidth,
    )

    curve_error: dict[str, float] = {}
    rate_error: dict[str, float] = {}
    total_error: dict[str, float] = {}
    for name in exact.counters.curves:
        e = exact.counters[name]
        x = ext.counters[name]
        curve_error[name] = float(np.max(np.abs(x.cumulative - e.cumulative)))
        scale = float(np.max(np.abs(e.rate)))
        rate_error[name] = (
            float(np.max(np.abs(x.rate - e.rate))) / scale if scale > 0.0 else 0.0
        )
        total_error[name] = (
            abs(x.total_mean - e.total_mean) / abs(e.total_mean)
            if e.total_mean != 0.0
            else abs(x.total_mean)
        )

    bound = FidelityBound(
        budget=budget,
        n_instances=instances.n,
        seed=seed,
        curve_error=curve_error,
        rate_error=rate_error,
        total_error=total_error,
        exact_digest=exact.digest(),
        extrapolated_digest=ext.digest(),
    )
    return replace(ext, fidelity=bound), bound
