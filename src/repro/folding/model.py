"""Folded counter curves: the performance direction of the report.

For each hardware counter the folded samples give scattered points
``(sigma, cumulative fraction)``.  The model fits a smooth monotone
cumulative curve through them (Gaussian-kernel regression projected
onto the monotone cone with PAVA — the role Kriging plays in the
original tool) and differentiates it into an instantaneous *rate*.

Rates are reported in physically meaningful units:

* ``mips(σ)`` — millions of instructions per second of instance time;
* ``per_instruction(counter)(σ)`` — e.g. L3 misses per instruction,
  the bottom panel of the paper's Figure 1;
* ``ipc(σ)`` — instructions per cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.extrae.schema import SAMPLE_COUNTERS
from repro.folding.fold import FoldedSamples
from repro.util.pava import BinnedDesign, fit_design, make_design

__all__ = [
    "FoldedCounters",
    "FoldedCurve",
    "counter_design",
    "fit_counter_curves",
    "fold_counters",
]


@dataclass
class FoldedCurve:
    """One counter's folded evolution.

    Attributes
    ----------
    sigma:
        Normalized-time grid in [0, 1].
    cumulative:
        Monotone cumulative fraction fit, F(σ) ∈ [0, 1].
    rate:
        dF/dσ · (mean per-instance total) / (mean instance duration) —
        the instantaneous counter rate per nanosecond of instance time.
    total_mean:
        Mean per-instance increment of the counter.
    """

    name: str
    sigma: np.ndarray
    cumulative: np.ndarray
    rate: np.ndarray
    total_mean: float

    def at(self, sigma: float) -> float:
        """Rate at normalized time *sigma* (linear interpolation)."""
        return float(np.interp(sigma, self.sigma, self.rate))

    def mean_rate(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Average rate over a σ window."""
        mask = (self.sigma >= lo) & (self.sigma <= hi)
        if not mask.any():
            raise ValueError(f"empty window [{lo}, {hi}]")
        return float(self.rate[mask].mean())


@dataclass
class FoldedCounters:
    """All folded counter curves of one region."""

    curves: dict[str, FoldedCurve]
    duration_ns: float  # mean instance duration

    def __getitem__(self, name: str) -> FoldedCurve:
        return self.curves[name]

    def __contains__(self, name: str) -> bool:
        return name in self.curves

    @property
    def sigma(self) -> np.ndarray:
        return next(iter(self.curves.values())).sigma

    def mips(self) -> np.ndarray:
        """Instruction rate in MIPS along σ (rate is per ns)."""
        return self.curves["instructions"].rate * 1e3

    def per_instruction(self, name: str) -> np.ndarray:
        """Counter rate per instruction along σ (Fig. 1 bottom panel)."""
        instr = self.curves["instructions"].rate
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(instr > 0, self.curves[name].rate / instr, 0.0)
        return out

    def ipc(self) -> np.ndarray:
        """Instructions per cycle along σ."""
        cyc = self.curves["cycles"].rate
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(cyc > 0, self.curves["instructions"].rate / cyc, 0.0)

    def window_duration_ns(self, lo: float, hi: float) -> float:
        """Wall-clock length of a σ window in the mean instance."""
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"bad window [{lo}, {hi}]")
        return (hi - lo) * self.duration_ns

    def digest(self) -> str:
        """Content digest of the fitted curves (hex SHA-256).

        Hashes every curve's grid, cumulative fit, rate and mean total
        plus the mean instance duration — byte-exact, so two folds
        agree on the digest iff their fitted output is bit-identical.
        The streaming-fold tests and the ``stream`` benchmark scenario
        compare streamed against resident folds through this.
        """
        h = hashlib.sha256()
        h.update(np.float64(self.duration_ns).tobytes())
        for name in sorted(self.curves):
            c = self.curves[name]
            h.update(name.encode())
            h.update(np.float64(c.total_mean).tobytes())
            for arr in (c.sigma, c.cumulative, c.rate):
                h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def counter_design(
    folded: FoldedSamples,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
) -> BinnedDesign:
    """The shared kernel-regression design of *folded*'s counters.

    One row per counter, in *counters* order.  Grid- and bandwidth-
    independent: :class:`~repro.folding.plan.FoldPlan` caches it and
    sweeps fit parameters against it.
    """
    if folded.n == 0:
        raise ValueError("cannot fold counters without samples")
    Y = np.stack([folded.fractions[name] for name in counters])
    return make_design(folded.sigma, Y)


def fold_counters(
    folded: FoldedSamples,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    design: BinnedDesign | None = None,
) -> FoldedCounters:
    """Fit the folded cumulative/rate curves of every counter.

    All counters share one Gaussian weight matrix over (grid × samples):
    the kernel is built once and applied to every counter as a single
    matmul, then the monotone projection runs row-wise (batched PAVA).

    Parameters
    ----------
    folded:
        Projected samples (from :func:`repro.folding.fold.fold_samples`).
    grid_points:
        Evaluation grid resolution over [0, 1].
    bandwidth:
        Gaussian kernel width in σ units; the ablation bench
        ``benchmarks/test_ablation_kernel.py`` sweeps this.
    design:
        Precomputed :func:`counter_design` (rows in *counters* order) —
        pass it to reuse the sample-side work across parameter sweeps.
    """
    if folded.n == 0:
        raise ValueError("cannot fold counters without samples")
    if design is None:
        design = counter_design(folded, counters)
    return fit_counter_curves(
        design,
        grid_points=grid_points,
        bandwidth=bandwidth,
        counters=counters,
        totals_mean={
            name: folded.counter_total_mean(name) for name in counters
        },
        duration_ns=folded.instances.mean_duration_ns,
    )


def fit_counter_curves(
    design: BinnedDesign,
    *,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    totals_mean: Mapping[str, float],
    duration_ns: float,
) -> FoldedCounters:
    """Fit :class:`FoldedCounters` from a design plus instance stats.

    The design-to-curves half of :func:`fold_counters`, factored out so
    a streaming fold — which accumulates the design chunk by chunk and
    never holds a :class:`~repro.folding.fold.FoldedSamples` — produces
    its curves through the *same* code path as the resident fold.
    """
    if design.n_targets != len(counters):
        raise ValueError(
            f"design has {design.n_targets} targets for {len(counters)} counters"
        )
    grid = np.linspace(0.0, 1.0, grid_points)
    fits = fit_design(design, grid, bandwidth)
    curves: dict[str, FoldedCurve] = {}
    for row, name in enumerate(counters):
        # Pin the cumulative ends: an instance starts at 0 and ends at 1
        # by construction.
        cumulative = np.clip(fits[row], 0.0, 1.0)
        rate_sigma = np.gradient(cumulative, grid)
        rate_sigma = np.maximum(rate_sigma, 0.0)
        total = float(totals_mean[name])
        curves[name] = FoldedCurve(
            name=name,
            sigma=grid,
            cumulative=cumulative,
            rate=rate_sigma * total / duration_ns,
            total_mean=total,
        )
    return FoldedCounters(curves=curves, duration_ns=duration_ns)
