"""Fold plans: reuse the trace-dependent folding work across fits.

Folding a trace splits into two very different halves:

* **trace-dependent** — detect and prune instances, compute each
  sample's inside-mask and σ projection (optionally warped), interpolate
  counter boundaries, resolve addresses, extract the source-line track.
  This scales with the trace and is identical for every fit.
* **parameter-dependent** — the kernel regression over (grid ×
  samples) at one ``grid_points``/``bandwidth``/counter subset.

:class:`FoldPlan` captures the first half once.  A bandwidth or grid
scan calls :meth:`FoldPlan.fold` per point instead of re-running
:func:`~repro.folding.report.fold_trace` from scratch — bit-identical
output, because ``fold_trace`` itself is just
``FoldPlan.from_trace(...).fold(...)``::

    plan = FoldPlan.from_trace(trace)
    reports = [plan.fold(bandwidth=b) for b in (0.01, 0.015, 0.05)]

The analysis service's fold worker
(:func:`~repro.service.work.fold_payload_job`) is the entry point that
reuses plans: it keeps the plan of the trace it folded last, without
its trace (``trace=None``, as the fold cache stores reports), so a new
fit point of that trace is one :meth:`FoldPlan.fold`.  A plan holds no
view of the trace's columns (its sample, address and line views are
copies, which the reports of the plan share), so it outlives the
container it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extrae.schema import SAMPLE_COUNTERS
from repro.extrae.trace import Trace
from repro.folding.address import FoldedAddresses, fold_addresses
from repro.folding.detect import FoldInstances, fold_instances
from repro.folding.fold import FoldedSamples, fold_samples
from repro.folding.lines import FoldedLines, fold_lines
from repro.folding.model import FoldedCounters, counter_design, fold_counters
from repro.objects.registry import DataObjectRegistry
from repro.util.pava import BinnedDesign

__all__ = ["FoldPlan"]


@dataclass
class FoldPlan:
    """The reusable trace-dependent half of a fold.

    Build once with :meth:`from_trace`, then :meth:`fold` any number of
    parameter points against it.  Kernel-regression designs are cached
    per counter subset, so even the sample-side aggregation of the
    batched fit is shared across a bandwidth/grid scan.  A plan kept
    without its trace (``dataclasses.replace(plan, trace=None)``)
    folds reports without one.
    """

    trace: Trace | None
    instances: FoldInstances
    samples: FoldedSamples
    addresses: FoldedAddresses
    lines: FoldedLines
    registry: DataObjectRegistry
    _designs: dict[tuple[str, ...], BinnedDesign] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        instances: FoldInstances | None = None,
        registry: DataObjectRegistry | None = None,
        prune_tolerance: float | None = 0.5,
        align_regions: tuple[str, ...] | None = None,
    ) -> "FoldPlan":
        """Run the expensive trace-dependent folding work once.

        *prune_tolerance* and *align_regions* are the
        :class:`~repro.folding.spec.FoldSpec` fields of the same name;
        the fit parameters stay free.  *instances* (default:
        consecutive iteration markers) and *registry* (default: the
        trace's object records) fold region instances or custom data
        objects — the custom folds that
        :func:`~repro.folding.report.fold_trace` and its cache leave
        to this layer.
        """
        instances = fold_instances(trace, prune_tolerance, instances)
        if registry is None:
            registry = DataObjectRegistry(trace.objects)
        warp = None
        if align_regions is not None:
            from repro.folding.align import build_warp

            warp = build_warp(trace, instances, align_regions)
        samples = fold_samples(trace.sample_table(), instances, warp=warp)
        return cls(
            trace=trace,
            instances=instances,
            samples=samples,
            addresses=fold_addresses(samples, registry),
            lines=fold_lines(samples, trace),
            registry=registry,
        )

    # ------------------------------------------------------------------
    def design_for(self, counters: tuple[str, ...] = SAMPLE_COUNTERS) -> BinnedDesign:
        """The cached kernel-regression design of a counter subset."""
        key = tuple(counters)
        design = self._designs.get(key)
        if design is None:
            design = counter_design(self.samples, key)
            self._designs[key] = design
        return design

    def fold_counters(
        self,
        grid_points: int = 201,
        bandwidth: float = 0.015,
        counters: tuple[str, ...] = SAMPLE_COUNTERS,
    ) -> FoldedCounters:
        """Fit one parameter point against the cached design."""
        return fold_counters(
            self.samples,
            grid_points=grid_points,
            bandwidth=bandwidth,
            counters=tuple(counters),
            design=self.design_for(tuple(counters)),
        )

    def fold(
        self,
        grid_points: int = 201,
        bandwidth: float = 0.015,
        counters: tuple[str, ...] = SAMPLE_COUNTERS,
    ):
        """Assemble the full three-direction report at one fit point.

        Everything but the counter fit is shared with the plan: the
        views are frozen values, so every report of the plan can hold
        the same ones.
        """
        from repro.folding.report import FoldedReport

        return FoldedReport(
            trace=self.trace,
            instances=self.instances,
            samples=self.samples,
            counters=self.fold_counters(grid_points, bandwidth, counters),
            addresses=self.addresses,
            lines=self.lines,
            registry=self.registry,
        )
