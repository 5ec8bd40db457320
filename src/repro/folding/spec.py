"""The identity of a fold as one value: :class:`FoldSpec`.

What a fold produces is fixed by a handful of parameters — the σ grid
and kernel width of the fit, instance pruning and projection, and
which path folds it (resident, streamed, representative).  Every fold
entry builds one :class:`FoldSpec` from its own inputs:
:func:`~repro.folding.report.fold_trace`,
:func:`~repro.folding.stream.stream_fold_trace`,
:func:`~repro.pipeline.analyze_hpcg`, ``bsc-memtools-fold`` and the
analysis service's ``/fold`` route.  So the defaults, the range checks,
the rules for combining paths, the fold path a spec selects
(:attr:`FoldSpec.path`), what each path's product serves
(:func:`serves`) and the :class:`~repro.folding.cache.FoldCache`
address are written once, here.

A fold entry's product is a function of (trace, spec) alone.  Its
other arguments — the cache, chunk size and live snapshots — change
how a fold runs, not what it produces.  Folds that depend on more than
the spec sit one layer down and are never cached: custom instances or
a custom registry go through
:meth:`FoldPlan.from_trace <repro.folding.plan.FoldPlan.from_trace>`,
a prebuilt representative selection through
:func:`~repro.folding.extrapolate.extrapolated_fold`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DIRECTIONS",
    "FoldSpec",
    "REPRESENTATIVE",
    "RESIDENT",
    "STREAMED",
    "STREAMED_REPORT",
    "normalize_directions",
    "serves",
]

#: The report's three directions (§II), in canonical order.
DIRECTIONS = ("counters", "address", "lines")

#: The fold paths a spec selects (:attr:`FoldSpec.path`), and the
#: ``fold_path`` of their products: ``FoldedReport``, ``StreamedFold``,
#: ``StreamedReport`` and ``ExtrapolatedFold``.
RESIDENT = "resident"
STREAMED = "streamed"
STREAMED_REPORT = "streamed report"
REPRESENTATIVE = "representative"

#: What each path's product serves: the payload directions it answers
#: exactly, and the paths whose product it is or contains.  Only the
#: resident report stands in for another fold (its counters-only part
#: is the streamed fold, bit for bit), so a representative fold never
#: serves an exact request.
_SERVES = {
    RESIDENT: frozenset({RESIDENT, STREAMED, *DIRECTIONS}),
    STREAMED: frozenset({STREAMED, "counters"}),
    STREAMED_REPORT: frozenset({STREAMED_REPORT, "counters"}),
    REPRESENTATIVE: frozenset({REPRESENTATIVE, "counters"}),
}


def serves(path: str, what: str) -> bool:
    """Whether the product of fold *path* serves *what*: a payload
    direction, or another fold path.

    ``serves(spec.path, direction)`` says whether a fold can answer a
    payload at all, and ``serves(hit.fold_path, spec.path)`` whether a
    cached product found under the spec's key serves the fold.
    """
    return what in _SERVES[path]


def normalize_directions(directions) -> tuple[str, ...] | None:
    """Canonical direction tuple, or ``None`` for counters-only.

    ``None`` and ``("counters",)`` both mean the counters-only fold
    (a :class:`~repro.folding.stream.StreamedFold`); anything more
    returns the canonical subset of :data:`DIRECTIONS` — counters are
    always folded, so a streamed report always has its performance
    direction.
    """
    if directions is None:
        return None
    if isinstance(directions, str):
        directions = (directions,)
    requested = set(directions)
    unknown = requested - set(DIRECTIONS)
    if unknown:
        raise ValueError(
            f"unknown fold directions {sorted(unknown)}; "
            f"choose from {DIRECTIONS}"
        )
    if requested <= {"counters"}:
        return None
    requested.add("counters")
    return tuple(d for d in DIRECTIONS if d in requested)


@dataclass(frozen=True)
class FoldSpec:
    """The parameters that decide what a fold produces.

    Frozen and hashable, and checked on construction: an invalid
    combination raises :class:`ValueError` here, before any fold work.
    Derive variants with :func:`dataclasses.replace`, which checks the
    result again.
    """

    #: points of the σ grid the counter curves are fitted on
    grid_points: int = 201
    #: Gaussian kernel width in normalized time
    bandwidth: float = 0.015
    #: relative duration tolerance for instance pruning (None: keep all)
    prune_tolerance: float | None = 0.5
    #: project with a piecewise warp built from these regions' enter
    #: events instead of the linear per-instance projection
    align_regions: tuple[str, ...] | None = None
    #: fold chunk by chunk in O(chunk + summary) memory
    streaming: bool = False
    #: streamed directions beyond counters (normalized; ``None`` is
    #: counters-only)
    directions: tuple[str, ...] | None = None
    #: fold only this many representative instances and extrapolate
    rep_budget: int | None = None
    #: clustering seed of the representative selection
    rep_seed: int = 0

    def __post_init__(self) -> None:
        if not self.grid_points >= 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(
                f"bandwidth must be finite and > 0, got {self.bandwidth}"
            )
        if self.rep_budget is not None and self.rep_budget < 1:
            raise ValueError(f"rep_budget must be >= 1, got {self.rep_budget}")
        if self.rep_seed < 0:
            raise ValueError(f"rep_seed must be >= 0, got {self.rep_seed}")
        if self.directions is not None and not self.streaming:
            raise ValueError(
                "directions only applies to streaming folds — the resident "
                "report always carries all three"
            )
        if self.rep_budget is not None and self.streaming:
            raise ValueError(
                "representative folds are already sub-linear in instances — "
                "combine with streaming is not supported"
            )
        if self.align_regions is not None and (
            self.streaming or self.rep_budget is not None
        ):
            raise ValueError(
                "streamed and representative folds use the linear "
                "per-instance projection — align_regions needs the "
                "resident fold"
            )
        if self.align_regions is not None:
            object.__setattr__(self, "align_regions", tuple(self.align_regions))
        object.__setattr__(
            self, "directions", normalize_directions(self.directions)
        )

    @property
    def path(self) -> str:
        """The fold this spec selects: :data:`RESIDENT`, :data:`STREAMED`,
        :data:`STREAMED_REPORT` or :data:`REPRESENTATIVE`."""
        if self.rep_budget is not None:
            return REPRESENTATIVE
        if self.streaming:
            return STREAMED if self.directions is None else STREAMED_REPORT
        return RESIDENT

    def cache_key(self) -> tuple[str, dict]:
        """The :class:`~repro.folding.cache.FoldCache` ``(kind, params)``.

        :meth:`FoldCache.key <repro.folding.cache.FoldCache.key>`
        hashes them with the trace digest.  Exact resident and
        counters-only streamed folds share ``"report"`` (a streamed
        entry is a strict subset of the resident report, same bits
        where they overlap); representative folds are
        ``"extrapolated"``.  Multi-direction streamed reports are
        ``"streamed"`` and also carry the reservoir and line-bin
        settings :func:`~repro.folding.stream.stream_fold_trace`
        builds their bounded summaries with.
        """
        params = {
            "grid_points": self.grid_points,
            "bandwidth": self.bandwidth,
            "prune_tolerance": self.prune_tolerance,
        }
        path = self.path
        if path == REPRESENTATIVE:
            return "extrapolated", {
                **params,
                "rep_budget": self.rep_budget,
                "rep_seed": self.rep_seed,
            }
        if path == STREAMED_REPORT:
            from repro.folding.stream_views import LINE_SIGMA_BINS, RESERVOIR_CAPACITY

            return "streamed", {
                **params,
                "directions": self.directions,
                "reservoir_capacity": RESERVOIR_CAPACITY,
                "reservoir_seed": 0,
                "reservoir_weighting": "uniform",
                "line_sigma_bins": LINE_SIGMA_BINS,
            }
        return "report", {**params, "align_regions": self.align_regions}
