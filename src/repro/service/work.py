"""Fold jobs executed in the service's bounded worker pool.

One module-level entry point, :func:`fold_payload_job`, picklable into
a ``ProcessPoolExecutor``, is the one place that decides whether a
fold request is a :class:`FoldCache` hit or a fold.  Either way it
returns the canonical payload bytes the server sends, so the event
loop never decodes a report or encodes a fold body.

Each worker keeps one :class:`FoldCache` per directory for its
lifetime: the reports it folded or read stay decoded in that cache's
memo, so the other panels of a fold cost no second decode.  The
directory is shared with every other worker and process, so a fold
computed for one request warms every later process that asks —
including a restarted server.

A miss on both tiers refits what the worker already knows instead of
refolding the trace.  The worker keeps the most recent resident
:class:`~repro.folding.plan.FoldPlan` it built, for (trace digest,
``prune_tolerance``, ``align_regions``), and the most recent finished
:class:`~repro.folding.stream.StreamingFold` — the prologue plus the
binned design of a counters-only streamed fold — for (trace digest,
``prune_tolerance``): a second fit point of the same trace is one
kernel fit, and never opens the container.  Neither holds the trace or
a view of its memory map.  Only the worker that built one can refit
from it: with several workers, two fit points of a trace can land on
two workers, and each folds once.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.spec import RESIDENT, STREAMED, FoldSpec, serves
from repro.folding.stream import StreamingFold, stream_passes
from repro.service.payloads import fold_body

__all__ = ["fold_payload_job"]


@cache
def _cache(cache_dir: str) -> FoldCache:
    """This process's one :class:`FoldCache` over *cache_dir*."""
    return FoldCache(cache_dir)


class _Latest:
    """The value built for the most recent key; a new key replaces it."""

    def __init__(self) -> None:
        self.key = None
        self.value = None

    def get(self, key, build):
        if key != self.key:
            # Drop the old value first: two are never held at once.
            self.key = self.value = None
            self.value = build()
            self.key = key
        return self.value


#: this worker's most recent resident fold plan and streamed design
_plan = _Latest()
_streamed = _Latest()


def fold_payload_job(
    path: str,
    digest: str,
    direction: str,
    spec: FoldSpec,
    points: int,
    cache_dir: str,
) -> tuple[bytes, bool]:
    """The *direction* payload of the container at *path* folded by *spec*.

    Returns ``(canonical body bytes, folded)``; a direction the fold
    cannot serve (:func:`~repro.folding.spec.serves`) raises
    :class:`ValueError` before anything is read.  The cache entry is
    addressed by *digest*, the container's content digest as the
    repository resolved it: a hit hashes nothing, and a fold is stored
    under the same key, so the trace is never hashed again.  The trace
    is folded only on a miss, or when the entry cannot serve
    *direction* (a counters-only entry under a resident key).  A fold
    that refits this worker's kept plan or design still counts as
    folded, and is stored like any other.  *points* bounds the
    scatter/track rows of address/lines payloads
    (:func:`~repro.service.payloads.fold_payload`).
    """
    if not serves(spec.path, direction):
        raise ValueError(f"a {spec.path} fold has no {direction} payload")
    fold_cache = _cache(cache_dir)
    key = fold_cache.key(digest, spec)
    hit = fold_cache.get(key)
    if hit is not None and serves(hit.fold_path, direction):
        return fold_body(hit, direction, points), False
    fold = _fold(path, digest, spec)
    fold_cache.put(key, fold)
    return fold_body(fold, direction, points), True


def _fold(path: str, digest: str, spec: FoldSpec):
    """The fold *spec* describes, refitted from kept state where it can.

    Representative folds and multi-direction streamed reports fold the
    trace every time.
    """
    if spec.path == RESIDENT:
        plan = _plan.get(
            (digest, spec.prune_tolerance, spec.align_regions),
            lambda: _build_plan(path, spec),
        )
        return plan.fold(spec.grid_points, spec.bandwidth)
    if spec.path == STREAMED:
        acc = _streamed.get(
            (digest, spec.prune_tolerance), lambda: _build_streamed(path, spec)
        )
        return acc.result(spec.grid_points, spec.bandwidth)
    with Trace.load(path) as trace:
        return fold_trace(trace, spec)


def _build_plan(path: str, spec: FoldSpec) -> FoldPlan:
    with Trace.load(path) as trace:
        plan = FoldPlan.from_trace(
            trace,
            prune_tolerance=spec.prune_tolerance,
            align_regions=spec.align_regions,
        )
    # Kept without its trace: its reports are stored without one too.
    return replace(plan, trace=None)


def _build_streamed(path: str, spec: FoldSpec) -> StreamingFold:
    with Trace.load(path) as trace:
        acc, _addresses, _lines = stream_passes(trace, spec)
    return acc
