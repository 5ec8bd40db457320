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
"""

from __future__ import annotations

from functools import cache

from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.spec import FoldSpec
from repro.service.payloads import canonical_bytes, fold_payload

__all__ = ["fold_payload_job"]


@cache
def _cache(cache_dir: str) -> FoldCache:
    """This process's one :class:`FoldCache` over *cache_dir*."""
    return FoldCache(cache_dir)


def fold_payload_job(
    path: str,
    digest: str,
    direction: str,
    spec: FoldSpec,
    points: int,
    cache_dir: str,
) -> tuple[bytes, bool]:
    """The *direction* payload of the container at *path* folded by *spec*.

    Returns ``(canonical body bytes, folded)``.  The cache entry is
    addressed by *digest*, the container's content digest as the
    repository resolved it: a hit hashes nothing, and a fold is stored
    under the same key, so the trace is never hashed again.  The trace
    is loaded and folded only on a miss, or when the entry cannot serve
    *direction*: only the resident :class:`FoldedReport` reproduces
    the exact address and line payloads, while any entry under the key
    serves the counters.  *points* bounds the scatter/track rows of
    address/lines payloads (:func:`~repro.service.payloads.fold_payload`).
    """
    fold_cache = _cache(cache_dir)
    key = fold_cache.key(digest, spec)
    hit = fold_cache.get(key)
    if hit is not None and (
        direction == "counters" or isinstance(hit, FoldedReport)
    ):
        return canonical_bytes(fold_payload(hit, direction, points)), False
    with Trace.load(path) as trace:
        fold = fold_trace(trace, spec)
        fold_cache.put(key, fold)
        return canonical_bytes(fold_payload(fold, direction, points)), True
